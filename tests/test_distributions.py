import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_tabulated_crosscheck import tables

from rankstop.distributions import (
    DistributionError,
    IntervalUnionUniform,
    Laplace,
    PowerFold,
    TabulatedCdf,
    Uniform,
    builtin_suite,
    from_spec,
)


def support_grid(dist, n=1000):
    lo, hi = dist.support
    lo = lo if math.isfinite(lo) else dist.quantile(1e-9)
    hi = hi if math.isfinite(hi) else dist.quantile(1 - 1e-9)
    return np.linspace(lo, hi, n)


class TestCdfBasics:
    def test_symmetry_on_grid(self, builtins):
        for name, dist in builtins.items():
            xs = support_grid(dist)
            defect = np.max(np.abs(dist.cdf(xs) + dist.cdf(-xs) - 1.0))
            assert defect < 1e-12, f"{name}: symmetry defect {defect}"

    def test_median_is_half(self, builtins):
        for dist in builtins.values():
            assert float(dist.cdf(0.0)) == pytest.approx(0.5, abs=1e-15)

    def test_cdf_monotone(self, builtins):
        for name, dist in builtins.items():
            xs = support_grid(dist)
            assert np.all(np.diff(dist.cdf(xs)) >= 0), name

    def test_known_values(self):
        assert float(Uniform(1).cdf(0.0)) == 0.5
        assert float(Laplace(1).cdf(0.0)) == 0.5
        assert float(Uniform(1).cdf(1.0)) == 1.0
        # no mass on (-1, 1): the CDF is flat at 1/2 there
        assert float(IntervalUnionUniform(1, 2).cdf(0.5)) == 0.5


class TestFoldedCdf:
    def test_definition(self, builtins):
        for dist in builtins.values():
            xs = np.abs(support_grid(dist))
            np.testing.assert_allclose(
                dist.folded_cdf(xs), 2.0 * dist.cdf(xs) - 1.0, atol=1e-14
            )

    def test_known_values(self):
        assert float(Uniform(1).folded_cdf(0.5)) == pytest.approx(0.5)
        assert float(PowerFold(2).folded_cdf(0.5)) == pytest.approx(0.25)
        for dist in builtin_suite().values():
            assert float(dist.folded_cdf(0.0)) == pytest.approx(0.0, abs=1e-15)

    def test_nondecreasing(self, builtins):
        for dist in builtins.values():
            xs = np.sort(np.abs(support_grid(dist)))
            assert np.all(np.diff(dist.folded_cdf(xs)) >= 0)

    def test_negative_argument_rejected(self):
        with pytest.raises(DistributionError):
            Uniform(1).folded_cdf(-0.1)


class TestQuantile:
    def test_roundtrip(self, builtins):
        us = np.linspace(1e-6, 1 - 1e-6, 2001)
        for name, dist in builtins.items():
            defect = np.max(np.abs(dist.cdf(dist.ppf(us)) - us))
            assert defect < 1e-10, f"{name}: roundtrip defect {defect}"

    def test_quantile_of_cdf_identity_where_strictly_increasing(self, builtins):
        # On flat stretches of F the inverse is not unique; skip points where
        # the CDF is locally constant.
        for name, dist in builtins.items():
            xs = support_grid(dist, 500)[1:-1]
            f = dist.cdf(xs)
            h = 1e-7 * (xs[-1] - xs[0])
            strict = (dist.cdf(xs + h) - dist.cdf(xs - h)) > 1e-9
            defect = np.max(np.abs(dist.ppf(f[strict]) - xs[strict]))
            assert defect < 1e-8, f"{name}: inverse defect {defect}"

    def test_median_is_zero(self, builtins):
        for dist in builtins.values():
            assert dist.quantile(0.5) == pytest.approx(0.0, abs=0.0)

    def test_known_values(self):
        assert Uniform(1).quantile(0.75) == pytest.approx(0.5, abs=1e-14)
        # invert F(x) = exp(x)/2 on the negative half
        assert Laplace(1).quantile(0.25) == pytest.approx(-math.log(2.0), abs=1e-12)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(DistributionError):
                Uniform(1).quantile(bad)

    # 2^16 seeded draws and the edges, where a sign or a -0 could slip
    _PPF_U = np.concatenate([np.random.default_rng(2024).random(1 << 16), [
        0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 1e-300, 1.0 - 2.0**-53, 0.0, 1.0]])

    @pytest.mark.parametrize("b", [1.0, 2.5])
    def test_laplace_ppf_matches_two_log_formula_bitwise(self, b):
        u = self._PPF_U
        with np.errstate(divide="ignore"):
            two_logs = b * np.where(u < 0.5, np.log(2.0 * u), -np.log(2.0 * (1.0 - u)))
        np.testing.assert_array_equal(Laplace(b).ppf(u).view(np.int64), two_logs.view(np.int64))
        assert Laplace(b).ppf(0.0) == -math.inf and Laplace(b).ppf(1.0) == math.inf
        assert Laplace(b).quantile(0.25) == b * -math.log(2.0)  # 0-d input

    @pytest.mark.parametrize("delta", [0.3, 1.0, 2.0, 7.0])
    def test_powerfold_ppf_matches_where_formula_bitwise(self, delta):
        u = self._PPF_U
        mag = np.abs(2.0 * u - 1.0) ** (1.0 / delta)
        reference = np.where(u >= 0.5, mag, -mag)
        np.testing.assert_array_equal(PowerFold(delta).ppf(u).view(np.int64),
                                      reference.view(np.int64))
        assert PowerFold(delta).quantile(0.75) == 0.5 ** (1.0 / delta)  # 0-d input

    # 2^16 seeded points on (-4, 4) and the edges, signed zeros included
    _CDF_X = np.concatenate([np.random.default_rng(2025).uniform(-4.0, 4.0, 1 << 16), [
        0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, 1e-300, -1e-300, 800.0, -800.0]])

    @pytest.mark.parametrize("b", [0.3, 1.0, 2.5])
    def test_laplace_cdf_matches_two_exp_formula_bitwise(self, b):
        def two_exps(x):
            z = np.asarray(x, dtype=float) / b
            with np.errstate(over="ignore"):
                return np.where(z < 0, 0.5 * np.exp(z), 1.0 - 0.5 * np.exp(-z))

        x = self._CDF_X
        with np.errstate(over="raise"):  # one exp of -|x|/b never overflows
            got = Laplace(b).cdf(x)
        np.testing.assert_array_equal(got.view(np.int64), two_exps(x).view(np.int64))
        for v in (-1.5, -0.0, 0.0, 2.0):  # 0-d input
            assert np.float64(Laplace(b).cdf(v)).view(np.int64) == two_exps(v).view(np.int64)

    @pytest.mark.parametrize("delta", [0.1, 0.5, 2.0, 4.0])
    def test_powerfold_cdf_matches_where_formula_bitwise(self, delta):
        def where(x):
            x = np.asarray(x, dtype=float)
            g = np.clip(np.abs(x), 0.0, 1.0) ** delta
            return np.where(x >= 0, 0.5 * (1.0 + g), 0.5 * (1.0 - g))

        x = self._CDF_X
        np.testing.assert_array_equal(PowerFold(delta).cdf(x).view(np.int64),
                                      where(x).view(np.int64))
        # A 0-d input takes the array's power bit for bit.  The formula on a
        # 0-d input does not: there numpy's scalar ** differs from the array
        # loop by an ulp at some points, 0.75 ** 0.1 among them.
        for v in (-0.5, -0.0, 0.0, 0.75):
            got = PowerFold(delta).cdf(v)
            assert np.ndim(got) == 0
            assert np.float64(got).view(np.int64) == where([v]).view(np.int64)[0]


class TestSampling:
    def test_uniform_ks_statistic(self):
        dist = Uniform(1)
        rng = np.random.default_rng(20260808)
        draws = np.sort(dist.sample(rng, 10**6))
        n = len(draws)
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        f = dist.cdf(draws)
        ks = max(np.max(np.abs(ecdf_hi - f)), np.max(np.abs(f - ecdf_lo)))
        assert ks < 0.002

    def test_laplace_mean_clt(self):
        rng = np.random.default_rng(7)
        draws = Laplace(1).sample(rng, 10**6)
        assert abs(float(np.mean(draws))) < 0.01  # sd of mean is sqrt(2)/1000

    def test_identical_seeds_identical_streams(self):
        dist = Laplace(1)
        a = dist.sample(np.random.default_rng(123), 1000)
        b = dist.sample(np.random.default_rng(123), 1000)
        np.testing.assert_array_equal(a, b)


class TestTabulatedValidation:
    def test_rejects_wrong_median(self):
        with pytest.raises(DistributionError):
            TabulatedCdf([[0.0, 0.48], [1.0, 1.0]])

    def test_rejects_non_monotone(self):
        with pytest.raises(DistributionError):
            TabulatedCdf([[0.0, 0.5], [0.5, 0.9], [1.0, 0.8], [2.0, 1.0]])

    def test_rejects_atom(self):
        with pytest.raises(DistributionError):
            TabulatedCdf([[0.0, 0.5], [1.0, 0.7], [1.0, 0.9], [2.0, 1.0]])

    def test_collapses_repeated_x_within_tolerance(self):
        dist = TabulatedCdf([[0.0, 0.5], [1.0, 0.7], [1.0, 0.7 + 4e-10], [2.0, 1.0], [2.0, 1.0]])
        assert dist.spec()["grid"] == [[0.0, 0.5], [1.0, (0.7 + 0.7 + 4e-10) / 2], [2.0, 1.0]]

    @pytest.mark.parametrize("grid, want", [
        ([[0.0, 0.5], [0.3, 0.6], [0.3, 0.6], [0.3, 0.6], [1.0, 1.0], [1.0, 1.0]],
         [[0.0, 0.5], [0.3, 0.6], [1.0, 1.0]]),
        ([[1.0, 1.0], [0.25, 0.7], [0.0, 0.5], [0.5, 0.8], [0.25, 0.7]],
         [[0.0, 0.5], [0.25, 0.7], [0.5, 0.8], [1.0, 1.0]]),
        ([[0.5, 0.75], [0.2, 0.6], [0.5, 0.75], [1.5, 1.0], [0.2, 0.6]],
         [[0.0, 0.5], [0.2, 0.6], [0.5, 0.75], [1.5, 1.0]]),
    ], ids=["repeated_runs", "unsorted", "unsorted_without_origin"])
    def test_sorts_and_collapses_repeated_x(self, grid, want):
        dist = TabulatedCdf(grid)
        assert dist.spec()["grid"] == want
        assert all(type(v) is float for point in dist.spec()["grid"] for v in point)
        x, f = np.array(want).T
        np.testing.assert_array_equal(dist._x, np.concatenate([-x[:0:-1], x]))
        np.testing.assert_array_equal(dist._f, np.concatenate([1.0 - f[:0:-1], f]))

    def test_atom_is_named_in_an_unsorted_grid(self):
        with pytest.raises(DistributionError, match=r"atom at x=0\.4: F jumps by 0\.1"):
            TabulatedCdf([[1.0, 1.0], [0.4, 0.7], [0.1, 0.55], [0.4, 0.6], [0.0, 0.5]])

    def test_rejects_unreached_total_mass(self):
        with pytest.raises(DistributionError):
            TabulatedCdf([[0.0, 0.5], [1.0, 0.9]])

    def test_prepends_origin(self):
        dist = TabulatedCdf([[1.0, 0.75], [2.0, 1.0]])
        assert float(dist.cdf(0.0)) == 0.5
        assert dist.support == (-2.0, 2.0)

    def test_flat_stretch_quantile_is_left_continuous(self):
        # mass only on (1, 2): the inverse at levels inside (0.5, 1) is unique,
        # and at exactly 1/2 the symmetric midpoint 0 is returned.
        dist = TabulatedCdf([[0.0, 0.5], [1.0, 0.5], [2.0, 1.0]])
        assert dist.quantile(0.5) == 0.0
        assert dist.quantile(0.75) == pytest.approx(1.5)


class TestTablePpf:
    """ppf of a table: np.interp on the mirrored knots, the median pinned to 0."""

    @settings(max_examples=100, deadline=None)
    @given(tables(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_monotone_and_inverts_cdf(self, table, us):
        knots = np.array(table.spec()["grid"])
        u = np.sort(np.concatenate([us, knots[:, 1], 1.0 - knots[:, 1]]))
        x = table.ppf(u)
        assert table.ppf(0.5) == 0.0
        assert np.all(np.diff(x) >= 0)
        # two ulp of u, plus two ulp of x carried through the steepest piece
        slope = np.max(np.diff(knots[:, 1]) / np.diff(knots[:, 0]))
        tol = 2.0 * (np.spacing(1.0) + slope * np.spacing(np.abs(x)))
        assert np.all(np.abs(table.cdf(x) - u) <= tol)

    @settings(max_examples=100, deadline=None)
    @given(tables())
    def test_flat_piece_maps_to_its_upper_end(self, table):
        grid = np.array(table.spec()["grid"])
        for level in np.unique(grid[:, 1]):
            if level > 0.5:
                assert table.ppf(level) == grid[grid[:, 1] == level, 0].max()

    @pytest.mark.parametrize("grid", [
        [[0.0, 0.5], [1.0, 1.0], [2.0, 1.0]],
        [[0.0, 0.5], [0.5, 0.8], [1.0, 1.0], [1.5, 1.0], [3.0, 1.0]],
        [[0.0, 0.5], [1.0, 0.5], [2.0, 1.0], [2.5, 1.0]],
    ], ids=["one_flat_piece", "two_flat_pieces", "flat_at_both_levels"])
    def test_ends_of_the_support_with_a_flat_piece_at_one(self, grid):
        # the mirrored flat piece at F = 0 would give its upper end at u = 0
        table = TabulatedCdf(grid)
        lower, upper = table.ppf([0.0, 1.0])
        assert (lower, upper) == table.support == (-grid[-1][0], grid[-1][0])

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
    def test_uniform_closed_form_matches_table(self, a, seed):
        dist = Uniform(a)
        u = np.random.default_rng(seed).random(1000)
        assert np.all(np.abs(dist.ppf(u) - TabulatedCdf.ppf(dist, u)) <= np.spacing(a))

    def test_interval_union_matches_its_closed_form(self):
        u = np.concatenate([[0.0, 0.5, 1.0], np.random.default_rng(20261018).random(2**16)])
        mag = 1.0 + np.abs(2.0 * u - 1.0) * (2.0 - 1.0)
        closed = np.where(u == 0.5, 0.0, np.where(u > 0.5, mag, -mag))
        np.testing.assert_array_equal(IntervalUnionUniform(1, 2).ppf(u), closed)

    def test_public_surface(self):
        uniform, interval = Uniform(2.5), IntervalUnionUniform(1, 3)
        assert (uniform.a, uniform.support) == (2.5, (-2.5, 2.5))
        assert (interval.c, interval.d, interval.support) == (1.0, 3.0, (-3.0, 3.0))
        assert uniform.spec() == {"kind": "uniform", "a": 2.5}
        assert interval.spec() == {"kind": "interval_union", "c": 1.0, "d": 3.0}
        assert float(interval.cdf(2.0)) == 0.75 and float(interval.cdf(-0.5)) == 0.5


class TestBreakPointDegrees:
    # PowerFold(delta >= 1) takes at 0 the smallest d in 2..8 with d / delta
    # an integer (4 without one) and kinks at +-1; delta < 1 keeps t^2.
    @pytest.mark.parametrize("delta, at_zero", [(1, 2), (1.5, 3), (2, 2), (2.5, 5), (3, 3),
                                                (4, 4), (8, 8), (1.3, 4), (9, 4)])
    def test_powerfold(self, delta, at_zero):
        degrees, _ = PowerFold(delta).break_point_degrees()
        assert list(degrees) == [0, at_zero, 0]

    @pytest.mark.parametrize("delta", [0.1, 0.5, 0.99])
    def test_powerfold_below_one_keeps_t2(self, delta):
        degrees, _ = PowerFold(delta).break_point_degrees()
        assert list(degrees) == [2, 2, 2]

    def test_laplace_kink_and_tails(self):
        degrees, end_degree = Laplace(2.0).break_point_degrees()
        assert list(degrees) == [0] and end_degree == 3

    def test_one_degree_per_knot(self, builtins):
        # tables keep the base declaration; the exact path reads none of it
        for name, dist in builtins.items():
            degrees, end_degree = dist.break_point_degrees()
            assert len(degrees) == len(dist.cdf_break_points()), name
            assert end_degree in (0, 2, 3, 4, 5, 6, 7, 8), name


class TestSpecParsing:
    def test_roundtrip(self, builtins):
        for dist in builtins.values():
            clone = from_spec(dist.spec())
            xs = support_grid(dist, 100)
            np.testing.assert_array_equal(dist.cdf(xs), clone.cdf(xs))

    def test_json_text(self):
        dist = from_spec('{"kind": "interval_union", "c": 1.0, "d": 2.0}')
        assert isinstance(dist, IntervalUnionUniform)

    @pytest.mark.parametrize("bad", [
        "not json",
        '{"no_kind": 1}',
        '{"kind": "gaussian"}',
        '{"kind": "uniform", "a": -1}',
        '{"kind": "powerfold"}',
        '{"kind": "interval_union", "c": 2, "d": 1}',
        '{"kind": "uniform", "a": "abc"}',
        '{"kind": "tabulated", "grid": 5}',
        '{"kind": "tabulated", "grid": [["x", 1]]}',
        '{"kind": "laplace", "b": [1]}',
    ])
    def test_rejects(self, bad):
        with pytest.raises(DistributionError):
            from_spec(bad)

    def test_constructor_messages_pass_through(self):
        with pytest.raises(DistributionError, match="^uniform halfwidth must be positive"):
            from_spec('{"kind": "uniform", "a": -1}')


@st.composite
def random_distribution(draw):
    kind = draw(st.sampled_from(["uniform", "laplace", "powerfold", "interval_union"]))
    if kind == "uniform":
        return Uniform(draw(st.floats(0.1, 10)))
    if kind == "laplace":
        return Laplace(draw(st.floats(0.1, 10)))
    if kind == "powerfold":
        return PowerFold(draw(st.floats(0.05, 5)))
    c = draw(st.floats(0.1, 3))
    return IntervalUnionUniform(c, c + draw(st.floats(0.1, 3)))


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(random_distribution(), st.floats(-20, 20))
    def test_symmetry_everywhere(self, dist, x):
        assert abs(float(dist.cdf(x)) + float(dist.cdf(-x)) - 1.0) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(random_distribution(), st.floats(1e-6, 1 - 1e-6))
    def test_quantile_roundtrip_everywhere(self, dist, u):
        assert float(dist.cdf(dist.quantile(u))) == pytest.approx(u, abs=1e-10)


class TestTabulatedFidelity:
    """A table sampled from a smooth law must reproduce its solutions."""

    def test_tabulated_laplace_tracks_continuous_closed_forms(self):
        from rankstop.fullinfo import continuation_value, solve_threshold

        lap = Laplace(1)
        xs = np.concatenate([[0.0], np.geomspace(0.08, 22.0, 23)])
        grid = [[float(x), float(lap.cdf(x))] for x in xs]
        grid[-1][1] = 1.0  # mass beyond 22 is below the atom tolerance
        tab = TabulatedCdf(grid)
        for x in (0.4, 1.0, 2.5, -0.4, -1.0, -2.5):
            if x > 0:
                closed = (15 / 8 + x * math.exp(-x) / 8 + math.exp(-x) / 2
                          - math.exp(-2 * x) / 8)
            else:
                closed = (23 / 8 + x * math.exp(x) / 8 - math.exp(x) / 2
                          - math.exp(2 * x) / 8)
            assert continuation_value(tab, x) == pytest.approx(closed, abs=5e-3)
        assert solve_threshold(tab) == pytest.approx(1.71, abs=2e-2)
