import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankstop import numerics
from rankstop.distributions import Uniform
from rankstop.fullinfo import FULL_INNER_CFG, continuation_curve
from rankstop.numerics import (
    BracketError,
    QuadratureConfig,
    QuadratureError,
    RootConfig,
    find_root,
    integrate_batch,
    integrate_detailed,
    integrate_pieces,
    tolerance_record,
)
from rankstop.relranks import PQ_INNER_CFG


class TestIntegrate:
    def test_linear_slices(self):
        # the two halves of the unit-square triangle integral
        assert integrate_detailed(lambda u: u, 0.0, 0.5)[0] == pytest.approx(1 / 8, abs=1e-12)
        assert integrate_detailed(lambda u: u, 0.5, 1.0)[0] == pytest.approx(3 / 8, abs=1e-12)

    def test_iterated_positive_part(self):
        def inner(v):
            return integrate_detailed(lambda u: np.maximum(1.0 - u - v, 0.0), 0.0, 1.0)[0]

        val = integrate_detailed(lambda vs: np.array([inner(v) for v in vs]), 0.0, 1.0)[0]
        assert val == pytest.approx(1 / 6, abs=1e-8)

    def test_high_degree_polynomial(self):
        assert integrate_detailed(lambda x: x**12, 0.0, 1.0)[0] == pytest.approx(1 / 13, rel=1e-13)

    def test_empty_interval(self):
        assert integrate_detailed(lambda x: x, 2.0, 2.0)[0] == 0.0

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            integrate_detailed(lambda x: x, 1.0, 0.0)

    def test_budget_exhausted_carries_estimate(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_SPLITS", 4)
        cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15)
        with pytest.raises(QuadratureError) as info:
            integrate_detailed(lambda x: np.abs(np.sin(40.0 * x)), 0.0, 3.0, cfg)
        err = info.value
        # the partial answer is still in the right neighbourhood of 3 * (2/pi)
        assert err.estimate == pytest.approx(6.0 / math.pi, rel=0.2)
        assert err.error_bound > 0

    def test_break_points_make_kinks_exact(self):
        val, bound, _ = integrate_detailed(
            lambda x: np.abs(x - 0.3), 0.0, 1.0, break_points=[0.3]
        )
        assert val == pytest.approx(0.3**2 / 2 + 0.7**2 / 2, abs=1e-14)

    def test_error_bound_reported(self):
        _, bound, panels = integrate_detailed(lambda x: np.exp(x), 0.0, 1.0)
        assert bound < 1e-9
        assert panels >= 8

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-3, 3), min_size=2, max_size=5),
        st.lists(st.floats(-3, 3), min_size=2, max_size=5),
        st.floats(-2, 2),
        st.floats(-2, 2),
    )
    def test_linearity(self, cf, cg, alpha, beta):
        f = np.polynomial.Polynomial(cf)
        g = np.polynomial.Polynomial(cg)
        combo = integrate_detailed(lambda x: alpha * f(x) + beta * g(x), -1.0, 2.0)[0]
        parts = (alpha * integrate_detailed(f, -1.0, 2.0)[0]
                 + beta * integrate_detailed(g, -1.0, 2.0)[0])
        assert abs(combo - parts) < 10 * 1e-10 * (1 + abs(alpha) + abs(beta))


class TestConfigs:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_invalid_tolerances_rejected(self, bad):
        for make in (lambda t: QuadratureConfig(abs_tol=t), lambda t: QuadratureConfig(rel_tol=t),
                     lambda t: RootConfig(x_tol=t), lambda t: RootConfig(f_tol=t)):
            with pytest.raises(ValueError, match="positive and finite"):
                make(bad)

    def test_outer_is_two_decades_looser(self):
        # exactly the tolerances written, where 100 * 1e-13 is 1.0000000000000001e-11
        assert FULL_INNER_CFG.outer() == QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10)
        assert PQ_INNER_CFG.outer() == QuadratureConfig(abs_tol=1e-11, rel_tol=1e-11)
        cfg = QuadratureConfig(abs_tol=2.5e-12, rel_tol=1e-6)
        assert cfg.outer() == QuadratureConfig(abs_tol=2.5e-10, rel_tol=1e-4)

    def test_tolerance_record(self):
        assert tolerance_record(inner=QuadratureConfig(1e-9, 1e-8), root=RootConfig(1e-7, 1e-6)) == {
            "inner_abs_tol": 1e-9, "inner_rel_tol": 1e-8, "root_x_tol": 1e-7, "root_f_tol": 1e-6}
        assert tolerance_record() == {}


class TestIntegrateBatch:
    # Problem i integrates |u - s_i| + u^5 on [a_i, b_i], kinked at s_i.
    A = np.array([0.0, -1.0, 0.3, 2.0, 0.0])
    B = np.array([1.0, 2.0, 0.3, 2.0, 3.0])
    S = np.array([0.25, 0.5, 0.3, 2.0, 1.7])

    def integrand(self, u, i):
        return np.abs(u - self.S[i]) + u**5

    def test_each_problem_matches_one_problem_call(self):
        cuts = np.column_stack([self.S, np.full(len(self.S), np.nan)])
        vals, errs, panels = integrate_batch(self.integrand, self.A, self.B, break_points=cuts)
        for i in range(len(self.A)):
            one, _, n = integrate_detailed(lambda u: self.integrand(u, i), self.A[i], self.B[i],
                                           break_points=[self.S[i]])
            assert vals[i] == pytest.approx(one, abs=1e-12)
            assert panels[i] == n
        assert np.all(errs <= 1e-10 + 1e-10 * np.abs(vals))
        # zero-width problems cost nothing and integrate to exactly 0
        assert vals[2] == vals[3] == 0.0 and panels[2] == panels[3] == 0

    def test_refined_problems_match_one_problem_calls(self):
        # no break points: the kinks are found by bisection, problem by problem
        vals, _, _ = integrate_batch(self.integrand, self.A, self.B)
        for i in range(len(self.A)):
            exact = integrate_detailed(lambda u: self.integrand(u, i), self.A[i], self.B[i],
                                       break_points=[self.S[i]])[0]
            assert abs(vals[i] - exact) <= 1e-10 + 1e-10 * abs(exact)

    def test_starting_panels_follow_the_width(self):
        # ceil(8 w) equal panels, at least 1 and at most 8: a linear
        # integrand converges on its starting mesh, so panels count that mesh
        a = np.array([0.0, 0.0, 0.25, 0.5, 0.0])
        b = a + np.array([3.0, 1.0, 0.5, 0.05, 1e9])
        vals, _, panels = integrate_batch(lambda u, i: u, a, b)
        assert list(panels) == [8, 8, 4, 1, 8]
        assert vals == pytest.approx(0.5 * (b * b - a * a), rel=1e-14)

    def test_no_problems(self):
        calls = []
        for cuts in (None, np.zeros((0, 3))):
            vals, errs, panels = integrate_batch(lambda u, i: calls.append(u) or u, [], [],
                                                 break_points=cuts)
            assert vals.shape == errs.shape == panels.shape == (0,)
        assert not calls

    def test_integrand_never_gets_more_than_one_block(self):
        sizes = []
        m = 800  # 6,400 starting panels

        def f(u, i):
            sizes.append(u.size)
            return np.sqrt(np.abs(u - i / m))

        integrate_batch(f, np.zeros(m), np.ones(m))
        block = numerics._BLOCK_PANELS * 15
        assert max(sizes) == block
        assert sum(sizes) > 10 * block

    def test_small_budget_raises_with_estimate(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_SPLITS", 4)
        cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15)

        def f(u, i):
            return np.where(i == 0, u, np.abs(np.sin(40.0 * u)))

        with pytest.raises(QuadratureError) as info:
            integrate_batch(f, [0.0, 0.0], [1.0, 3.0], cfg)
        assert "problem 1" in str(info.value)
        assert info.value.estimate == pytest.approx(6.0 / math.pi, rel=0.2)
        assert info.value.error_bound > 0

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            integrate_batch(lambda u, i: u, [0.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            integrate_batch(lambda u, i: u, [0.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            integrate_batch(lambda u, i: u, [0.0, 1.0], [1.0, 2.0], break_points=[0.5, 1.5])


class TestGradedRefinement:
    """A panel that holds most of its problem's error and touches a problem
    end or a break point is split close to that point; every other panel is
    bisected.  ``bisected`` is the panel count when every panel is bisected."""

    CFG = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13)

    @pytest.mark.parametrize("f, a, b, cuts, exact, bisected", [
        (np.sqrt, 0.0, 1.0, None, 2.0 / 3.0, 44),
        (np.log, 0.0, 1.0, None, -1.0, 80),
        (lambda u: np.sqrt(np.abs(u - 0.3)), 0.0, 1.0, [0.3], (0.3**1.5 + 0.7**1.5) / 1.5, 83),
    ], ids=["sqrt", "log", "sqrt_at_break_point"])
    def test_endpoint_singularities_take_fewer_panels(self, f, a, b, cuts, exact, bisected):
        val, bound, panels = integrate_detailed(f, a, b, self.CFG, break_points=cuts)
        assert abs(val - exact) <= bound <= 1e-13 * (1 + abs(val))
        assert panels < bisected

    @pytest.mark.parametrize("f, a, b, exact, bisected", [
        (np.exp, 0.0, 1.0, math.e - 1.0, 8),
        (lambda u: np.cos(20.0 * u), 0.0, 3.0, math.sin(60.0) / 20.0, 54),
        (lambda u: 1.0 / (1.0 + 25.0 * u * u), -1.0, 1.0, 0.4 * math.atan(5.0), 18),
    ], ids=["exp", "cos20", "runge"])
    def test_smooth_integrands_take_no_more_panels(self, f, a, b, exact, bisected):
        val, bound, panels = integrate_detailed(f, a, b, self.CFG)
        assert abs(val - exact) <= bound
        assert panels <= bisected


class TestSmoothingSubstitution:
    """A panel with a break point at an end is integrated through
    u = a + H t^d (u = b - H (1 - t)^d at the right end, the smoothstep at
    both), d = 2 unless the break point declares another degree, which
    turns a singularity (u - a)^(1/d) there into a polynomial.  A panel
    whose marked ends are only problem ends or break points of degree 0
    keeps the plain rule."""

    CFG = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13)

    # ``panels`` with the break point; ``without`` without it, where the
    # graded split alone resolves the singularity.  u^(1/4) becomes
    # t^(3/2), still singular, and gains least.
    @pytest.mark.parametrize("f, cut, exact, panels, without", [
        (np.sqrt, 0.0, 2.0 / 3.0, 8, 36),
        (lambda u: np.sqrt(np.abs(u - 0.3)), 0.3, (0.3**1.5 + 0.7**1.5) / 1.5, 13, 74),
        (lambda u: u**0.25, 0.0, 0.8, 42, 44),
    ], ids=["sqrt_at_problem_end", "sqrt_at_break_point", "fourth_root_at_problem_end"])
    def test_singular_ends_at_break_points(self, f, cut, exact, panels, without):
        val, bound, n = integrate_detailed(f, 0.0, 1.0, self.CFG, break_points=[cut])
        assert abs(val - exact) <= bound <= 1e-13 * (1 + abs(val))
        assert n == panels
        assert integrate_detailed(f, 0.0, 1.0, self.CFG)[2] == without

    # Value, bound and panels with no break point, bit for bit as before
    # the substitution.
    @pytest.mark.parametrize("f, a, b, result", [
        (np.exp, 0.0, 1.0, (1.71828182845904, 6.106226635438361e-15, 8)),
        (lambda u: np.cos(20.0 * u), 0.0, 3.0,
         (-0.015240531055110834, 1.2831315870931448e-14, 54)),
        (lambda u: 1.0 / (1.0 + 25.0 * u * u), -1.0, 1.0,
         (0.5493603067780046, 1.3153887701289335e-13, 18)),
    ], ids=["exp", "cos20", "runge"])
    def test_no_break_points_change_nothing(self, f, a, b, result):
        assert integrate_detailed(f, a, b, self.CFG) == result

    def solo(self, f, a, b, cut, degree):
        """(value, bound, panels) of f on [a, b] with one break point of a degree."""
        vals, bounds, panels = integrate_batch(lambda u, _: f(u), [a], [b], self.CFG,
                                               [[cut]], [degree])
        return float(vals[0]), float(bounds[0]), int(panels[0])

    def test_declared_degree_makes_the_fourth_root_a_polynomial(self):
        # u^(1/4) under u = t^4 is 4 t^4, which the starting panels integrate
        # exactly; t^2 leaves t^(3/2) and takes 42 panels (above)
        val, bound, n = self.solo(lambda u: u**0.25, 0.0, 1.0, 0.0, 4)
        assert abs(val - 0.8) <= bound <= 1e-13
        assert n == 8

    def test_degree_zero_is_a_panel_edge_with_the_plain_rule(self):
        # |u - 0.3| cut at 0.3: its nine starting panels are exact, and with
        # degree 0 each is integrated as the plain rule integrates it alone
        def f(u):
            return np.abs(u - 0.3)

        ends = np.array([0.0, 0.125, 0.25, 0.3, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0])
        vals, bounds, panels = integrate_batch(lambda u, _: f(u), ends[:-1], ends[1:], self.CFG)
        assert list(panels) == [1] * 9
        plain = (sum(vals.tolist()), sum(bounds.tolist()), 9)
        assert self.solo(f, 0.0, 1.0, 0.3, 0) == plain
        assert self.solo(f, 0.0, 1.0, 0.3, 2) != plain
        # the value is also the sum of two plain problems split at 0.3
        halves = [integrate_detailed(f, a, b, self.CFG)[0] for a, b in ((0.0, 0.3), (0.3, 1.0))]
        assert plain[0] == halves[0] + halves[1]

    def test_repeated_point_takes_the_largest_degree(self):
        # the kink and the degree-4 copy of 0 make one break point of degree 4
        def f(u, _):
            return u**0.25

        for cuts, degrees in [([0.0, 0.0], [0, 4]), ([0.0, 0.0], [4, 0]), ([0.0], [4])]:
            assert integrate_batch(f, [0.0], [1.0], self.CFG, [cuts], degrees)[2][0] == 8
        assert integrate_batch(f, [0.0], [1.0], self.CFG, [[0.0]], [0])[2][0] == 44

    @pytest.mark.parametrize("degrees", [[1], [9], [-2], [2.5], [2, 2], [[2]]])
    def test_bad_degrees(self, degrees):
        with pytest.raises(ValueError, match="degree"):
            integrate_batch(lambda u, _: u, [0.0], [1.0], self.CFG, [[0.5]], degrees)

    def test_batch_mixes_substituted_and_plain_problems(self):
        # problem 0 has a break point at its left end, problem 1 none
        fs = [np.sqrt, np.exp]
        cuts = np.array([[0.0], [np.nan]])
        vals, bounds, panels = integrate_batch(lambda u, i: np.where(i == 0, np.sqrt(u), np.exp(u)),
                                               [0.0, 0.0], [1.0, 1.0], self.CFG, break_points=cuts)
        for i, f in enumerate(fs):
            solo = integrate_detailed(f, 0.0, 1.0, self.CFG,
                                      break_points=None if np.isnan(cuts[i, 0]) else cuts[i])
            assert (vals[i], bounds[i], panels[i]) == solo


class TestIntegratePieces:
    # Problem i integrates |u - s_i| + u^3 on [a_i, b_i]: a polynomial of
    # degree 3 on either side of s_i, so two nodes per piece are exact.
    A = np.array([0.0, -1.0, 0.3, 2.0, 0.0])
    B = np.array([1.0, 2.0, 0.3, 2.0, 3.0])
    S = np.array([0.25, 0.5, 0.3, 2.0, 1.7])
    CUTS = np.column_stack([S, np.full(len(S), np.nan)])

    def integrand(self, u, i):
        return np.abs(u - self.S[i]) + u**3

    def exact(self):
        def antiderivative(x, s):
            return np.where(x < s, s * x - x * x / 2, x * x / 2 - s * x + s * s) + x**4 / 4

        return antiderivative(self.B, self.S) - antiderivative(self.A, self.S)

    def test_piecewise_polynomials_exact(self):
        vals, bounds, panels = integrate_pieces(self.integrand, self.A, self.B, self.CUTS)
        exact = self.exact()
        assert np.all(np.abs(vals - exact) <= bounds)
        assert np.all(np.abs(vals - exact) <= 1e-13 * (1 + np.abs(exact)))
        assert list(panels) == [2, 2, 0, 0, 2]
        # zero-width problems cost nothing and integrate to exactly 0
        assert vals[2] == vals[3] == 0.0
        assert np.all(bounds[[0, 1, 4]] > 0)

    def test_rule_is_two_point_gauss_legendre(self):
        for got, want in zip(numerics._PIECE_RULE, np.polynomial.legendre.leggauss(2)):
            assert got.tobytes() == want.tobytes()

    def test_doubling_the_order_moves_nothing(self, monkeypatch):
        low = integrate_pieces(self.integrand, self.A, self.B, self.CUTS)[0]
        monkeypatch.setattr(numerics, "_PIECE_RULE", np.polynomial.legendre.leggauss(4))
        high = integrate_pieces(self.integrand, self.A, self.B, self.CUTS)[0]
        assert np.all(np.abs(high - low) <= 4 * np.spacing(np.abs(low)))

    def test_blocks_bound_every_call(self, monkeypatch):
        # many problems with many cuts: no integrand call exceeds
        # _BLOCK_NODES (the rows a call takes are its caller's to bound)
        rng = np.random.default_rng(2)
        m, k = 300, 40
        s = rng.uniform(0.0, 1.0, (m, k))
        sizes = []

        def f(u, i):
            sizes.append(u.size)
            return u * i

        whole = integrate_pieces(f, np.zeros(m), np.ones(m), s)
        assert max(sizes) <= numerics._BLOCK_NODES
        monkeypatch.setattr(numerics, "_BLOCK_NODES", 10)
        sizes.clear()
        blocked = integrate_pieces(f, np.zeros(m), np.ones(m), s)
        assert max(sizes) <= 10
        for got, want in zip(blocked, whole):
            assert np.allclose(got, want, rtol=1e-14, atol=0)
        assert np.allclose(whole[0], 0.5 * np.arange(m), rtol=1e-14, atol=0)
        assert np.all(whole[2] == k + 1)

    def test_no_problems(self):
        calls = []
        vals, bounds, panels = integrate_pieces(lambda u, i: calls.append(u) or u, [], [],
                                                np.zeros((0, 3)))
        assert vals.shape == bounds.shape == panels.shape == (0,)
        assert not calls

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            integrate_pieces(lambda u, i: u, [0.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            integrate_pieces(lambda u, i: u, [0.0, 1.0], [1.0, 2.0], break_points=[0.5, 1.5])
        with pytest.raises(TypeError):
            integrate_pieces(lambda u, i: u[:1], [0.0], [1.0])


def exact(g):
    """A root function of ``find_root`` from a vectorized ``g`` that is
    exact up to its rounding: its values and bounds of 0."""
    def f(xs):
        v = g(np.asarray(xs, dtype=float))
        return v, np.zeros(len(v))
    return f


def covers(found, exact_root):
    """Whether ``find_root``'s (root, residual, bound) covers |root - exact_root|."""
    root, _, bound = found
    return abs(root - exact_root) <= bound


class TestFindRoot:
    def test_sqrt2(self):
        found = find_root(exact(lambda x: x * x - 2.0), (1.0, 2.0))
        assert found[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert covers(found, math.sqrt(2.0))

    def test_identity_through_zero(self):
        found = find_root(exact(lambda x: x), (-1.0, 1.0))
        assert found[0] == pytest.approx(0.0, abs=1e-12)
        assert covers(found, 0.0)

    def test_continuation_curve_threshold(self):
        # root of the first-step continuation curve at level 2 for Uniform(-1, 1),
        # whose values round at the scale of 2
        dist = Uniform(1)

        def f(xs):
            return continuation_curve(dist, xs) - 2.0, np.full(len(xs), 8.0 * numerics._EPS)

        found = find_root(f, (0.1, 0.999), cfg=RootConfig(x_tol=1e-13, f_tol=1e-11))
        assert found[0] == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), abs=1e-9)
        assert covers(found, 2.0 * (math.sqrt(2.0) - 1.0))

    @pytest.mark.parametrize("c", [80.0, 1e6 + 1.0])
    def test_x_tol_below_float_spacing(self, c):
        # no float x has x * x == c, and neighbouring floats near sqrt(c) lie
        # farther apart than x_tol: the bracket stops at float resolution
        found = find_root(exact(lambda x: x * x - c), (0.0, c),
                          cfg=RootConfig(x_tol=1e-15, f_tol=1e-16))
        assert abs(found[0] - math.sqrt(c)) <= 2 * math.ulp(math.sqrt(c))
        assert covers(found, math.sqrt(c))

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(exact(lambda x: x * x + 1.0), (-1.0, 1.0))

    def test_endpoint_root(self):
        calls = []

        def f(xs):
            calls.append(xs)
            return xs - 1.0, np.zeros(len(xs))

        assert find_root(f, (1.0, 2.0)) == (1.0, 0.0, 0.0)
        assert len(calls) == 1  # the ends, and nothing more

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_names_the_point(self, bad):
        # a band of NaN or infinite values around the root
        def f(xs):
            return np.where(np.abs(xs - 0.3) < 0.05, bad, 0.3 - xs), np.zeros(len(xs))

        with pytest.raises(ValueError, match=r"not finite at x=0\.2999:"):
            find_root(f, (0.0, 1.0), guess=0.3)
        with pytest.raises(ValueError, match=r"not finite at x=1\.0"):
            find_root(f, (0.0, 1.0), [0.3, bad], [0.0, 0.0])

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-5, 5), st.floats(0.01, 5), st.floats(0.1, 4))
    def test_result_inside_bracket(self, center, halfwidth, scale):
        lo, hi = center - halfwidth, center + halfwidth

        def f(x):
            cube, line = scale * (x - center) ** 3, 0.5 * (x - center)
            # each term rounds, and one below the float range rounds to 0
            return cube + line, 4.0 * numerics._EPS * (np.abs(cube) + np.abs(line)) + math.ulp(0.0)

        found = find_root(f, (lo, hi))
        assert lo <= found[0] <= hi
        assert found[0] == pytest.approx(center, abs=1e-9)
        assert covers(found, center)
