import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankstop import numerics
from rankstop.distributions import Uniform
from rankstop.fullinfo import FULL_INNER_CFG, continuation_value
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

    def test_budget_exhausted_carries_estimate(self):
        cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=4)
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
        cfg = QuadratureConfig(abs_tol=2.5e-12, rel_tol=1e-6, max_subdivisions=7)
        assert cfg.outer() == QuadratureConfig(abs_tol=2.5e-10, rel_tol=1e-4, max_subdivisions=7)

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

    def test_small_budget_raises_with_estimate(self):
        cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=4)

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
    u = a + H t^2 (u = b - H (1 - t)^2 at the right end, the smoothstep at
    both), which turns a singularity (u - a)^(1/2) there into a
    polynomial.  A panel whose marked ends are only problem ends keeps the
    plain rule."""

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
        # many problems with many cuts: split into several blocks of
        # problems, none of whose integrand calls exceeds _BLOCK_NODES
        rng = np.random.default_rng(2)
        m, k = 300, 40
        s = rng.uniform(0.0, 1.0, (m, k))
        sizes = []

        def f(u, i):
            sizes.append(u.size)
            return u * i

        whole = integrate_pieces(f, np.zeros(m), np.ones(m), s)
        assert max(sizes) <= numerics._BLOCK_NODES
        monkeypatch.setattr(numerics, "_BLOCK_CUTS", 3 * (k + 2))
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


class TestFindRoot:
    def test_sqrt2(self):
        root = find_root(lambda x: x * x - 2.0, 1.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_identity_through_zero(self):
        assert find_root(lambda x: x, -1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_continuation_curve_threshold(self):
        # root of the first-step continuation curve at level 2 for Uniform(-1, 1)
        dist = Uniform(1)
        root = find_root(
            lambda x: continuation_value(dist, x) - 2.0, 0.1, 0.999,
            RootConfig(x_tol=1e-13, f_tol=1e-11),
        )
        assert root == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), abs=1e-9)

    @pytest.mark.parametrize("c", [80.0, 1e6 + 1.0])
    def test_x_tol_below_float_spacing(self, c):
        # no float x has x * x == c, and neighbouring floats near sqrt(c) lie
        # farther apart than x_tol: the bracket stops at float resolution
        root = find_root(lambda x: x * x - c, 0.0, c, RootConfig(x_tol=1e-15, f_tol=1e-16))
        assert abs(root - math.sqrt(c)) <= 2 * math.ulp(math.sqrt(c))

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_endpoint_root(self):
        assert find_root(lambda x: x - 1.0, 1.0, 2.0) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-5, 5), st.floats(0.01, 5), st.floats(0.1, 4))
    def test_result_inside_bracket(self, center, halfwidth, scale):
        lo, hi = center - halfwidth, center + halfwidth

        def f(x):
            return scale * (x - center) ** 3 + 0.5 * (x - center)

        root = find_root(f, lo, hi)
        assert lo <= root <= hi
        assert root == pytest.approx(center, abs=1e-9)
