import math
import warnings

import numpy as np
import pytest

from rankstop import fullinfo, numerics, relranks
from rankstop.distributions import (IntervalUnionUniform, Laplace, PowerFold, TabulatedCdf, Uniform,
                                   builtin_suite)
from rankstop.fullinfo import (
    FULL_INNER_CFG,
    THRESHOLD_QUANTILE_BOUND,
    V_LOWER_BOUND,
    V_UPPER_BOUND,
    FullInfoSolution,
    continuation_value,
    full_info_policy,
    lower_bound_check,
    solve_full_info,
    solve_threshold,
    stage2_stop_region,
    stage2_value,
)
from rankstop.numerics import QuadratureConfig
from rankstop.relranks import compute_pq
from rankstop.walkcore import WalkPath, run_policy

UNIFORM = Uniform(1)
LAPLACE = Laplace(1)

UNIFORM_X1 = 2.0 * (math.sqrt(2.0) - 1.0)
UNIFORM_V = 11.0 / 4.0 - math.sqrt(2.0) / 3.0

#: Uniform(1) as six equal pieces, IntervalUnionUniform(1, 2) as a table
#: (flat at 1/2 on [0, 1]), and an irregular law with a flat piece.
UNIFORM6 = TabulatedCdf([[i / 6, 0.5 + i / 12] for i in range(7)])
INTERVAL_TABLE = TabulatedCdf([[0.0, 0.5], [1.0, 0.5], [2.0, 1.0]])
IRREGULAR = TabulatedCdf([[0.0, 0.5], [0.13, 0.61], [0.3, 0.61], [0.71, 0.83], [1.0, 0.9],
                          [1.37, 1.0]])


def w1_uniform_closed(x):
    """Closed-form continuation curve for Uniform(-1, 1)."""
    if x > 0:
        return 9 / 4 - x / 4 - x * x / 16
    return 9 / 4 - 3 * x / 4 - 3 * x * x / 16


def w1_laplace_closed(x):
    """Closed-form continuation curve for the standard two-sided exponential."""
    if x > 0:
        return 15 / 8 + x * math.exp(-x) / 8 + math.exp(-x) / 2 - math.exp(-2 * x) / 8
    return 23 / 8 + x * math.exp(x) / 8 - math.exp(x) / 2 - math.exp(2 * x) / 8


def bisect(h, a, b):
    """The root of h in [a, b], where h changes sign, to the float spacing."""
    negative_at_a = h(a) < 0
    while (m := 0.5 * (a + b)) not in (a, b):
        if (h(m) < 0) == negative_at_a:
            a = m
        else:
            b = m
    return m


#: Laplace(1)'s threshold, where its curve meets 2: (x + 4) e^-x - e^-2x = 1.
LAPLACE_X1 = bisect(lambda x: (x + 4) * math.exp(-x) - math.exp(-2 * x) - 1, 1.0, 2.0)
#: PowerFold(2)'s threshold, the root of 9x^4 - 12x^2 + 16x - 12 in (0, 1).
POWERFOLD2_X1 = bisect(lambda x: 9 * x**4 - 12 * x**2 + 16 * x - 12, 0.0, 1.0)


class TestStage2Value:
    def test_prefix_maximum_stops_at_threehalves(self):
        # both steps up: stop payoff 1.5 always wins
        assert stage2_value(UNIFORM, 0.4, 0.3) == pytest.approx(1.5)

    def test_middle_rank_continue(self):
        # continuation 3.5 - F(-0.2) - F(0.4) = 2.4 beats stopping at 2.5
        value = stage2_value(UNIFORM, 0.6, -0.2)
        assert value == pytest.approx(3.5 - 0.4 - 0.7, abs=1e-12)

    def test_middle_rank_stop(self):
        # fallback below -x1/2: stop payoff 2.5 is weakly better than 2.6
        assert stage2_value(UNIFORM, 0.6, -0.4) == pytest.approx(2.5)

    def test_agrees_with_direct_minimum(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            x1, x2 = rng.uniform(-1, 1, size=2)
            s2 = x1 + x2
            r2 = 1 + (s2 <= 0) + (s2 <= x1)
            direct = min(r2 + 0.5, 3.5 - float(UNIFORM.cdf(x2)) - float(UNIFORM.cdf(s2)))
            assert stage2_value(UNIFORM, x1, x2) == pytest.approx(direct, abs=1e-14)


class TestContinuationCurve:
    def test_uniform_positive_closed_form(self):
        assert continuation_value(UNIFORM, 0.5) == pytest.approx(2.109375, abs=1e-10)

    def test_uniform_negative_closed_form(self):
        assert continuation_value(UNIFORM, -0.5) == pytest.approx(2.578125, abs=1e-10)

    @pytest.mark.parametrize("x", np.linspace(0.02, 0.98, 25))
    def test_uniform_grid(self, x):
        assert continuation_value(UNIFORM, x) == pytest.approx(
            w1_uniform_closed(x), abs=1e-8
        )
        assert continuation_value(UNIFORM, -x) == pytest.approx(
            w1_uniform_closed(-x), abs=1e-8
        )

    def test_laplace_grid_50_points(self):
        xs = np.concatenate([np.linspace(0.05, 5.0, 25), -np.linspace(0.05, 5.0, 25)])
        for x in xs:
            assert continuation_value(LAPLACE, x) == pytest.approx(
                w1_laplace_closed(x), abs=1e-8
            )

    def test_laplace_value_at_one(self):
        expected = 15 / 8 + math.exp(-1) / 8 + math.exp(-1) / 2 - math.exp(-2) / 8
        assert continuation_value(LAPLACE, 1.0) == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(2.0880077, abs=1e-7)

    def test_limit_at_zero_from_right(self):
        for dist in (UNIFORM, LAPLACE):
            assert continuation_value(dist, 1e-9) == pytest.approx(9 / 4, abs=1e-6)

    def test_limit_far_out(self):
        # deep in the tail the two-step value 15/8 is all that remains
        x = LAPLACE.quantile(1 - 1e-10)
        assert continuation_value(LAPLACE, x) == pytest.approx(15 / 8, abs=1e-6)

    def test_splice_continuity_at_zero(self):
        for eps in (1e-4, 1e-6, 1e-8):
            gap = continuation_value(UNIFORM, eps) - continuation_value(UNIFORM, -eps)
            assert abs(gap) < 40 * eps

    def test_positive_branch_nonincreasing(self, builtins):
        for name, dist in builtins.items():
            hi = dist.quantile(1 - 1e-9)
            xs = np.linspace(1e-3 * hi, hi, 60)
            vals = [continuation_value(dist, x) for x in xs]
            assert np.all(np.diff(vals) <= 1e-9), name


class TestThreshold:
    def test_uniform_exact(self):
        assert solve_threshold(UNIFORM) == pytest.approx(UNIFORM_X1, abs=1e-9)

    def test_uniform_root_converges_on_bracket(self):
        # the search stops on its bracket (1e-15 on the exact path of a
        # uniform law), not on a lucky small residual
        assert abs(solve_threshold(UNIFORM) - UNIFORM_X1) <= 1e-12

    def test_laplace(self):
        assert LAPLACE_X1 == pytest.approx(1.71003972434514090690, abs=1e-15)
        # within the root search's x_tol
        assert abs(solve_threshold(LAPLACE) - LAPLACE_X1) <= 1e-13

    def test_laplace_scales(self):
        assert abs(solve_threshold(Laplace(3)) - 3 * LAPLACE_X1) <= 3e-13

    def test_powerfold2(self):
        assert abs(solve_threshold(PowerFold(2)) - POWERFOLD2_X1) <= 1e-13

    def test_residual_contract(self, builtins):
        for name, dist in builtins.items():
            x1s = solve_threshold(dist)
            assert abs(continuation_value(dist, x1s) - 2.0) <= 1e-9, name

    def test_quantile_bound(self, solutions):
        for name, sol in solutions.items():
            assert sol.F_at_threshold >= THRESHOLD_QUANTILE_BOUND - 1e-9, name

    def test_edge_attained_distribution(self):
        # mass bounded away from the origin: the curve only reaches 2 at the
        # support edge, so the whole positive support is the stop region
        dist = IntervalUnionUniform(1, 2)
        x1s = solve_threshold(dist)
        assert x1s == pytest.approx(2.0, abs=1e-6)
        assert float(dist.cdf(x1s)) == pytest.approx(1.0, abs=1e-9)

    def test_no_crossing_above_the_quantile_bound_raises(self, monkeypatch):
        # the scan covers only F(x) >= 1/2 + sqrt(2)/4; a curve that never
        # comes down to 2 there, and not at the support edge, is an error
        def above(dist, xs, cfg):
            xs = np.asarray(xs, dtype=float)
            return np.full(len(xs), 2.5), np.zeros(len(xs)), 0

        monkeypatch.setattr(fullinfo, "_continuation", above)
        with pytest.raises(fullinfo.ThresholdError, match=r"no sign change at u in \[0\.853"):
            solve_threshold(LAPLACE)


class TestValue:
    def test_uniform_closed_form(self, solutions):
        assert solutions["uniform"].value == pytest.approx(UNIFORM_V, abs=1e-8)

    def test_laplace(self, solutions):
        r = LAPLACE_X1
        want = (437 / 192 + (2 * r + 9) * math.exp(-2 * r) / 64 - math.exp(-r) / 16
                - math.exp(-3 * r) / 48)
        assert want == pytest.approx(2.27096254984990081515, abs=1e-15)
        sol = solutions["laplace"]
        assert abs(sol.value - want) <= sol.diagnostics["quadrature_error_bound"]

    def test_powerfold2(self):
        r = POWERFOLD2_X1
        want = 7 / 3 - r**2 / 8 + r**3 / 9 - r**4 / 16 + r**6 / 32
        sol = solve_full_info(PowerFold(2))
        assert abs(sol.value - want) <= sol.diagnostics["quadrature_error_bound"]

    def test_tabulated_repeatable_and_matches_reference(self, builtins, solutions):
        # the outer V integral is cut where knot differences kink the curve
        value = solutions["tabulated"].value
        assert abs(value - solve_full_info(builtins["tabulated"]).value) <= 1e-10
        # a solve that finds those kinks by bisection alone, at outer tolerance 1e-13
        assert abs(value - 2.2778010596610043) <= 1e-10

    def test_panels_counted(self, solutions):
        for name, sol in solutions.items():
            assert sol.diagnostics["panels"] > 0, name
            assert sol.diagnostics["threshold_panels"] > 0, name

    # Panels of V and of the threshold search are deterministic.  Before the
    # graded split toward singular panel edges, V took the panels in the
    # last column (the threshold search was not counted); before panels at
    # break points were integrated through a smoothing substitution, V and
    # the threshold search took the panels in the ``graded`` columns.
    # Before the scan was confined to F(x) >= 1/2 + sqrt(2)/4 (it took 96
    # geometric points on (1e-8 hi, hi]) and the residual at x1* came from
    # the root search, V and the threshold search took 5532 and 1660 panels
    # (laplace), 4072 and 1850 (powerfold 0.5), 4130 and 1689 (2), 12216 and
    # 1489 (4), where V's count includes a separate solve of the curve at x1*.
    # Before every problem started with 8 equal panels whatever its width,
    # and the ends of V's u-range on Laplace were not break points, V and the
    # threshold search took 5516 and 320 panels (laplace), 4056 and 304
    # (powerfold 0.5), 4114 and 320 (2), 12184 and 640 (4).
    @pytest.mark.parametrize("dist, panels, threshold_panels, graded, graded_threshold, bisected", [
        (LAPLACE, 1562, 88, 5518, 1660, 8062),
        (PowerFold(0.5), 567, 142, 8898, 3010, 13016),
        (PowerFold(2), 631, 51, 11630, 2107, 21302),
        (PowerFold(4), 6558, 509, 15292, 1693, 28478),
    ], ids=["laplace", "powerfold0.5", "powerfold2", "powerfold4"])
    def test_panels_pinned(self, dist, panels, threshold_panels, graded, graded_threshold,
                           bisected):
        diagnostics = solve_full_info(dist).diagnostics
        assert diagnostics["panels"] == panels < bisected
        assert diagnostics["threshold_panels"] == threshold_panels
        if isinstance(dist, PowerFold):
            assert panels <= graded and threshold_panels <= graded_threshold
        else:  # the substitution at the kink F(x) may cost Laplace up to 1%
            assert panels <= 1.01 * graded and threshold_panels <= 1.01 * graded_threshold

    def test_threshold_residual_is_the_curve_at_x1(self, builtins, solutions):
        # the residual is the root search's own evaluation at x1*, not a re-solve
        for name, dist in builtins.items():
            sol = solutions[name]
            want = continuation_value(dist, sol.x1_star) - 2.0
            assert sol.diagnostics["threshold_residual"] == want, name

    @pytest.mark.parametrize("delta", [2, 4])
    def test_panels_fall_as_the_tolerance_loosens(self, delta):
        # the outer tolerance follows the flag, so a looser flag never
        # makes V's outer integral chase the curve's noise
        panels = [solve_full_info(PowerFold(delta), QuadratureConfig(tol, tol)).diagnostics["panels"]
                  for tol in (1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)]
        assert panels == sorted(panels, reverse=True)

    @pytest.mark.parametrize("dist", [LAPLACE, PowerFold(0.5), PowerFold(2), PowerFold(4),
                                      PowerFold(0.1), PowerFold(1.5), PowerFold(8)],
                             ids=["laplace", "powerfold0.5", "powerfold2", "powerfold4",
                                  "powerfold0.1", "powerfold1.5", "powerfold8"])
    def test_bound_covers_a_finer_solve(self, dist):
        # No closed form exists for these laws: the reported bounds of a
        # default and a 1e-14 solve must together cover their difference.
        default = solve_full_info(dist)
        fine = solve_full_info(dist, QuadratureConfig(1e-14, 1e-14))
        assert abs(default.value - fine.value) <= (default.diagnostics["quadrature_error_bound"]
                                                   + fine.diagnostics["quadrature_error_bound"])

    @pytest.mark.parametrize("b", [0.3, 5.0])
    def test_laplace_value_does_not_depend_on_the_scale(self, solutions, b):
        # V is scale-free, and the ends 0 and 1 of its u-range are break
        # points whatever the scale
        one = solutions["laplace"]
        scaled = solve_full_info(Laplace(b))
        assert abs(scaled.value - one.value) <= (one.diagnostics["quadrature_error_bound"]
                                                 + scaled.diagnostics["quadrature_error_bound"])
        assert scaled.x1_star / b == pytest.approx(one.x1_star, rel=1e-12)

    def test_upper_bound_attained(self):
        sol = solve_full_info(IntervalUnionUniform(1, 2))
        assert sol.value == pytest.approx(55 / 24, abs=1e-8)

    def test_universal_bounds(self, solutions):
        for name, sol in solutions.items():
            assert V_LOWER_BOUND - 1e-9 <= sol.value <= V_UPPER_BOUND + 1e-9, name

    def test_tolerances_recorded(self, solutions):
        assert solutions["laplace"].diagnostics["tolerances"] == {
            "inner_abs_tol": 1e-12, "inner_rel_tol": 1e-12,
            "outer_abs_tol": 1e-10, "outer_rel_tol": 1e-10,
            "root_x_tol": 1e-13, "root_f_tol": 1e-14,
        }
        cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-8)
        assert solve_full_info(LAPLACE, cfg).diagnostics["tolerances"] == {
            "inner_abs_tol": 1e-9, "inner_rel_tol": 1e-8,
            "outer_abs_tol": 1e-7, "outer_rel_tol": 1e-6,
            "root_x_tol": 1e-13, "root_f_tol": 1e-14,
        }

    def test_exact_path_records_no_quadrature_tolerance(self, solutions):
        # a uniform law is a table: only the threshold's root search has
        # tolerances, tighter than the adaptive path's since its curve is exact
        for name in ("uniform", "tabulated"):
            assert solutions[name].diagnostics["tolerances"] == {
                "root_x_tol": 1e-15, "root_f_tol": 1e-16}, name

    def test_invariants_enforced_on_construction(self):
        with pytest.raises(ValueError):
            FullInfoSolution(x1_star=1.0, value=2.4, F_at_threshold=0.9)
        with pytest.raises(ValueError):
            FullInfoSolution(x1_star=1.0, value=2.28, F_at_threshold=0.6)


class TestExactPiecewiseLinear:
    """A TabulatedCdf is solved by fixed rules on its pieces, exact up to rounding."""

    def test_uniform_table_closed_forms(self):
        sol = solve_full_info(UNIFORM6)
        assert sol.diagnostics["method"] == "exact_piecewise_linear"
        assert abs(sol.x1_star - UNIFORM_X1) <= 1e-15  # the benchmark's tabulated anchor
        assert abs(sol.value - UNIFORM_V) <= 1e-14
        assert 0 < sol.diagnostics["quadrature_error_bound"] <= 1e-13
        assert abs(sol.value - UNIFORM_V) <= sol.diagnostics["quadrature_error_bound"]
        assert sol.diagnostics["panels"] > 0

    # Pieces are deterministic.  With a 3-point rule on V's outer pieces, V
    # took 398 (uniform6) and 334 (built-in table) pieces.
    @pytest.mark.parametrize("dist, pieces, threshold_pieces", [
        (UNIFORM6, 269, 151),
        (builtin_suite()["tabulated"], 227, 120),
    ], ids=["uniform6", "builtin_table"])
    def test_pieces_pinned(self, dist, pieces, threshold_pieces):
        diagnostics = solve_full_info(dist).diagnostics
        assert diagnostics["panels"] == pieces
        assert diagnostics["threshold_panels"] == threshold_pieces

    @pytest.mark.parametrize("dist, scale", [
        (Uniform(10), 10.0),
        (Uniform(1000), 1000.0),
        (TabulatedCdf([[100 * i / 6, 0.5 + i / 12] for i in range(7)]), 100.0),
    ], ids=["uniform10", "uniform1000", "uniform6x100"])
    def test_threshold_scales_to_a_few_ulps(self, dist, scale):
        # x_tol 1e-15 is finer than the float spacing near x1* once x1* > 1;
        # the root search then closes its bracket to a few ulps of x1*
        x1s = solve_threshold(dist)
        assert abs(x1s / scale - UNIFORM_X1) <= 8 * math.ulp(UNIFORM_X1)

    @pytest.mark.parametrize("scale", [10.0, 20.0, 100.0])
    def test_threshold_of_a_steep_scaled_table(self, scale):
        # near x1* of these tables neighbouring floats give curve values on
        # both sides of 2, none equal to it: a search that closed its bracket
        # only to 1e-15 never stopped.  x1* scales with the table.
        def table(s):
            return TabulatedCdf([[0.0, 0.5], [s, 0.8], [2 * s, 1.0]])

        x1s, base = solve_threshold(table(scale)), solve_threshold(table(1.0))
        assert abs(x1s / scale - base) <= 16 * math.ulp(base)  # the curve's rounding

    def test_interval_union_table_attains_upper_bound(self):
        sol = solve_full_info(INTERVAL_TABLE)
        assert abs(sol.value - 55 / 24) <= 1e-14
        assert abs(sol.value - 55 / 24) <= sol.diagnostics["quadrature_error_bound"]

    def test_builtin_anchors_within_bound(self, solutions):
        for name, want in [("uniform", UNIFORM_V), ("interval_union", 55 / 24)]:
            sol = solutions[name]
            assert abs(sol.value - want) <= sol.diagnostics["quadrature_error_bound"]
            assert abs(sol.value - want) <= 1e-15
        assert abs(solutions["uniform"].x1_star - UNIFORM_X1) <= 1e-15

    def test_curve_matches_closed_form(self):
        xs = np.linspace(-0.98, 0.98, 25)
        want = [w1_uniform_closed(x) for x in xs]
        assert np.allclose(fullinfo.continuation_curve(UNIFORM6, xs), want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("dist", [UNIFORM6, IRREGULAR], ids=["uniform6", "irregular"])
    def test_doubling_the_orders_moves_nothing(self, dist, monkeypatch):
        # 2 nodes per piece are exact on the inner and the outer integrals
        base = solve_full_info(dist)
        monkeypatch.setattr(numerics, "_PIECE_RULE", np.polynomial.legendre.leggauss(4))
        high = solve_full_info(dist)
        assert abs(high.x1_star - base.x1_star) <= 4 * math.ulp(base.x1_star)
        assert abs(high.value - base.value) <= 4 * math.ulp(base.value)

    def test_no_adaptive_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("adaptive quadrature called for a TabulatedCdf")

        monkeypatch.setattr(fullinfo, "integrate_batch", refuse)  # both solvers integrate here
        for module in (fullinfo, relranks):
            monkeypatch.setattr(module, "integrate_detailed", refuse)
        assert solve_full_info(IRREGULAR).diagnostics["method"] == "exact_piecewise_linear"
        assert relranks.compute_pq(IRREGULAR).method == "exact_piecewise_linear"
        assert lower_bound_check(IRREGULAR).passed
        with pytest.raises(AssertionError):
            solve_full_info(LAPLACE)

    def test_other_laws_keep_quadrature(self, solutions):
        for name, sol in solutions.items():
            want = "quadrature" if name in ("laplace", "powerfold") else "exact_piecewise_linear"
            assert sol.diagnostics["method"] == want, name


class TestPolicy:
    def test_stop_at_one_inside_threshold(self):
        policy = full_info_policy(UNIFORM, UNIFORM_X1)
        assert policy.decide(1, [0.5]) is True
        assert policy.decide(1, [0.9]) is False
        assert policy.decide(1, [-0.1]) is False

    def test_stage2_examples(self):
        policy = full_info_policy(UNIFORM, UNIFORM_X1)
        # X1 beyond the threshold, fallback into (-X1, -X1/2]: stop
        assert policy.decide(2, [0.9, -0.5]) is True
        # both steps down: running minimum, continue
        assert policy.decide(2, [-0.3, -0.1]) is False
        assert policy.decide(3, [0.1, 0.1, 0.1]) is True

    def test_full_path_runs(self):
        policy = full_info_policy(UNIFORM, UNIFORM_X1)
        tau, rank = run_policy(policy, WalkPath((0.5, -0.9, 0.1)))
        assert tau == 1
        tau, rank = run_policy(policy, WalkPath((-0.3, -0.1, 0.9)))
        assert tau == 3

    def test_stage2_region_matches_value_comparison(self):
        # the closed-form region must equal "stop payoff <= continuation"
        rng = np.random.default_rng(17)
        x1 = rng.uniform(-1, 1, 4000)
        x2 = rng.uniform(-1, 1, 4000)
        region = stage2_stop_region(x1, x2)
        s2 = x1 + x2
        r2 = 1 + (s2 <= 0) + (s2 <= x1)
        stop = r2 + 0.5
        cont = 3.5 - UNIFORM.cdf(x2) - UNIFORM.cdf(s2)
        assert np.array_equal(region, stop <= cont)


class TestLowerBounds:
    @pytest.mark.parametrize("dist", [UNIFORM, LAPLACE], ids=["uniform", "laplace"])
    def test_floor_holds(self, dist):
        report = lower_bound_check(dist)
        assert report.max_violation <= 1e-9
        assert report.passed

    def test_floor_equals_two_at_lemma_point(self):
        # F(1 - F) = 1/8 exactly at F = 1/2 + sqrt(2)/4, so the floor hits 2
        f = THRESHOLD_QUANTILE_BOUND
        assert 15 / 8 + f * (1 - f) == pytest.approx(2.0, abs=1e-15)

    def test_negative_floor_random_points(self):
        rng = np.random.default_rng(1)
        for x in -rng.uniform(0.01, 0.99, 100):
            fx = float(UNIFORM.cdf(x))
            fh = float(UNIFORM.cdf(x / 2))
            floor = 23 / 8 - fx - fh / 2 + fh * fh / 2
            assert continuation_value(UNIFORM, x) >= floor - 1e-9


class TestPolicyValueConsistency:
    def test_simulated_policy_matches_solved_value_every_builtin(self, builtins, solutions):
        from rankstop.simulate import SimConfig, estimate_expected_rank

        for i, (name, dist) in enumerate(builtins.items()):
            sol = solutions[name]
            policy = full_info_policy(dist, sol.x1_star)
            cfg = SimConfig(n_paths=10**6, horizon=3, seed=300 + i)
            res = estimate_expected_rank(dist, policy, cfg)
            assert abs(res.mean_rank - sol.value) <= 3 * res.std_error, name


class TestScaleInvariance:
    def test_value_is_scale_free_and_threshold_scales(self):
        # ranks are invariant under monotone maps, so rescaling the step law
        # rescales the threshold and leaves the value untouched
        base = solve_full_info(Uniform(1))
        scaled = solve_full_info(Uniform(3))
        assert scaled.value == pytest.approx(base.value, abs=1e-8)
        assert scaled.x1_star == pytest.approx(3 * base.x1_star, abs=1e-7)

    def test_laplace_scale(self):
        base = solve_full_info(Laplace(1))
        scaled = solve_full_info(Laplace(0.5))
        assert scaled.value == pytest.approx(base.value, abs=1e-8)
        assert scaled.x1_star == pytest.approx(0.5 * base.x1_star, abs=1e-7)


class TestIntegrate:
    @pytest.mark.parametrize("dist, panels", [(UNIFORM, 1), (LAPLACE, 4)],
                             ids=["exact", "adaptive"])
    def test_reversed_range_is_empty(self, dist, panels):
        # a table takes one piece on [0.2, 0.6], any other law 4 starting panels
        vals, bounds, n = fullinfo._integrate(dist, lambda u, i: np.ones_like(u),
                                              [0.7, 0.2], [0.4, 0.6], None, FULL_INNER_CFG)
        assert (vals[0], bounds[0], n[0]) == (0.0, 0.0, 0)
        assert vals[1] == pytest.approx(0.4, abs=1e-14) and n[1] == panels


class TestInfiniteQuantileEnds:
    """On Laplace Q(0) = -inf and Q(1) = +inf.  An outer node rounds onto u = 0
    or 1 in a panel narrower than the float spacing there; the outer
    integrands must give their limits at those ends, not NaN."""

    @staticmethod
    def outer_integrand_at(monkeypatch, module, solve, us):
        """``solve(LAPLACE)`` with ``module._u_integrals`` also evaluating its
        outer integrand at ``us``, RuntimeWarnings raised; those values."""
        seen = []
        real = module._u_integrals

        def probe(dist, g, lo, hi, kinks, cfg):
            seen.append(g(np.array(us), np.zeros(len(us), dtype=np.int64)))
            return real(dist, g, lo, hi, kinks, cfg)

        monkeypatch.setattr(module, "_u_integrals", probe)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            solve(LAPLACE)
        (values,) = seen
        return list(values)

    def test_v_integrand_is_the_curve_limits(self, monkeypatch):
        # the continuation curve far left and far right, up to the rounding
        # of the quadrature rule
        assert self.outer_integrand_at(monkeypatch, fullinfo, solve_full_info,
                                       [0.0, 1.0]) == pytest.approx([23 / 8, 15 / 8], abs=1e-14)

    def test_q_integrand_vanishes_at_one(self, monkeypatch):
        # I(Q(1)) = I(+inf): no s in (0, 1/2) has Q(s) above +inf
        assert self.outer_integrand_at(monkeypatch, relranks, compute_pq, [1.0]) == [0.0]


def test_attributes_patched_by_the_tracer_exist():
    # perfbench/tracer.py wraps these module attributes by name; neither
    # module calls integrate_detailed, but removing it breaks every traced run.
    for module, name in [(fullinfo, "integrate_detailed"), (relranks, "integrate_detailed"),
                         (fullinfo, "find_root")]:
        assert callable(getattr(module, name)), f"{module.__name__}.{name}"
