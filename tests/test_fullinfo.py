import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from rankstop import fullinfo, numerics, relranks
from rankstop.distributions import (IntervalUnionUniform, Laplace, PowerFold, SymmetricDistribution,
                                   TabulatedCdf, Uniform, builtin_suite)
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
)
from rankstop.numerics import QuadratureConfig
from rankstop.relranks import compute_pq
from rankstop.walkcore import PQ_SUM, permutation_table, rank_policy_a
from test_table_oracle import SLOW_CROSSING, Table, knot_grid
from test_tabulated_crosscheck import Delegate
from test_walkcore import WalkPath, decide, run_policy

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


def scaled_table(s):
    """The built-in table with every x times s."""
    return TabulatedCdf([[x * s, f] for x, f in builtin_suite()["tabulated"].spec()["grid"]])


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
#: Laplace(1)'s V, by its threshold.
LAPLACE_V = (437 / 192 + (2 * LAPLACE_X1 + 9) * math.exp(-2 * LAPLACE_X1) / 64
             - math.exp(-LAPLACE_X1) / 16 - math.exp(-3 * LAPLACE_X1) / 48)
#: PowerFold(2)'s threshold, the root of 9x^4 - 12x^2 + 16x - 12 in (0, 1).
POWERFOLD2_X1 = bisect(lambda x: 9 * x**4 - 12 * x**2 + 16 * x - 12, 0.0, 1.0)
#: PowerFold(3)'s and (4)'s thresholds, the roots in (0, 1) of 160 (2 - W+)
#: and 560 (2 - W+), and V of PowerFold(2, 3, 4) as polynomials in r = x1*,
#: by delta.
POWERFOLD_X1 = {
    3: bisect(lambda x: 19 * x**6 + 40 * x**3 - 90 * x**2 + 72 * x - 40, 0.0, 1.0),
    4: bisect(lambda x: 73 * x**8 - 140 * x**4 + 448 * x**3 - 560 * x**2 + 320 * x - 140,
              0.0, 1.0),
}
POWERFOLD_V = {
    2: lambda r: 7 / 3 - r**2 / 8 + r**3 / 9 - r**4 / 16 + r**6 / 32,
    3: lambda r: (7 / 3 - r**3 / 8 + 27 * r**4 / 160 - 27 * r**5 / 160 + r**6 / 16
                  + 19 * r**9 / 960),
    4: lambda r: (7 / 3 - r**4 / 8 + 8 * r**5 / 35 - r**6 / 3 + 8 * r**7 / 35 - r**8 / 16
                  + 73 * r**12 / 3360),
}


def stage2_value(dist: SymmetricDistribution, x1: float, x2: float) -> float:
    """Best expected rank after observing the first two steps.

    The stop payoff is the relative rank of S_2 plus 1/2 for the remaining
    step; the continuation payoff is 3.5 - F(x2) - F(x1 + x2).
    """
    s1, s2 = x1, x1 + x2
    r2 = 1 + (s2 <= 0.0) + (s2 <= s1)
    stop = r2 + 0.5
    cont = 3.5 - float(dist.cdf(x2)) - float(dist.cdf(x1 + x2))
    return min(stop, cont)


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

    @pytest.mark.parametrize("dist, w1, hi", [(UNIFORM, w1_uniform_closed, 0.98),
                                              (LAPLACE, w1_laplace_closed, 5.0)],
                             ids=["uniform", "laplace"])
    def test_excess_within_its_bound_on_both_signs(self, dist, w1, hi):
        xs = np.linspace(-hi, hi, 26)
        values, bounds, _ = fullinfo._excess(fullinfo._Law(dist), xs, FULL_INNER_CFG)
        for x, value, bound in zip(xs, values, bounds):
            assert abs(value - (w1(x) - 2.0)) <= bound, x

    @pytest.mark.parametrize("dist", [UNIFORM, LAPLACE], ids=["uniform", "laplace"])
    def test_excess_limits_at_zero(self, dist):
        # both branches meet at 9/4 - 2, the x <= 0 one at 0 itself
        xs = np.array([-(2.0 ** -1000), 0.0, 2.0 ** -1000])
        values, bounds, _ = fullinfo._excess(fullinfo._Law(dist), xs, FULL_INNER_CFG)
        assert np.all(np.abs(values - 0.25) <= bounds)

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
        # the root of the curve's quadratic piece, not a point with a lucky
        # small residual
        assert abs(solve_threshold(UNIFORM) - UNIFORM_X1) <= 1e-12

    def test_laplace(self):
        assert LAPLACE_X1 == pytest.approx(1.71003972434514090690, abs=1e-15)
        # within the root search's x_tol
        assert abs(solve_threshold(LAPLACE) - LAPLACE_X1) <= 1e-13

    def test_laplace_scales(self):
        assert abs(solve_threshold(Laplace(3)) - 3 * LAPLACE_X1) <= 3e-13

    def test_powerfold2(self):
        assert abs(solve_threshold(PowerFold(2)) - POWERFOLD2_X1) <= 1e-13

    @pytest.mark.parametrize("delta, want", [(3, 0.99190127982356562459),
                                             (4, 0.99822849160261625457)], ids=["delta3", "delta4"])
    def test_powerfold3_and_4(self, delta, want):
        assert POWERFOLD_X1[delta] == pytest.approx(want, abs=1e-15)
        assert abs(solve_threshold(PowerFold(delta)) - POWERFOLD_X1[delta]) <= 1e-13

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
        def above(dist, xs, cfg):  # a curve at 2.5, minus 2
            xs = np.asarray(xs, dtype=float)
            return np.full(len(xs), 0.5), np.zeros(len(xs)), 0

        monkeypatch.setattr(fullinfo, "_excess", above)
        for dist in (LAPLACE, UNIFORM6):  # the scan, and a table's one batch
            with pytest.raises(fullinfo.ThresholdError, match=r"no sign change at u in \[0\.853"):
                solve_threshold(dist)


class TestValue:
    def test_uniform_closed_form(self, solutions):
        assert solutions["uniform"].value == pytest.approx(UNIFORM_V, abs=1e-8)

    def test_laplace(self, solutions):
        assert LAPLACE_V == pytest.approx(2.27096254984990081515, abs=1e-15)
        sol = solutions["laplace"]
        assert abs(sol.value - LAPLACE_V) <= sol.diagnostics["quadrature_error_bound"]

    def test_powerfold2(self):
        sol = solve_full_info(PowerFold(2))
        want = POWERFOLD_V[2](POWERFOLD2_X1)
        assert abs(sol.value - want) <= sol.diagnostics["quadrature_error_bound"]

    @pytest.mark.parametrize("dist, want", [
        (LAPLACE, LAPLACE_V),
        (PowerFold(2), POWERFOLD_V[2](POWERFOLD2_X1)),
        (PowerFold(3), POWERFOLD_V[3](POWERFOLD_X1[3])),
        (PowerFold(4), POWERFOLD_V[4](POWERFOLD_X1[4])),
    ], ids=["laplace", "powerfold2", "powerfold3", "powerfold4"])
    def test_value_within_a_few_ulps_of_the_closed_form(self, dist, want):
        # 1.6e-15 to 1.9e-15 off by 50-digit references; V summed as the
        # integrals of W1 plus 2 (F(x1*) - 1/2) read up to 4.7e-15
        assert abs(solve_full_info(dist).value - want) <= 2.5e-15

    @pytest.mark.parametrize("delta, want", [(3, 2.29058749696240597990),
                                             (4, 2.29136589633665259418)], ids=["delta3", "delta4"])
    def test_powerfold3_and_4(self, delta, want):
        r = POWERFOLD_X1[delta]
        assert POWERFOLD_V[delta](r) == pytest.approx(want, abs=1e-15)
        sol = solve_full_info(PowerFold(delta))
        assert abs(sol.x1_star - r) <= 1e-13
        assert abs(sol.value - POWERFOLD_V[delta](r)) <= sol.diagnostics["quadrature_error_bound"]

    @pytest.mark.parametrize("dist, x1", [
        (UNIFORM, UNIFORM_X1), (LAPLACE, LAPLACE_X1), (Laplace(3), 3 * LAPLACE_X1),
        (PowerFold(2), POWERFOLD2_X1), (PowerFold(3), POWERFOLD_X1[3]),
        (PowerFold(4), POWERFOLD_X1[4]),
    ], ids=["uniform", "laplace", "laplace3", "powerfold2", "powerfold3", "powerfold4"])
    def test_threshold_error_bound_covers_the_closed_form(self, dist, x1):
        # every closed-form root above is within an ulp of the exact one
        sol = solve_full_info(dist)
        bound = sol.diagnostics["threshold_error_bound"]
        assert abs(sol.x1_star - x1) + math.ulp(x1) <= bound
        assert bound <= 1e-13

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
    # (powerfold 0.5), 4114 and 320 (2), 12184 and 640 (4).  Before each
    # law declared the substitution degree of its break points (t^2 at
    # every one, Laplace's kink at 0 and its u-ends included), they took
    # 1562 and 88 (laplace), 631 and 51 (2), 6558 and 509 (4).  The
    # PowerFold rows from 2.5 on, which take t^5, t^7, t^6 and t^8 at 0 and
    # guard every degree the engine knows, have no earlier counts.  Before
    # the threshold formed the curve minus 2 without the offset 2, the
    # threshold search of PowerFold(2.5) took 203 panels.  Before the
    # search took two batches of the curve (three points, then one) in
    # place of Brent's one-point steps, it took 142 (powerfold 0.5), 193
    # (2.5), 43 (6) and 65 (8); the other rows held.  Since V is 109/48 +
    # p + T, ``panels`` counts T's panels and p's; before, when V also
    # integrated the curve over X1 <= 0, it took 514 (laplace), 567
    # (powerfold 0.5), 527 (2), 893 (4), 810 (2.5), 1703 (3.5), 1822 (6)
    # and 1909 (8), and the threshold's panels held.
    @pytest.mark.parametrize("dist, panels, threshold_panels, graded, graded_threshold, bisected", [
        (LAPLACE, 430, 86, 5518, 1660, 8062),
        (PowerFold(0.5), 533, 150, 8898, 3010, 13016),
        (PowerFold(2), 154, 43, 11630, 2107, 21302),
        (PowerFold(4), 141, 49, 15292, 1693, 28478),
        (PowerFold(2.5), 782, 203, None, None, None),
        (PowerFold(3.5), 1054, 249, None, None, None),
        (PowerFold(6), 135, 45, None, None, None),
        (PowerFold(8), 659, 69, None, None, None),
    ], ids=["laplace", "powerfold0.5", "powerfold2", "powerfold4", "powerfold2.5", "powerfold3.5",
            "powerfold6", "powerfold8"])
    def test_panels_pinned(self, dist, panels, threshold_panels, graded, graded_threshold,
                           bisected):
        diagnostics = solve_full_info(dist).diagnostics
        assert diagnostics["panels"] == panels
        assert diagnostics["threshold_panels"] == threshold_panels
        if bisected is not None:
            assert panels < bisected
            assert panels <= graded and threshold_panels <= graded_threshold

    def test_threshold_residual_is_the_curve_at_x1(self, builtins, solutions):
        # the residual is the threshold's own evaluation of the curve minus
        # 2 at x1*, formed without the offset 2, not a re-solve
        for name, dist in builtins.items():
            sol = solutions[name]
            want = fullinfo._excess(fullinfo._Law(dist), [sol.x1_star], FULL_INNER_CFG)[0][0]
            assert sol.diagnostics["threshold_residual"] == want, name
            assert abs(want - (continuation_value(dist, sol.x1_star) - 2.0)) <= 4e-16, name

    @pytest.mark.parametrize("delta", [2, 4])
    def test_panels_fall_as_the_tolerance_loosens(self, delta):
        # the outer tolerance follows the flag, so a looser flag never
        # makes T's outer integral chase the curve's noise
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

    @pytest.mark.parametrize("scale", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("make", [Uniform, Laplace, scaled_table],
                             ids=["uniform", "laplace", "tabulated"])
    def test_small_scale_keeps_value_and_threshold_quantile(self, make, scale):
        # The root search's x_tol is absolute; on a law this narrow it would
        # stop far from x1* unless it shrank with the bracket.
        one, scaled = solve_full_info(make(1.0)), solve_full_info(make(scale))
        bound = (one.diagnostics["quadrature_error_bound"]
                 + scaled.diagnostics["quadrature_error_bound"])
        assert abs(scaled.value - one.value) <= bound
        assert abs(scaled.F_at_threshold - one.F_at_threshold) <= bound

    def test_threshold_near_zero_meets_the_residual_tolerance(self):
        # x1* of PowerFold(0.01) is about 1.6e-9
        sol = solve_full_info(PowerFold(0.01))
        assert sol.x1_star < 1e-8
        assert abs(sol.diagnostics["threshold_residual"]) <= fullinfo.THRESHOLD_ROOT_CFG.f_tol

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
        # a uniform law is a table: no quadrature and no root search, so
        # nothing ran at a tolerance
        for name in ("uniform", "tabulated"):
            assert solutions[name].diagnostics["tolerances"] == {}, name

    def test_invariants_enforced_on_construction(self):
        with pytest.raises(ValueError):
            FullInfoSolution(x1_star=1.0, value=2.4, F_at_threshold=0.9)
        with pytest.raises(ValueError):
            FullInfoSolution(x1_star=1.0, value=2.28, F_at_threshold=0.6)


class TestNegativeHalf:
    """E[W1(X1) - 2; X1 <= 0] = 13/48 + p, on which V = 109/48 + p + T rests."""

    @pytest.mark.parametrize("p", [Fraction(1, 192), Fraction(1, 96), Fraction(1, 100)])
    def test_rank_rule_a_takes_13_48ths_plus_2p(self, p):
        # each ordering of S0..S3 with S1 < 0 as a walk, its rank under rank
        # rule a, weighted by the ordering table at (p, 1/48 - p)
        total = Fraction(0)
        for row in permutation_table(p).rows:
            height = {i: -n for n, i in enumerate(row.negative)}  # a descending chain
            s = [height[i] - height[0] for i in range(4)]
            path = WalkPath([s[k] - s[k - 1] for k in (1, 2, 3)])
            assert path.sums[1] < 0
            total += row.probability(p, PQ_SUM - p) * (run_policy(rank_policy_a(), path)[1] - 2)
        assert total == Fraction(13, 48) + 2 * p

    @pytest.mark.parametrize("dist", [
        LAPLACE, Laplace(3), PowerFold(0.1), PowerFold(0.5), PowerFold(1), PowerFold(2),
        PowerFold(2.5), PowerFold(8), Delegate(builtin_suite()["tabulated"]),
        Delegate(IntervalUnionUniform(1, 2)),
    ], ids=["laplace", "laplace3", "powerfold0.1", "powerfold0.5", "powerfold1", "powerfold2",
            "powerfold2.5", "powerfold8", "builtin_table", "interval_union"])
    def test_quadrature_of_the_negative_half_is_13_48ths_plus_p(self, dist):
        # the integral V took before it was 109/48 + p + T: the curve minus 2
        # over u in [0, 1/2], at V's tolerances; within its bound and p's of
        # 13/48 + p (gaps of 1.7e-15 to 6.4e-15); the bound holds the
        # curve's largest bound times the half's u-range, 1/2
        law = fullinfo._Law(dist)
        value, bound, _ = fullinfo._outer(
            law, lambda us: fullinfo._excess(law, dist.ppf(us), FULL_INNER_CFG), 0.0, 0.5,
            *fullinfo._curve_breaks(law), FULL_INNER_CFG.outer())
        pq = compute_pq(dist)
        gap = abs(Fraction(value) - Fraction(13, 48) - Fraction(pq.p))
        assert gap <= Fraction(bound) + Fraction(pq.error_bound)


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

    # Pieces are deterministic.  ``pieces`` are the curve pieces V sums and
    # ``threshold_pieces`` the dF-integral pieces of the curve's two
    # batches.  Before one batch of the curve gave both x1* and V, V's
    # outer integral took 269 (uniform6) and 227 (built-in table) pieces,
    # its dF-integrals' included, and the threshold's three batches 154
    # and 102.  With a 3-point rule on V's outer pieces, V took 398 and
    # 334 pieces.  Before the threshold took the root of the curve's
    # quadratic piece instead of a root search, it took 151 and 120.
    # Since V is 109/48 + p + T, ``pieces`` counts T's curve pieces and the
    # 7 pieces of q's flat integral, and the curve batches cover only the
    # positive range; before, V summed 9 and 12 pieces on both ranges, and
    # the batches took 192 and 205 dF-integral pieces.
    @pytest.mark.parametrize("dist, pieces, threshold_pieces", [
        (UNIFORM6, 10, 52),
        (builtin_suite()["tabulated"], 10, 51),
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
        # the root of the curve's quadratic piece is within a few ulps of
        # x1* at any scale (1 to 3 today; 4 to 5 when a root search closed
        # its bracket to 2 eps |x|)
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


class TestExactPathStructure:
    """What a table's solve and compute_pq call, counted; no wall time."""

    @staticmethod
    def count(monkeypatch, module, name):
        """Calls of ``module.name`` from now on, in a list that grows."""
        calls = []
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    @staticmethod
    def refuse(monkeypatch, module, name):
        def refused(*args, **kwargs):
            raise AssertionError(f"{module.__name__}.{name} called")

        monkeypatch.setattr(module, name, refused)

    @pytest.mark.parametrize("dist", [UNIFORM6, IRREGULAR, builtin_suite()["tabulated"]],
                             ids=["uniform6", "irregular", "builtin_table"])
    def test_solve_takes_two_curve_batches_no_root_search_and_no_outer_integral(self, dist,
                                                                              monkeypatch):
        # one batch at the curve's breaks and midpoints gives the crossing
        # piece and V, and a second the residual at x1*
        batches = self.count(monkeypatch, fullinfo, "_excess")
        for name in ("find_root", "_outer"):
            self.refuse(monkeypatch, fullinfo, name)
        solve_full_info(dist)
        assert len(batches) == 2
        assert len(batches[1][1]) == 1

    @pytest.mark.parametrize("dist", [UNIFORM6, IRREGULAR, builtin_suite()["tabulated"],
                                      SLOW_CROSSING, IntervalUnionUniform(1, 2)],
                             ids=["uniform6", "irregular", "builtin_table", "slow_crossing",
                                  "interval_union"])
    def test_threshold_matches_the_full_solve_bit_for_bit(self, dist):
        assert solve_threshold(dist) == solve_full_info(dist).x1_star

    @staticmethod
    def cut_counts(monkeypatch):
        """The number of break points of every ``integrate_pieces`` call of
        ``fullinfo`` from now on, in a list that grows."""
        sizes = []
        real = fullinfo.integrate_pieces

        def counted(f, a, b, break_points):
            sizes.append(np.size(break_points))
            return real(f, a, b, break_points)

        monkeypatch.setattr(fullinfo, "integrate_pieces", counted)
        return sizes

    @staticmethod
    def three_rows(monkeypatch, dist):
        """``_BLOCK_CUTS`` at three rows of ``dist``'s dF-integrals, each
        padded with its two ends."""
        monkeypatch.setattr(fullinfo, "_BLOCK_CUTS", 3 * (2 * len(dist.cdf_break_points()) + 2))

    def test_curve_calls_of_a_60_knot_solve_are_blocked(self, monkeypatch):
        dist = TabulatedCdf(knot_grid(np.random.default_rng(0), 60))
        sizes = self.cut_counts(monkeypatch)
        base = solve_full_info(dist)
        calls = len(sizes)
        assert max(sizes) <= fullinfo._BLOCK_CUTS
        # at three rows a call the curve's batch takes many calls; every
        # point is its own pair of dF-integrals, so x1* and V keep their bits
        self.three_rows(monkeypatch, dist)
        sizes.clear()
        small = solve_full_info(dist)
        assert len(sizes) > 10 * calls
        assert (small.x1_star, small.value) == (base.x1_star, base.value)

    def test_curve_of_a_60_knot_table_is_blocked(self, monkeypatch):
        # continuation_curve, and so the CLI's curve command, blocks a
        # table's dF-integrals as the solve does, however many points it takes
        dist = TabulatedCdf(knot_grid(np.random.default_rng(0), 60))
        xs = np.linspace(-1.0, 1.0, 5000)
        sizes = self.cut_counts(monkeypatch)
        base = fullinfo.continuation_curve(dist, xs)
        assert len(sizes) > 1 and max(sizes) <= fullinfo._BLOCK_CUTS
        # At three rows a call the values hold to an ulp, not to the bit: a
        # row whose pieces spanned two integrand calls of integrate_pieces
        # sums them in another grouping.  8 of these 5,000 values move.
        self.three_rows(monkeypatch, dist)
        small = fullinfo.continuation_curve(dist, xs)
        assert np.all(np.abs(small - base) <= np.spacing(base))

    @pytest.mark.parametrize("dist", [UNIFORM6, IRREGULAR, builtin_suite()["tabulated"]],
                             ids=["uniform6", "irregular", "builtin_table"])
    def test_pq_takes_one_flat_integral(self, dist, monkeypatch):
        # compute_pq wraps fullinfo._q, where q's code lives
        calls = self.count(monkeypatch, fullinfo, "integrate_pieces")
        for name in ("_df_integrals", "_outer"):
            self.refuse(monkeypatch, fullinfo, name)
        compute_pq(dist)
        assert len(calls) == 1

    def test_interval_union_returns_the_support_edge_after_one_scan(self, monkeypatch):
        # the one batch of the curve is the whole solve: no root to evaluate
        batches = self.count(monkeypatch, fullinfo, "_excess")
        for name in ("find_root", "_outer"):
            self.refuse(monkeypatch, fullinfo, name)
        dist = IntervalUnionUniform(1, 2)
        assert solve_threshold(dist) == dist.quantile(1.0 - 1e-12)
        assert len(batches) == 1
        solve_full_info(dist)
        assert len(batches) == 2


class TestAdaptiveSearchStructure:
    """What the threshold search on adaptive quadrature evaluates, counted."""

    @pytest.mark.parametrize("dist", [LAPLACE, Laplace(3), PowerFold(2)],
                             ids=["laplace", "laplace3", "powerfold2"])
    def test_threshold_takes_the_scan_and_two_small_batches(self, dist, monkeypatch):
        # one root search: three points around the scan's estimate of the
        # root, then the inverse quadratic's point through them
        batches = TestExactPathStructure.count(monkeypatch, fullinfo, "_excess")
        searches = TestExactPathStructure.count(monkeypatch, fullinfo, "find_root")
        x1s = solve_threshold(dist)
        sizes = [len(xs) for _, xs, _ in batches]
        assert len(searches) == 1
        assert sizes[0] == 16 and len(sizes) <= 3 and max(sizes[1:]) <= 3
        assert x1s in {float(x) for _, xs, _ in batches for x in xs}

    def test_kinked_crossing_closes_in_one_find_root_call(self, monkeypatch):
        # SLOW_CROSSING's F is flat on [0.73, 2.11]: the scan, even in u,
        # brackets the crossing (1.90) by [0.72, 2.11], with kinks of the
        # curve inside.  Those kinks join the first batch, so the last sign
        # change lies on a smooth piece, which one root search closes.
        batches = TestExactPathStructure.count(monkeypatch, fullinfo, "_excess")
        searches = TestExactPathStructure.count(monkeypatch, fullinfo, "find_root")
        dist = Delegate(SLOW_CROSSING)
        x1s = solve_threshold(dist)
        assert len(searches) == 1
        assert len(batches) <= 4
        sol = solve_full_info(dist)
        assert sol.x1_star == x1s
        assert abs(sol.diagnostics["threshold_residual"]) <= fullinfo.THRESHOLD_ROOT_CFG.f_tol
        root = Table.of(SLOW_CROSSING).threshold(x1s)
        assert abs(Fraction(x1s) - root) <= Fraction(sol.diagnostics["threshold_error_bound"])

    def test_bisection_closes_a_pair_that_interpolation_creeps_into(self):
        # exp(-8 (x - 1/2)) - exp(-2/5) is smooth and convex, with its root
        # at 11/20.  From a guess at 3/4, inverse interpolation reaches the
        # root from below while the pair's upper end stays: the bisection
        # after each step that fails to halve the pair closes it, at no
        # more than two batches per halving.
        evaluated = []

        def excess(xs):
            xs = np.asarray(xs, dtype=float)
            evaluated.append(xs)
            # the curve's terms are of order 1: a bound of a few ulps of 1
            return np.exp(-8.0 * (xs - 0.5)) - math.exp(-0.4), np.full(len(xs), 4.0 * numerics._EPS)

        ends = np.array([0.5, 1.0])
        values, bounds = excess(ends)
        evaluated.clear()
        root, residual, bound = numerics.find_root(excess, ends, values, bounds, 0.75,
                                                   fullinfo.THRESHOLD_ROOT_CFG)
        halvings = math.ceil(math.log2(0.5 / fullinfo.THRESHOLD_ROOT_CFG.x_tol))
        assert len(evaluated) <= 2 * halvings + 2
        assert root in np.concatenate(evaluated)
        assert residual == excess([root])[0][0]
        assert abs(Fraction(root) - Fraction(11, 20)) <= Fraction(bound)


class TestPolicy:
    def test_stop_at_one_inside_threshold(self):
        policy = full_info_policy(UNIFORM, UNIFORM_X1)
        assert decide(policy, 1, [0.5]) is True
        assert decide(policy, 1, [0.9]) is False
        assert decide(policy, 1, [-0.1]) is False

    def test_stage2_examples(self):
        policy = full_info_policy(UNIFORM, UNIFORM_X1)
        # X1 beyond the threshold, fallback into (-X1, -X1/2]: stop
        assert decide(policy, 2, [0.9, -0.5]) is True
        # both steps down: running minimum, continue
        assert decide(policy, 2, [-0.3, -0.1]) is False
        assert decide(policy, 3, [0.1, 0.1, 0.1]) is True

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
            cfg = SimConfig(n_paths=10**6, seed=300 + i)
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


class TestDfIntegrals:
    @pytest.mark.parametrize("dist, panels", [(UNIFORM6, 6), (LAPLACE, 4)],
                             ids=["exact", "adaptive"])
    def test_reversed_range_is_empty(self, dist, panels):
        # the integral of F(Q(u)) = u over [0.2, 0.6] is 0.16: the table
        # takes the 6 pieces between its F levels there, Laplace 4 starting
        # panels
        vals, bounds, n = fullinfo._df_integrals(fullinfo._Law(dist), np.zeros(2),
                                                 np.array([0.7, 0.2]), np.array([0.4, 0.6]),
                                                 FULL_INNER_CFG)
        assert (vals[0], bounds[0], n[0]) == (0.0, 0.0, 0)
        assert vals[1] == pytest.approx(0.16, abs=1e-14) and n[1] == panels

    @pytest.mark.parametrize("dist", [UNIFORM6, LAPLACE], ids=["exact", "adaptive"])
    def test_no_shifts(self, dist):
        empty = np.zeros(0)
        vals, bounds, n = fullinfo._df_integrals(fullinfo._Law(dist), empty, empty, empty,
                                                 FULL_INNER_CFG)
        assert vals.shape == bounds.shape == n.shape == (0,)
        assert fullinfo.continuation_curve(dist, []).shape == (0,)


class TestInfiniteQuantileEnds:
    """On Laplace Q(0) = -inf and Q(1) = +inf.  An outer node rounds onto u = 0
    or 1 in a panel narrower than the float spacing there; the outer
    integrands must give their limits at those ends, not NaN."""

    @staticmethod
    def outer_integrand_at(monkeypatch, solve, us):
        """``solve(LAPLACE)`` with ``fullinfo._outer`` also evaluating its
        inner integrals at ``us``, RuntimeWarnings raised; those values, one
        list per outer integral, in the order of the calls."""
        seen = []
        real = fullinfo._outer

        def probe(law, inner, *args):
            seen.append(list(inner(np.array(us))[0]))
            return real(law, inner, *args)

        monkeypatch.setattr(fullinfo, "_outer", probe)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            solve(LAPLACE)
        return seen

    def test_v_integrand_is_the_curve_limits(self, monkeypatch):
        # the continuation curve minus 2 far left and far right (23/8 - 2
        # and 15/8 - 2), up to the rounding of the quadrature rule: T's
        # integrand, then p's
        t, _ = self.outer_integrand_at(monkeypatch, solve_full_info, [0.0, 1.0])
        assert t == pytest.approx([7 / 8, -1 / 8], abs=1e-14)

    def test_q_integrand_vanishes_at_one(self, monkeypatch):
        # I(Q(1)) = I(+inf): no s in (0, 1/2) has Q(s) above +inf
        assert self.outer_integrand_at(monkeypatch, compute_pq, [1.0]) == [[0.0]]


#: The 6-piece uniform table of the benchmark's tabulated_knots workload.
UNIFORM6_BENCH = TabulatedCdf([[i / 6, 0.5 + 0.5 * i / 6] for i in range(7)])


class TestLastBits:
    # x1* and V to the last bit.  The benchmark's abs_err.max rests on them:
    # on tabulated_knots it is the 6-piece table's V (1.06e-16 off its
    # closed form).  One ulp either way moves abs_err.max, so a refactor of
    # the engine must leave these bits alone.  Laplace's V was
    # 0x1.22aee69d05e81p+1 (1.2e-14 off its closed form, now 2.2e-15)
    # before its kink and u-ends took their declared degrees.  Before the
    # threshold formed the curve minus 2 without the offset 2 (and, on a
    # table, took the root of the curve's quadratic piece), x1* was
    # 0x1.a827999fcef2fp-1 on Uniform (3.62e-16 off 2 (sqrt 2 - 1), now
    # 1.40e-16), 0x1.b5c529d2ec593p+0 on Laplace, 0x1.eca7213f22c70p-1 on
    # PowerFold(2), 0x1.f71024d80cfeap-1 on PowerFold(2.5), whose V was
    # 0x1.251278e15a0d6p+1, and 0x1.ffff5d0ecf6c6p-1 on PowerFold(8).
    # Before V was 2 plus the integrals of the curve minus 2, it was
    # 0x1.238efc310536cp+1 on the built-in table, 0x1.22aee69d05e62p+1 on
    # Laplace, 0x1.24d70f8d4d00bp+1 on PowerFold(2), 0x1.251278e15a0d5p+1
    # on PowerFold(2.5), 0x1.255547c0e35bap+1 on PowerFold(8) and
    # 0x1.2555555555556p+1 on the interval union, each farther from its
    # exact value; the interval union's is now 55/24 correctly rounded.
    # Before one batch of a table's curve gave its x1* and V, on the curve's
    # whole quadratic piece rather than its part inside a scan's bracket,
    # x1* was 0x1.a827999fcef31p-1 on Uniform (1.40e-16 off 2 (sqrt 2 - 1),
    # now 2.9e-17, correctly rounded), 0x1.a827999fcef33p-1 on the 6-piece
    # table (8.2e-17 off) and 0x1.bb8fd106ed9e5p-1 on the built-in table
    # (1.74 ulps off the root of its float table, now 0.74).  Before the
    # threshold search took two batches of the curve in place of Brent's
    # one-point steps, x1* was 0x1.eca7213f22c6bp-1 on PowerFold(2) (1.1e-16
    # off its closed form, now 2.2e-16, inside reported bounds of 6.5e-15
    # and 6.6e-15) and 0x1.f71024d80cfe2p-1 on PowerFold(2.5), where its
    # residual was -9.9e-15 and is now -1.7e-18; no V moved.  Before V was
    # 109/48 + p + T, V was 0x1.22aee69d05e6ap+1 on Laplace (1.6e-15 off its
    # closed form, now 6.1e-16), 0x1.24d70f8d4d012p+1 on PowerFold(2)
    # (1.6e-15 off, now 1.7e-16), 0x1.251278e15a0dcp+1 on PowerFold(2.5)
    # and 0x1.255547c0e35c1p+1 on PowerFold(8), 1.8e-15 and 6.2e-15 off a
    # solve at 1e-14, which they now equal; the tables' and x1* held.
    @pytest.mark.parametrize("dist, x1_star, value", [
        (UNIFORM, "0x1.a827999fcef32p-1", "0x1.23a90444020b3p+1"),
        (builtin_suite()["tabulated"], "0x1.bb8fd106ed9e6p-1", "0x1.238efc310536dp+1"),
        (LAPLACE, "0x1.b5c529d2ec582p+0", "0x1.22aee69d05e65p+1"),
        (PowerFold(2), "0x1.eca7213f22c6ap-1", "0x1.24d70f8d4d016p+1"),
        (UNIFORM6_BENCH, "0x1.a827999fcef32p-1", "0x1.23a90444020b3p+1"),
        (PowerFold(2.5), "0x1.f71024d80cf56p-1", "0x1.251278e15a0e0p+1"),
        (PowerFold(8), "0x1.ffff5d0ecf6c4p-1", "0x1.255547c0e35cfp+1"),
        (IntervalUnionUniform(1, 2), "0x1.fffffffffdcd1p+0", "0x1.2555555555555p+1"),
    ], ids=["uniform", "tabulated", "laplace", "powerfold2", "uniform6", "powerfold2.5",
            "powerfold8", "interval_union"])
    def test_x1_and_value_pinned(self, dist, x1_star, value):
        sol = solve_full_info(dist)
        assert (sol.x1_star.hex(), sol.value.hex()) == (x1_star, value)


class WrappedLaplace(SymmetricDistribution):
    """A user-defined law: Laplace(1)'s F, quantile and knot, and no
    declared substitution degrees, so t^2 at every break point."""

    def __init__(self):
        self._law = Laplace(1)

    def cdf(self, x):
        return self._law.cdf(x)

    def ppf(self, u):
        return self._law.ppf(u)

    def cdf_break_points(self):
        return self._law.cdf_break_points()


def test_law_without_declared_degrees_keeps_its_results():
    # Laplace's results before it declared a kink at 0 and t^3 at the u-ends;
    # x1* was 0x1.b5c529d2ec593p+0 before the threshold formed the curve
    # minus 2 without the offset 2, and V 0x1.22aee69d05e81p+1 (1.18e-14 off
    # its closed form, now 1.54e-14) before V integrated the curve minus 2,
    # and x1* 0x1.b5c529d2ec585p+0 (2.9e-15 off its closed form, now 3.1e-15)
    # before the threshold search took two batches of the curve.  Before V
    # was 109/48 + p + T, V was 0x1.22aee69d05e89p+1 (1.5e-14 off its closed
    # form, now 4.2e-14, inside a reported bound of 5.2e-11) and took 1562
    # panels, where T and p now take 616.
    dist = WrappedLaplace()
    degrees, end_degree = dist.break_point_degrees()
    assert list(degrees) == [2] and end_degree == 2
    sol = solve_full_info(dist)
    assert (sol.x1_star.hex(), sol.value.hex()) == ("0x1.b5c529d2ec584p+0", "0x1.22aee69d05e08p+1")
    assert (sol.diagnostics["panels"], sol.diagnostics["threshold_panels"]) == (616, 88)
    assert compute_pq(dist).panels == 244


def test_attributes_patched_by_the_tracer_exist(monkeypatch):
    # perfbench/tracer.py wraps these module attributes by name; neither
    # module calls integrate_detailed, but removing it breaks every traced run.
    for module, name in [(fullinfo, "integrate_detailed"), (relranks, "integrate_detailed"),
                         (fullinfo, "find_root")]:
        assert callable(getattr(module, name)), f"{module.__name__}.{name}"
    # The tracer's find_root wrapper passes the root function on wrapped in
    # one that calls it with one positional argument, and counts its calls.
    base = solve_full_info(LAPLACE)
    real, runs, evals = fullinfo.find_root, [], []

    def traced(f, *args, **kwargs):
        def root_fn(x):
            evals.append(x)
            return f(x)
        runs.append(args)
        return real(root_fn, *args, **kwargs)

    monkeypatch.setattr(fullinfo, "find_root", traced)
    sol = solve_full_info(LAPLACE)
    assert len(runs) == 1 and evals
    assert (sol.x1_star.hex(), sol.value.hex()) == (base.x1_star.hex(), base.value.hex())
