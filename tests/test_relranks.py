from fractions import Fraction

import numpy as np
import pytest

from rankstop import fullinfo, numerics
from rankstop.distributions import (IntervalUnionUniform, Laplace, PowerFold, TabulatedCdf, Uniform,
                                   builtin_suite)
from rankstop.numerics import QuadratureConfig, integrate_batch
from rankstop.oracle import enumerate_rank_policies
from rankstop.relranks import (
    ALL_ORDERINGS,
    PQ_SUM,
    PQParams,
    compute_pq,
    optimal_rank_policy,
    optimal_rank_value,
    permutation_table,
    rank_policy_a,
    rank_policy_b,
    shift_concentration_check,
    two_step_case_values,
)


#: Uniform(1) as six equal pieces, and an irregular law with a flat piece.
UNIFORM6 = TabulatedCdf([[i / 6, 0.5 + i / 12] for i in range(7)])
IRREGULAR = TabulatedCdf([[0.0, 0.5], [0.13, 0.61], [0.3, 0.61], [0.71, 0.83], [1.0, 0.9],
                          [1.37, 1.0]])
TABLES = pytest.mark.parametrize("dist", [UNIFORM6, IRREGULAR], ids=["uniform6", "irregular"])


class TestComputePQ:
    def test_uniform(self, pq_params):
        assert pq_params["uniform"].p == pytest.approx(1 / 96, abs=1e-10)

    def test_laplace(self, pq_params):
        pq = pq_params["laplace"]
        assert abs(pq.p - 1 / 192) <= pq.error_bound

    def test_interval_union_triangle_almost_sure(self, pq_params):
        # every |X| lies in (1, 2), so the largest is always below the sum of
        # the other two: q = 0 and p carries everything
        pq = pq_params["interval_union"]
        assert pq.p == pytest.approx(1 / 48, abs=1e-9)
        assert pq.q == pytest.approx(0.0, abs=1e-9)

    def test_sum_constraint_all_builtins(self, pq_params):
        for name, pq in pq_params.items():
            assert abs(pq.p + pq.q - 1 / 48) <= 1e-9, name

    def test_panels_counted(self, pq_params):
        for name, pq in pq_params.items():
            assert pq.panels > 0, name

    # Panels are deterministic.  Before the graded split toward singular
    # panel edges, compute_pq took the panels in the last column; before
    # panels at break points were integrated through a smoothing
    # substitution, it took those in the ``graded`` column.  Before every
    # problem started with 8 equal panels whatever its width, it took 968
    # (laplace), 1106 (powerfold 0.5), 968 (2) and 11604 (4).  Before q was
    # integrated over the continuation curve's dF-integrals instead of the
    # folded CDF, it took 968 (laplace), 939 (powerfold 0.5), 555 (2) and
    # 12025 (4).
    @pytest.mark.parametrize("dist, panels, graded, bisected", [
        (Laplace(1), 244, 968, 968),
        (PowerFold(0.5), 1047, 2848, 3446),
        (PowerFold(2), 260, 10924, 20036),
        (PowerFold(4), 11725, 14698, 26850),
    ], ids=["laplace", "powerfold0.5", "powerfold2", "powerfold4"])
    def test_panels_pinned(self, dist, panels, graded, bisected):
        assert compute_pq(dist).panels == panels <= bisected
        assert panels <= graded

    @pytest.mark.parametrize("dist", [PowerFold(0.5), PowerFold(4)],
                             ids=["powerfold0.5", "powerfold4"])
    def test_bound_covers_a_finer_solve(self, dist):
        # No closed form exists for these laws: the reported bounds of a
        # default and a 1e-14 computation must together cover their difference.
        default = compute_pq(dist)
        fine = compute_pq(dist, QuadratureConfig(1e-14, 1e-14))
        assert abs(default.p - fine.p) <= default.error_bound + fine.error_bound

    def test_powerfold_small_exponent(self):
        pq = compute_pq(PowerFold(0.05))
        assert pq.q >= 0.9 / 48
        assert 0 < pq.p < 1 / 960

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PQParams(p=0.0, q=1 / 48)
        with pytest.raises(ValueError):
            PQParams(p=1 / 96, q=-1e-3)
        with pytest.raises(ValueError):
            PQParams(p=0.02, q=0.02)  # sum far from 1/48
        # tiny negative quadrature noise on q is clamped to zero
        assert PQParams(p=1 / 48 + 1e-13, q=-1e-13).q == 0.0


class TestFoldedIdentity:
    """compute_pq integrates fullinfo's dF-integral I(y) = J(y)/4, where J is
    the paper's folded inner integral."""

    CFG = QuadratureConfig(1e-13, 1e-13)

    def folded_inner(self, dist, y):
        """J(y), the integral of 1 - G(Ginv(u) + y) over (0, 1), cut where
        the folded sum crosses a knot."""
        upper = dist.support[1]

        def h(u, _):
            return 1.0 - dist.folded_cdf(np.minimum(dist.ppf(0.5 * (1.0 + u)) + y, upper))

        knots = np.abs(dist.cdf_break_points())
        cuts = dist.folded_cdf(np.concatenate([[0.0], knots, np.maximum(knots - y, 0.0)]))
        return integrate_batch(h, [0.0], [1.0], self.CFG, break_points=cuts[None, :])[0][0]

    @pytest.mark.parametrize("dist", [Laplace(1), PowerFold(0.5), PowerFold(2), IRREGULAR],
                             ids=["laplace", "powerfold0.5", "powerfold2", "irregular"])
    @pytest.mark.parametrize("y", [0.0, 0.1, 0.5, 0.9, 1.3, 2.0, 40.0])
    def test_four_dF_integrals_are_the_folded_inner_integral(self, dist, y):
        # y = 1.3 and beyond lie past the support of the PowerFold laws and
        # y = 2 and beyond past IRREGULAR's, where both integrals vanish.
        x = np.array([y])
        inner = fullinfo._df_integrals(dist, x, dist.cdf(x - dist.support[1]), 0.5, self.CFG)[0][0]
        want = self.folded_inner(dist, y)
        tol = self.CFG.abs_tol + self.CFG.rel_tol * abs(want)
        assert abs(4.0 * inner - want) <= 5.0 * tol

    def test_builtin_table_rational_p(self):
        # p of the built-in table, from the closed-form pairwise sum over its pieces
        pq = compute_pq(builtin_suite()["tabulated"])
        assert abs(Fraction(pq.p) - Fraction(333439, 32400000)) <= Fraction(pq.error_bound)


class TestExactPiecewiseLinear:
    """compute_pq of a TabulatedCdf: fixed rules on known pieces, exact up to rounding."""

    def test_uniform_table_closed_form(self):
        pq = compute_pq(UNIFORM6)
        assert pq.method == "exact_piecewise_linear"
        assert abs(pq.p - 1 / 96) <= 1e-14 and abs(pq.q - 1 / 96) <= 1e-14
        assert abs(pq.q - 1 / 96) <= pq.error_bound
        assert pq.panels > 0

    def test_uniform_anchor_within_bound(self, pq_params):
        pq = pq_params["uniform"]
        assert abs(pq.p - 1 / 96) <= pq.error_bound and abs(pq.q - 1 / 96) <= pq.error_bound

    def test_interval_union_table(self):
        pq = compute_pq(TabulatedCdf([[0.0, 0.5], [1.0, 0.5], [2.0, 1.0]]))
        assert pq.q == 0.0 and abs(pq.p - 1 / 48) <= 1e-17

    # Pieces are deterministic.  With a 3-point rule on the outer pieces,
    # compute_pq took 122 (uniform6) and 138 (built-in table) pieces; on
    # the folded CDF's pieces instead of the dF-integrals', 84 and 95.
    @pytest.mark.parametrize("dist, pieces", [
        (UNIFORM6, 87),
        (builtin_suite()["tabulated"], 98),
    ], ids=["uniform6", "builtin_table"])
    def test_pieces_pinned(self, dist, pieces):
        assert compute_pq(dist).panels == pieces

    @TABLES
    def test_reported_bound_covers_the_sum(self, dist):
        pq = compute_pq(dist)
        assert pq.error_bound > 0
        assert abs(Fraction(pq.p) + Fraction(pq.q) - PQ_SUM) <= Fraction(pq.error_bound)

    @TABLES
    def test_doubling_the_orders_moves_nothing(self, dist, monkeypatch):
        # 2 nodes per piece are exact on the inner and the outer integrals
        base = compute_pq(dist)
        monkeypatch.setattr(numerics, "_PIECE_RULE", np.polynomial.legendre.leggauss(4))
        high = compute_pq(dist)
        assert abs(high.p - base.p) <= 4 * np.spacing(base.p)

    def test_other_laws_keep_quadrature(self, pq_params):
        for name, pq in pq_params.items():
            want = "quadrature" if name in ("laplace", "powerfold") else "exact_piecewise_linear"
            assert pq.method == want, name


class TestConcentrationClass:
    def test_uniform_member(self):
        assert shift_concentration_check(Uniform(1)).member

    def test_laplace_member(self):
        assert shift_concentration_check(Laplace(1)).member

    def test_interval_union_violates(self):
        report = shift_concentration_check(IntervalUnionUniform(1, 2))
        assert not report.member
        x, y = report.worst_pair
        # the witness pair must genuinely violate the inequality
        dist = IntervalUnionUniform(1, 2)
        lhs = float(dist.cdf(x)) - 0.5
        rhs = float(dist.cdf(x + y)) - float(dist.cdf(y))
        assert rhs - lhs == pytest.approx(report.max_violation)
        assert report.max_violation > 0

    def test_members_satisfy_p_bound(self, builtins, pq_params):
        for name, dist in builtins.items():
            if shift_concentration_check(dist).member:
                assert pq_params[name].p <= 1 / 96 + 1e-9, name


class TestPermutationTable:
    def test_row_examples(self):
        tab = permutation_table(Fraction(1, 96), Fraction(1, 96))
        assert tab.probability((0, 3, 1, 2)) == Fraction(1, 48) + Fraction(2, 96)
        assert tab.probability((2, 0, 3, 1)) == Fraction(2, 96)

    def test_total_probability(self):
        for p in (Fraction(1, 192), Fraction(1, 96), Fraction(1, 48)):
            tab = permutation_table(p, PQ_SUM - p)
            assert tab.total() == 1

    def test_reflection_symmetry(self):
        tab = permutation_table(Fraction(1, 100), PQ_SUM - Fraction(1, 100))
        for row in tab.rows:
            assert tab.probability(row.negative) == tab.probability(row.positive)

    def test_all_24_orderings_present(self):
        assert len(set(ALL_ORDERINGS)) == 24
        import itertools

        assert set(ALL_ORDERINGS) == set(itertools.permutations(range(4)))

    def test_rejects_inconsistent_pq(self):
        with pytest.raises(ValueError):
            permutation_table(0.02, 0.02)

    def test_negative_column_has_first_step_down(self):
        tab = permutation_table(Fraction(1, 96), Fraction(1, 96))
        for row in tab.rows:
            assert row.negative.index(1) > row.negative.index(0)
            assert row.positive.index(1) < row.positive.index(0)


class TestOptimalPolicy:
    def test_branch_a_examples(self):
        policy, branch = optimal_rank_policy((1 / 96, 1 / 96))
        assert branch == "a"
        # second position above the first: stop at 2
        assert policy.decide(2, [1, 2, 2]) is True
        assert policy.decide(2, [1, 2, 1]) is True
        assert policy.decide(2, [1, 2, 3]) is False

    def test_branch_b_examples(self):
        policy, branch = optimal_rank_policy((1 / 48, 0.0))
        assert branch == "b"
        # only a new maximum stops at 2
        assert policy.decide(2, [1, 2, 1]) is True
        assert policy.decide(2, [1, 2, 2]) is False

    def test_new_maximum_always_stops_at_one(self):
        for policy in (rank_policy_a(), rank_policy_b()):
            assert policy.decide(1, [1, 1]) is True
            assert policy.decide(1, [1, 2]) is False

    def test_tie_resolves_to_branch_a(self):
        _, branch = optimal_rank_policy((1 / 96, 1 / 96))
        assert branch == "a"


class TestOptimalValue:
    def test_uniform_value(self):
        assert optimal_rank_value(Fraction(1, 96)) == Fraction(55, 24)

    def test_laplace_value(self):
        assert optimal_rank_value(Fraction(1, 192)) == Fraction(73, 32)
        assert float(optimal_rank_value(1 / 192)) == pytest.approx(2.28125)

    def test_clamps_at_large_p(self):
        # 109/48 + 2/48 exceeds 55/24, so the minimum clamps there
        assert optimal_rank_value(Fraction(1, 48)) == Fraction(55, 24)

    def test_range(self):
        for p in np.linspace(1e-6, 1 / 48, 50):
            v = optimal_rank_value(p)
            assert 109 / 48 < v <= 55 / 24 + 1e-15

    def test_monotone_and_constant_past_kink(self):
        ps = np.linspace(0, 1 / 48, 200)
        vals = [optimal_rank_value(p) for p in ps]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        for p in ps[ps >= 1 / 96]:
            assert optimal_rank_value(p) == pytest.approx(55 / 24, abs=1e-15)

    def test_matches_enumeration_for_quadrature_p(self, pq_params):
        for name, pq in pq_params.items():
            p = Fraction(pq.p).limit_denominator(10**9)
            enum = enumerate_rank_policies(p, n=3)
            assert enum.optimal_value == optimal_rank_value(p), name


class TestCaseValues:
    def test_uniform_indifference(self):
        cv = two_step_case_values(Fraction(1, 96), Fraction(1, 96))
        # descending two-step prefix: continuing is exactly as good as stopping
        assert cv.case2_continue == Fraction(5, 2)
        assert cv.case5_continue == Fraction(5, 2)
        assert cv.overall == Fraction(55, 24)

    def test_laplace_cases(self):
        cv = two_step_case_values(Fraction(1, 192), Fraction(1, 64))
        assert cv.case2_continue == Fraction(7, 3) + Fraction(16, 192)
        assert cv.case3_continue == Fraction(37, 12)
        assert cv.case6_continue == Fraction(37, 12) + Fraction(8, 192)
        assert cv.overall == Fraction(73, 32)

    def test_stop_cases_constant(self):
        cv = two_step_case_values(Fraction(1, 100), PQ_SUM - Fraction(1, 100))
        assert cv.case1_stop == Fraction(3, 2)
        assert cv.case4_stop == Fraction(3, 2)
        assert cv.case2_stop == Fraction(5, 2)

    def test_positive_first_step_always_worth_stopping(self):
        # continuing after an up-step is strictly worse than its stop payoff 2
        for p_num in range(1, 48):
            p = Fraction(p_num, 48 * 20)
            if p > PQ_SUM:
                continue
            cv = two_step_case_values(p, PQ_SUM - p)
            assert cv.s1_positive_continue > 2

    def test_overall_matches_closed_form(self):
        for p in (Fraction(1, 192), Fraction(1, 96), Fraction(1, 48),
                  Fraction(1, 100), Fraction(1, 60)):
            cv = two_step_case_values(p, PQ_SUM - p)
            assert cv.overall == optimal_rank_value(p)

    def test_case_values_match_conditional_expectations(self):
        """Independent oracle: recompute each continuation payoff directly
        from the ordering table as E[R_3 | two-step configuration]."""
        p, q = Fraction(1, 192), Fraction(1, 64)
        tab = permutation_table(p, q)
        configs = {
            "case2": (1, 2),   # chain restricted to (0, S1, S2): S1 > S2 > 0
            "case3": (1, 0),   # S1 > 0 > S2
            "case5": (0, 2),   # 0 > S2 > S1
            "case6": (0, 1),   # 0 > S1 > S2
        }
        expected = {}
        for name, (first, second) in configs.items():
            total_prob = Fraction(0)
            total_rank = Fraction(0)
            for chain in ALL_ORDERINGS:
                restricted = tuple(i for i in chain if i != 3)
                want = {
                    "case2": (1, 2, 0), "case3": (1, 0, 2),
                    "case5": (0, 2, 1), "case6": (0, 1, 2),
                }[name]
                if restricted != want:
                    continue
                prob = tab.probability(chain)
                total_prob += prob
                total_rank += prob * (chain.index(3) + 1)
            expected[name] = total_rank / total_prob
        cv = two_step_case_values(p, q)
        assert cv.case2_continue == expected["case2"]
        assert cv.case3_continue == expected["case3"]
        assert cv.case5_continue == expected["case5"]
        assert cv.case6_continue == expected["case6"]
