import math
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from rankstop.distributions import Laplace, Uniform
from rankstop.fullinfo import full_info_policy, solve_full_info
from rankstop.oracle import (
    RankPolicyTable,
    _TWO_STEP_ORDERINGS,
    _CHAIN_RANKS,
    _SECOND_STEP_SLOT,
    _ranks_of_chain,
    _stop_times,
    canonical_rules,
    enumerate_rank_policies,
    grid_dp_full_info,
    stage2_disagreement,
)
from rankstop.relranks import optimal_rank_value
from rankstop.walkcore import ALL_ORDERINGS, PQ_SUM, permutation_table
from rankstop.simulate import SimConfig, estimate_expected_rank

UNIFORM_V = 11 / 4 - math.sqrt(2) / 3


def reference_stop_time(bits, rel_ranks, n):
    """First stop index of a bit table on a relative-rank history (forced
    stop at n), one rule and one history at a time."""
    if bits[0]:
        return 0
    if bits[rel_ranks[1]]:
        return 1
    if n == 2 or bits[_SECOND_STEP_SLOT[rel_ranks[1:3]]]:
        return 2
    return 3


def reference_enumeration(orderings, n):
    """The rule-by-rule enumeration: (values, minimizers, optimum), one
    integer numerator per rule over the orderings' common denominator."""
    denom = math.lcm(*(prob.denominator for _, prob in orderings))
    prepared = []
    for chain, prob in orderings:
        overall, relative = _ranks_of_chain(chain)
        prepared.append((prob.numerator * (denom // prob.denominator), overall, relative))
    values = {}
    for bits in product((0, 1), repeat=3 if n == 2 else 9):
        total = 0
        for weight, overall, relative in prepared:
            total += weight * overall[reference_stop_time(bits, relative, n)]
        values[bits] = Fraction(total, denom)
    best = min(values.values())
    return values, tuple(sorted(b for b, v in values.items() if v == best)), best


def reference_is_minimizer(orderings, n, minimizers, bits):
    def behavior(rule):
        return tuple(reference_stop_time(rule, _ranks_of_chain(chain)[1], n) for chain, _ in orderings)

    return any(behavior(m) == behavior(bits) for m in minimizers)


class TestTwoStepEnumeration:
    def test_optimum_and_rule(self):
        result = enumerate_rank_policies(n=2)
        assert result.optimal_value == Fraction(15, 8)
        assert result.policy_count == 8
        assert result.is_minimizer(canonical_rules(2)["two_step_rule"])

    def test_minimizer_unique(self):
        result = enumerate_rank_policies(n=2)
        assert result.minimizers == ((0, 1, 0),)

    def test_runtime_under_a_second(self):
        start = time.perf_counter()
        enumerate_rank_policies(n=2)
        assert time.perf_counter() - start < 1.0


class TestThreeStepEnumeration:
    def test_exhaustive_count(self):
        result = enumerate_rank_policies(Fraction(1, 96), n=3)
        assert result.policy_count == 2 ** (1 + 2 + 6)
        assert len(result.values) == 512

    def test_uniform_point_both_rules_optimal(self):
        result = enumerate_rank_policies(Fraction(1, 96), n=3)
        assert result.optimal_value == Fraction(55, 24)
        rules = canonical_rules(3)
        assert result.is_minimizer(rules["rank_rule_a"])
        assert result.is_minimizer(rules["rank_rule_b"])

    def test_laplace_point_rule_a_only(self):
        result = enumerate_rank_policies(Fraction(1, 192), n=3)
        assert result.optimal_value == Fraction(73, 32)
        rules = canonical_rules(3)
        assert result.is_minimizer(rules["rank_rule_a"])
        assert not result.is_minimizer(rules["rank_rule_b"])

    @pytest.mark.parametrize("p", [
        Fraction(1, 192), Fraction(1, 96), Fraction(1, 48),
        Fraction(1, 100), Fraction(1, 60),
    ])
    def test_matches_closed_form_exactly(self, p):
        result = enumerate_rank_policies(p, n=3)
        assert result.optimal_value == optimal_rank_value(p)

    def test_random_pq_pairs(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = Fraction(int(rng.integers(1, 10**6)), 48 * 10**6)
            result = enumerate_rank_policies(p, n=3)
            assert result.optimal_value == optimal_rank_value(p)

    def test_fixed_time_policies_cost_five_halves(self):
        result = enumerate_rank_policies(Fraction(1, 100), n=3)
        rules = canonical_rules(3)
        assert result.values[rules["stop_at_start"]] == Fraction(5, 2)
        assert result.values[rules["stop_at_end"]] == Fraction(5, 2)

    def test_optimum_dominates_named_policies(self):
        result = enumerate_rank_policies(Fraction(1, 77), n=3)
        for bits in canonical_rules(3).values():
            assert result.optimal_value <= result.values[bits]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            enumerate_rank_policies(Fraction(1, 10), n=3)  # p > 1/48
        with pytest.raises(ValueError):
            enumerate_rank_policies(Fraction(1, 96), Fraction(1, 96) + 1, n=3)
        with pytest.raises(ValueError):
            enumerate_rank_policies(n=3)  # missing p

    def test_runtime_under_a_second(self):
        start = time.perf_counter()
        enumerate_rank_policies(Fraction(1, 96), n=3)
        assert time.perf_counter() - start < 1.0


class TestExactSums:
    """Every rule's value against a plain sum of Fraction terms."""

    @staticmethod
    def fraction_sums(orderings, n):
        values = {}
        for bits in product((0, 1), repeat=3 if n == 2 else 9):
            total = Fraction(0)
            for chain, prob in orderings:
                overall, relative = _ranks_of_chain(chain)
                total += prob * overall[reference_stop_time(bits, relative, n)]
            values[bits] = total
        return values

    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 192), Fraction(1, 96), Fraction(5, 288),
                                   Fraction(1, 48), 0.0123], ids=str)
    def test_three_step_values(self, p):
        result = enumerate_rank_policies(p, n=3)
        orderings = list(zip(ALL_ORDERINGS, permutation_table(result.p, result.q).probabilities()))
        values = self.fraction_sums(orderings, 3)
        assert result.values == values
        assert result.optimal_value == min(values.values())
        assert result.minimizers == tuple(sorted(b for b, v in values.items() if v == min(values.values())))

    def test_two_step_values(self):
        result = enumerate_rank_policies(n=2)
        assert result.values == self.fraction_sums(_TWO_STEP_ORDERINGS, 2)


class TestArrayEnumeration:
    """The one-table enumeration against the rule-by-rule reference."""

    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 192), Fraction(1, 96), Fraction(5, 288),
                                   Fraction(1, 60), Fraction(1, 48), Fraction(123456789, 10**12)],
                             ids=str)
    def test_three_step(self, p):
        result = enumerate_rank_policies(p, n=3)
        orderings = list(zip(ALL_ORDERINGS, permutation_table(result.p, result.q).probabilities()))
        self.assert_matches(result, orderings, 3)

    def test_two_step(self):
        self.assert_matches(enumerate_rank_policies(n=2), _TWO_STEP_ORDERINGS, 2)

    def test_denominator_past_int64(self):
        p = Fraction(1, 97 * 10**18)
        orderings = list(zip(ALL_ORDERINGS, permutation_table(p, PQ_SUM - p).probabilities()))
        assert math.lcm(*(prob.denominator for _, prob in orderings)) > 2**63
        self.assert_matches(enumerate_rank_policies(p, n=3), orderings, 3)

    @staticmethod
    def assert_matches(result, orderings, n):
        values, minimizers, best = reference_enumeration(orderings, n)
        assert result.values == values
        assert list(result.values) == list(values)
        assert result.minimizers == minimizers
        assert result.optimal_value == best
        for bits in canonical_rules(n).values():
            assert result.is_minimizer(bits) == reference_is_minimizer(orderings, n, minimizers, bits)


class TestRankPolicyTable:
    def test_policy_agrees_with_stopping_time(self):
        # walkcore's reader against the oracle's own reading of the bits,
        # for every 3- and 9-bit table and every history its walk can show
        for n in (2, 3):
            for bits in product((0, 1), repeat=3 if n == 2 else 9):
                policy = RankPolicyTable(bits).to_policy()
                # the stop time depends only on the history before the forced stop
                taus = dict(zip((rel[1:n] for _, rel in _CHAIN_RANKS[n]), _stop_times([bits], n)[0]))
                for tail in product(*(range(1, j + 2) for j in range(1, n))):
                    history = (1, *tail, 1)[: n + 1]
                    tau = taus[tail]
                    replay = next(k for k in range(n + 1) if policy.decide(k, history[: k + 1]))
                    assert tau == replay

    def test_bit_validation(self):
        for bits in [(), (1, 0), (0,) * 4, (0,) * 10, (2,) * 9]:
            with pytest.raises(ValueError):
                RankPolicyTable(bits)

    def test_describe(self):
        assert "immediately" in RankPolicyTable((1,) + (0,) * 8).describe()
        assert RankPolicyTable((1,)).describe() == "stop immediately"
        assert RankPolicyTable((0,)).describe() == "stop at 1"
        assert RankPolicyTable((0, 0, 0)).describe() == "never stop at 1"
        assert RankPolicyTable((0,) * 9).describe() == "never stop at 1; never stop at 2"
        assert RankPolicyTable((0, 1, 0)).describe() == "stop at 1 if rank in [1]"
        assert RankPolicyTable(canonical_rules(3)["rank_rule_b"]).describe() == (
            "stop at 1 if rank in [1]; stop at 2 if history in [(2, 1)]")
        # second-step bits behind a stop at 1 are never reached
        assert RankPolicyTable((0, 1, 0, 1, 1, 1, 0, 0, 0)).describe() == (
            "stop at 1 if rank in [1]; never stop at 2")


class TestGridDP:
    def test_uniform_value_m2001(self):
        dp = grid_dp_full_info(Uniform(1), m=2001)
        assert dp.value == pytest.approx(UNIFORM_V, abs=2e-3)

    def test_converges_with_m(self):
        errors = []
        for m in (101, 401, 1601):
            dp = grid_dp_full_info(Uniform(1), m=m)
            errors.append(abs(dp.value - UNIFORM_V))
        assert errors[2] < errors[1] < errors[0]

    def test_two_step_distribution_invariant(self):
        for dist in (Uniform(1), Laplace(1)):
            dp = grid_dp_full_info(dist, m=1001, horizon=2)
            assert dp.value == pytest.approx(15 / 8, abs=1e-3)

    def test_never_stops_at_start(self):
        dp = grid_dp_full_info(Uniform(1), m=501)
        assert not dp.stop_at_start

    def test_all_builtins_within_universal_bounds(self, builtins):
        lo = (109 - math.sqrt(2)) / 48 - 5e-3
        hi = 55 / 24 + 5e-3
        for name, dist in builtins.items():
            dp = grid_dp_full_info(dist, m=2001)
            assert lo <= dp.value <= hi, f"{name}: {dp.value}"

    def test_stage2_regions_match_closed_form_rule(self):
        dp = grid_dp_full_info(Uniform(1), m=2001)
        policy = full_info_policy(Uniform(1))
        assert stage2_disagreement(dp, policy) <= 0.01

    def test_stage1_region_matches_threshold(self):
        dp = grid_dp_full_info(Uniform(1), m=2001)
        x1s = solve_full_info(Uniform(1)).x1_star
        rule = (dp.atoms > 0) & (dp.atoms <= x1s)
        assert np.mean(rule != dp.stop_first) <= 0.01

    def test_dp_agrees_with_monte_carlo_policy_value(self):
        # assemble the DP's own decisions into a policy and simulate it: the
        # sample mean must sit near the DP value (two estimators, one truth)
        dp = grid_dp_full_info(Uniform(1), m=2001)
        policy = full_info_policy(Uniform(1))
        cfg = SimConfig(n_paths=200_000, horizon=3, seed=8)
        mc = estimate_expected_rank(Uniform(1), policy, cfg)
        assert abs(mc.mean_rank - dp.value) < 4 * mc.std_error + 2e-3

    def test_m_validation(self):
        with pytest.raises(ValueError):
            grid_dp_full_info(Uniform(1), m=2000)
        with pytest.raises(ValueError):
            grid_dp_full_info(Uniform(1), m=99)


class TestDisagreementExport:
    def test_csv_lists_only_mismatched_cells(self):
        from rankstop.oracle import stage2_disagreement_csv

        dp = grid_dp_full_info(Uniform(1), m=101)
        policy = full_info_policy(Uniform(1))
        text = stage2_disagreement_csv(dp, policy)
        lines = text.strip().splitlines()
        assert lines[0] == "x1,x2,dp_stop,rule_stop"
        frac = stage2_disagreement(dp, policy)
        assert len(lines) - 1 == round(frac * 101**2)
        for line in lines[1:3]:
            x1, x2, dp_stop, rule_stop = line.split(",")
            assert {dp_stop, rule_stop} == {"0", "1"}


class TestDPOnArbitraryDistribution:
    def test_dp_matches_analytic_solver_off_the_builtin_suite(self):
        """Two fully independent solution paths must agree on a distribution
        neither was tuned on."""
        from rankstop.distributions import TabulatedCdf
        from rankstop.fullinfo import solve_full_info

        dist = TabulatedCdf([[0.0, 0.5], [0.3, 0.7], [1.0, 0.85], [2.0, 1.0]])
        sol = solve_full_info(dist)
        dp = grid_dp_full_info(dist, m=1001)
        assert dp.value == pytest.approx(sol.value, abs=5e-3)
