"""Acceptance suite: the quantitative exit criteria of the library.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all) and asserts the stated tolerance; the expected constants are the
exact closed forms, evaluated here independently of the library code.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from rankstop.distributions import (
    IntervalUnionUniform,
    Laplace,
    PowerFold,
    Uniform,
    builtin_suite,
)
from rankstop.fullinfo import (
    continuation_value,
    full_info_policy,
    solve_full_info,
    solve_threshold,
)
from rankstop.oracle import (
    canonical_rules,
    enumerate_rank_policies,
    grid_dp_full_info,
    stage2_disagreement,
)
from rankstop.relranks import compute_pq, optimal_rank_value, shift_concentration_check
from rankstop.simulate import (
    SimConfig,
    estimate_expected_rank,
    permutation_frequencies,
)
from rankstop.walkcore import (
    WalkPath,
    compute_ranks,
    monotone_transform,
    permutation_table,
    rank_policy_a,
    rank_policy_b,
    two_step_policy,
)

UNIFORM_X1 = 2.0 * (math.sqrt(2.0) - 1.0)
UNIFORM_V = 11.0 / 4.0 - math.sqrt(2.0) / 3.0
V_LOWER = (109.0 - math.sqrt(2.0)) / 48.0
QUANTILE_BOUND = 0.5 + math.sqrt(2.0) / 4.0


class _Criterion:
    """Prints one PASS/FAIL line per criterion, whatever the outcome."""

    def __init__(self, number, label):
        self.number = number
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {self.label}: {verdict}")
        return False


@pytest.fixture(scope="module")
def suite():
    return builtin_suite()


@pytest.fixture(scope="module")
def solutions(suite):
    return {name: solve_full_info(dist) for name, dist in suite.items()}


@pytest.fixture(scope="module")
def pq_params(suite):
    return {name: compute_pq(dist) for name, dist in suite.items()}


def test_criterion_01_two_step_enumeration():
    with _Criterion(1, "two-step enumeration returns 15/8 and the optimal rule"):
        start = time.perf_counter()
        result = enumerate_rank_policies(n=2)
        elapsed = time.perf_counter() - start
        assert result.optimal_value == Fraction(15, 8)
        assert result.is_minimizer(canonical_rules(2)["two_step_rule"])
        assert elapsed < 1.0


def test_criterion_02_uniform_full_information():
    with _Criterion(2, "uniform threshold and value to closed form"):
        start = time.perf_counter()
        dist = Uniform(1)
        x1s = solve_threshold(dist)
        sol = solve_full_info(dist)
        elapsed = time.perf_counter() - start
        assert abs(x1s - UNIFORM_X1) <= 1e-9
        assert abs(sol.value - UNIFORM_V) <= 1e-8
        assert elapsed < 10.0


def test_criterion_03_laplace_full_information():
    with _Criterion(3, "laplace threshold, value, and 50-point curve match"):
        dist = Laplace(1)
        sol = solve_full_info(dist)
        assert abs(sol.x1_star - 1.71) <= 5e-3
        assert abs(sol.value - 2.271) <= 1e-3
        xs = np.concatenate([np.linspace(0.05, 5.0, 25), -np.linspace(0.05, 5.0, 25)])
        for x in xs:
            if x > 0:
                closed = (15 / 8 + x * math.exp(-x) / 8 + math.exp(-x) / 2
                          - math.exp(-2 * x) / 8)
            else:
                closed = (23 / 8 + x * math.exp(x) / 8 - math.exp(x) / 2
                          - math.exp(2 * x) / 8)
            assert abs(continuation_value(dist, x) - closed) <= 1e-8


def test_criterion_04_pq_quadrature(suite, pq_params):
    with _Criterion(4, "p and q quadrature against closed forms"):
        assert abs(pq_params["uniform"].p - 1 / 96) <= 1e-10
        assert abs(pq_params["laplace"].p - 1 / 192) <= 1e-9
        for name, pq in pq_params.items():
            assert abs(pq.p + pq.q - 1 / 48) <= 1e-9, name


def test_criterion_05_rank_value_equals_enumeration():
    with _Criterion(5, "closed-form rank value equals exact enumeration"):
        for p in (Fraction(1, 192), Fraction(1, 96), Fraction(1, 48),
                  Fraction(1, 100), Fraction(1, 60)):
            start = time.perf_counter()
            result = enumerate_rank_policies(p, n=3)
            elapsed = time.perf_counter() - start
            assert result.policy_count <= 512
            assert result.optimal_value == optimal_rank_value(p)
            assert elapsed < 1.0


def test_criterion_06_summary_table():
    with _Criterion(6, "summary table reproduced from live computation"):
        from click.testing import CliRunner
        import json

        from rankstop.cli import main

        res = CliRunner().invoke(main, ["table2"], catch_exceptions=False)
        assert res.exit_code == 0
        rows = {(r["version"], r["description"]): r["expected_rank"]
                for r in json.loads(res.output)["rows"]}
        exact = {
            ("Full Information", "Lower bound"): V_LOWER,
            ("Full Information", "Maximum"): 55 / 24,
            ("Relative Ranks", "Greatest Lower Bound"): 109 / 48,
            ("Relative Ranks", "Laplace Distribution"): 73 / 32,
            ("Relative Ranks", "Uniform Distribution"): 55 / 24,
            ("Relative Ranks", "Maximum"): 55 / 24,
            ("Both Versions", "Stopping Immediately"): 2.5,
        }
        for key, want in exact.items():
            assert abs(rows[key] - want) <= 1e-9, key
        assert abs(rows[("Full Information", "Laplace Distribution")] - 2.271) <= 1e-3
        assert abs(rows[("Full Information", "Uniform Distribution")] - 2.279) <= 1e-3
        assert len(rows) == 9


def test_criterion_07_bound_suite(suite, solutions, pq_params):
    with _Criterion(7, "universal bounds hold for every built-in"):
        for name, dist in suite.items():
            sol = solutions[name]
            assert dist.cdf(sol.x1_star) >= QUANTILE_BOUND - 1e-9, name
            assert V_LOWER - 1e-9 <= sol.value <= 55 / 24 + 1e-9, name
            if shift_concentration_check(dist).member:
                assert pq_params[name].p <= 1 / 96 + 1e-9, name


def test_criterion_08_upper_bound_attained():
    with _Criterion(8, "value 55/24 attained by the two-interval uniform"):
        sol = solve_full_info(IntervalUnionUniform(1, 2))
        assert abs(sol.value - 55 / 24) <= 1e-8


def test_criterion_09_sharpness_family():
    with _Criterion(9, "small-exponent family drives p toward its infimum"):
        ps = [compute_pq(PowerFold(delta)).p for delta in (0.2, 0.1, 0.05)]
        assert ps[0] > ps[1] > ps[2] > 0
        assert ps[2] < 1 / 960
        values = [optimal_rank_value(p) for p in ps]
        assert values[0] > values[1] > values[2]
        assert values[2] <= 109 / 48 + 2 / 960


def test_criterion_10_monte_carlo_cross_checks(solutions):
    with _Criterion(10, "million-path checks of all four optimal rules"):
        start = time.perf_counter()

        uniform, laplace = Uniform(1), Laplace(1)
        interval = IntervalUnionUniform(1, 2)
        runs = [
            (laplace, two_step_policy(), 2, 15 / 8),
            (uniform, full_info_policy(uniform, solutions["uniform"].x1_star), 3,
             solutions["uniform"].value),
            (uniform, rank_policy_a(), 3, 55 / 24),
            (interval, rank_policy_b(), 3, 55 / 24),
        ]
        for i, (dist, policy, horizon, target) in enumerate(runs):
            cfg = SimConfig(n_paths=10**6, horizon=horizon, seed=1000 + i)
            res = estimate_expected_rank(dist, policy, cfg)
            assert abs(res.mean_rank - target) <= 3 * res.std_error, policy.name

        freq = permutation_frequencies(uniform, 10**7, seed=2026)
        table = permutation_table(Fraction(1, 96), Fraction(1, 96))
        probs = np.array([float(v) for v in table.probabilities()])
        se = np.sqrt(probs * (1 - probs) / 10**7)
        assert np.all(np.abs(freq.frequencies - probs) <= 4 * se)
        assert time.perf_counter() - start < 300.0


def test_criterion_11_grid_dp_consistency():
    with _Criterion(11, "quantile-atom DP agrees with the analytic solution"):
        dist = Uniform(1)
        dp = grid_dp_full_info(dist, m=2001)
        assert abs(dp.value - UNIFORM_V) <= 2e-3
        assert stage2_disagreement(dp, full_info_policy(dist, UNIFORM_X1)) <= 0.01


def test_criterion_12_property_suite(suite):
    with _Criterion(12, "symmetry, inverses, invariances, reproducibility"):
        for name, dist in suite.items():
            lo, hi = dist.support
            lo = lo if math.isfinite(lo) else dist.quantile(1e-9)
            hi = hi if math.isfinite(hi) else dist.quantile(1 - 1e-9)
            xs = np.linspace(lo, hi, 1000)
            assert np.max(np.abs(dist.cdf(xs) + dist.cdf(-xs) - 1.0)) < 1e-12, name
            us = np.linspace(1e-6, 1 - 1e-6, 1000)
            assert np.max(np.abs(dist.cdf(dist.ppf(us)) - us)) < 1e-10, name

        path = WalkPath((0.6, -1.4, 0.9))
        ranks = compute_ranks(path)
        transformed = monotone_transform(path, math.exp)
        order = np.argsort(transformed)
        assert np.array_equal(np.argsort(path.sums), order)
        assert ranks.overall_rank(0) == sorted(transformed, reverse=True).index(
            transformed[0]) + 1

        dist = Uniform(1)
        xs = np.linspace(0.01, 0.99, 40)
        vals = [continuation_value(dist, x) for x in xs]
        assert np.all(np.diff(vals) <= 1e-9)

        cfg = SimConfig(n_paths=200_000, horizon=3, seed=12, chunk_size=1 << 15)
        one = estimate_expected_rank(dist, rank_policy_a(), cfg)
        again = estimate_expected_rank(dist, rank_policy_a(), cfg)
        many = estimate_expected_rank(dist, rank_policy_a(), cfg, workers=8)
        assert one == again == many
