import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from test_walkcore import WalkPath, brute_force_ranks, run_policy

from rankstop import simulate
from rankstop.distributions import IntervalUnionUniform, Laplace, SymmetricDistribution, Uniform
from rankstop.fullinfo import full_info_policy, solve_full_info
from rankstop.oracle import RankPolicyTable, _ranks_of_chain
from rankstop.simulate import (
    ChunkPartial,
    SimConfig,
    SimResult,
    _BLOCK,
    _code_tables,
    _segment_codes,
    _simulate_chunk,
    chunk_partials,
    chunk_rng,
    estimate_expected_rank,
    permutation_frequencies,
    reduce_partials,
)
from rankstop.walkcore import (
    ALL_ORDERINGS,
    FULL_INFORMATION,
    RELATIVE_RANKS,
    PolicyContractError,
    StoppingPolicy,
    permutation_table,
    rank_policy_a,
    rank_policy_b,
    stop_at_policy,
    two_step_policy,
)


class TestEstimateExpectedRank:
    def test_stop_at_origin_mean(self):
        cfg = SimConfig(n_paths=10**6, seed=1)
        res = estimate_expected_rank(Uniform(1), stop_at_policy(0, 3), cfg)
        assert abs(res.mean_rank - 2.5) <= 3 * res.std_error
        assert res.stop_time_histogram == (10**6, 0, 0, 0)

    def test_stop_at_horizon_mean(self):
        # E[R_n] = 1 + 3/2 by symmetry of each comparison
        cfg = SimConfig(n_paths=10**6, seed=2)
        res = estimate_expected_rank(Laplace(1), stop_at_policy(3, 3), cfg)
        assert abs(res.mean_rank - 2.5) <= 3 * res.std_error

    def test_two_step_rule_on_laplace(self):
        cfg = SimConfig(n_paths=10**6, seed=3)
        res = estimate_expected_rank(Laplace(1), two_step_policy(), cfg)
        assert abs(res.mean_rank - 15 / 8) <= 3 * res.std_error

    def test_rank_rule_a_on_uniform(self):
        cfg = SimConfig(n_paths=10**6, seed=4)
        res = estimate_expected_rank(Uniform(1), rank_policy_a(), cfg)
        assert abs(res.mean_rank - 55 / 24) <= 3 * res.std_error

    def test_rank_rule_a_on_laplace(self):
        # p = 1/192 makes the optimal rank value 73/32
        cfg = SimConfig(n_paths=10**6, seed=14)
        res = estimate_expected_rank(Laplace(1), rank_policy_a(), cfg)
        assert abs(res.mean_rank - 73 / 32) <= 3 * res.std_error

    def test_rank_rule_b_on_interval_union(self):
        cfg = SimConfig(n_paths=10**6, seed=15)
        res = estimate_expected_rank(IntervalUnionUniform(1, 2), rank_policy_b(), cfg)
        assert abs(res.mean_rank - 55 / 24) <= 3 * res.std_error

    def test_histogram_accounts_for_all_paths(self):
        cfg = SimConfig(n_paths=12345, seed=5)
        res = estimate_expected_rank(Uniform(1), rank_policy_b(), cfg)
        assert sum(res.stop_time_histogram) == 12345
        assert res.stop_time_histogram[0] == 0  # the rule never stops at 0

    def test_full_info_stop_time_structure(self):
        # P(stop at 1) = F(x1*) - 1/2: a sharper check than the mean alone
        sol = solve_full_info(Uniform(1))
        cfg = SimConfig(n_paths=10**6, seed=6)
        res = estimate_expected_rank(Uniform(1), full_info_policy(Uniform(1), sol.x1_star), cfg)
        target = sol.F_at_threshold - 0.5
        observed = res.stop_time_histogram[1] / res.n_paths
        se = math.sqrt(target * (1 - target) / res.n_paths)
        assert abs(observed - target) <= 4 * se

    @pytest.mark.parametrize("horizon", [4, 40])
    def test_horizon_above_3_is_rejected_before_any_draw(self, monkeypatch, horizon):
        # the kernel's uint8 sign code holds the 6 segment bits of horizon 3
        def no_draw(*_):
            raise AssertionError("a chunk generator was made")

        monkeypatch.setattr(simulate, "chunk_rng", no_draw)
        policy = StoppingPolicy(RELATIVE_RANKS, horizon, "late",
                                lambda k, obs: np.full(obs.shape[0], k >= horizon))
        with pytest.raises(ValueError, match=f"up to 3, got {horizon}"):
            chunk_partials(Uniform(1), policy, SimConfig(n_paths=100, seed=0))

    def test_policy_contract_violation(self):
        never = StoppingPolicy(
            RELATIVE_RANKS, 3, "never",
            lambda k, obs: np.zeros(obs.shape[0], dtype=bool),
        )
        with pytest.raises(PolicyContractError):
            estimate_expected_rank(Uniform(1), never, SimConfig(n_paths=10, seed=0))

    def test_result_validation(self):
        with pytest.raises(ValueError):
            SimResult(mean_rank=2.0, std_error=0.0, n_paths=5, stop_time_histogram=(1, 1))
        with pytest.raises(ValueError):
            SimResult(mean_rank=9.0, std_error=0.0, n_paths=2, stop_time_histogram=(1, 1))


class TestReproducibility:
    def test_identical_config_identical_result(self):
        cfg = SimConfig(n_paths=300_000, seed=42)
        a = estimate_expected_rank(Uniform(1), rank_policy_a(), cfg)
        b = estimate_expected_rank(Uniform(1), rank_policy_a(), cfg)
        assert a == b

    @pytest.mark.parametrize("workers", [4, 16])
    def test_worker_count_does_not_change_result(self, workers):
        cfg = SimConfig(n_paths=300_000, seed=42, chunk_size=1 << 15)
        serial = estimate_expected_rank(Uniform(1), rank_policy_a(), cfg)
        parallel = estimate_expected_rank(Uniform(1), rank_policy_a(), cfg, workers=workers)
        assert serial == parallel

    def test_chunk_rng_deterministic(self):
        a = chunk_rng(7, 3).random(10)
        b = chunk_rng(7, 3).random(10)
        c = chunk_rng(7, 4).random(10)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_clt_z_scores_across_seeds(self):
        # 50 independent estimates of a known mean: the z-scores should look
        # standard normal, so their spread sits near 1
        zs = []
        for seed in range(50):
            cfg = SimConfig(n_paths=20_000, seed=seed)
            res = estimate_expected_rank(Uniform(1), stop_at_policy(0, 3), cfg)
            zs.append((res.mean_rank - 2.5) / res.std_error)
        spread = float(np.std(zs, ddof=1))
        assert 0.7 <= spread <= 1.4


class TestPermutationFrequencies:
    def test_uniform_against_table(self):
        n = 2 * 10**6
        freq = permutation_frequencies(Uniform(1), n, seed=9)
        table = permutation_table(Fraction(1, 96))
        probs = np.array([float(v) for v in table.probabilities()])
        se = np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(freq.frequencies - probs) <= 4 * se)

    def test_reflection_pairs_balance(self):
        n = 10**6
        freq = permutation_frequencies(Laplace(1), n, seed=10)
        f = freq.frequencies
        for i in range(12):
            a, b = f[i], f[12 + i]
            pool = (a + b) / 2
            se = math.sqrt(max(2 * pool * (1 - pool) / n, 1e-12))
            assert abs(a - b) <= 4 * se

    def test_frequencies_sum_to_one(self):
        freq = permutation_frequencies(Uniform(1), 10**5, seed=11)
        assert sum(freq.counts) == 10**5
        assert freq.frequencies.sum() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        a = permutation_frequencies(Uniform(1), 10**5, seed=12)
        b = permutation_frequencies(Uniform(1), 10**5, seed=12)
        assert a == b


class TestChunkPartials:
    def test_reduction_equals_estimate(self):
        cfg = SimConfig(n_paths=100_000, seed=21, chunk_size=1 << 14)
        parts = chunk_partials(Uniform(1), rank_policy_a(), cfg)
        assert len(parts) == math.ceil(cfg.n_paths / cfg.chunk_size)
        assert [p.index for p in parts] == list(range(len(parts)))
        assert reduce_partials(parts) == estimate_expected_rank(Uniform(1), rank_policy_a(), cfg)

    def test_partials_account_for_every_path(self):
        cfg = SimConfig(n_paths=50_001, seed=22, chunk_size=10_000)
        parts = chunk_partials(Laplace(1), two_step_policy(), cfg)
        assert sum(p.n_paths for p in parts) == 50_001
        assert parts[-1].n_paths == 1


class TestScalarBatchConsistency:
    def test_run_policy_agrees_with_vectorized_ranks(self):
        """The scalar path runner and the code kernel compute ranks with
        independent machinery; they must agree path by path and in total."""
        steps = np.asarray(Uniform(1).ppf(np.random.default_rng(123).random((200, 3))))
        codes, tied = _segment_codes(steps)
        overall, relative, _ = _code_tables(3)
        assert not tied.any()
        for policy in (rank_policy_a(), rank_policy_b(), RankPolicyTable(_CUSTOM_BITS).to_policy(),
                       full_info_policy(Uniform(1), _UNIFORM_X1)):
            ranks, hist = [], [0] * 4
            for i in range(steps.shape[0]):
                tau, rank = run_policy(policy, WalkPath(tuple(steps[i])))
                assert rank == overall[codes[i], tau]
                if policy.mode == RELATIVE_RANKS:
                    # replay the batch decision sequence on this path's table row
                    batch_tau = next(k for k in range(4) if policy.batch_rule(
                        k, relative[codes[i : i + 1], : k + 1])[0])
                    assert tau == batch_tau
                ranks.append(rank)
                hist[tau] += 1
            total, total_sq, chunk_hist = _simulate_chunk(
                Uniform(1), policy, 200, np.random.default_rng(123))
            assert (total, total_sq) == (sum(ranks), sum(r * r for r in ranks))
            assert chunk_hist == tuple(hist)


def whole_chunk_reference(dist, policy, horizon, n, rng):
    """The chunk kernel with all n paths in one array, no blocks."""
    steps = np.asarray(dist.ppf(rng.random((n, horizon))), dtype=float)
    codes, _ = _segment_codes(steps)
    overall, relative, _ = _code_tables(horizon)
    full = policy.mode == FULL_INFORMATION
    counts = np.ones(n, dtype=np.int64) if full else np.bincount(codes, minlength=len(overall))
    tau = np.full(counts.size, -1, dtype=np.intp)
    for k in range(horizon + 1):
        observed = steps[:, :k] if full else relative[:, : k + 1]
        stop_now = (tau < 0) & np.asarray(policy.batch_rule(k, observed), dtype=bool)
        tau[stop_now] = k
    unstopped = int(counts[tau < 0].sum())
    if unstopped:
        raise PolicyContractError(f"left {unstopped} paths unstopped")
    tau = np.maximum(tau, 0)
    rank_tau = overall[codes, tau] if full else overall[np.arange(tau.size), tau]
    hist = np.bincount(tau, weights=counts, minlength=horizon + 1)
    return (float((counts * rank_tau).sum()), float((counts * rank_tau**2).sum()),
            tuple(int(c) for c in hist))


def reference_segment_codes(steps):
    """The sign-code kernel as a plain loop: a fresh comparison per bit."""
    n, horizon = steps.shape
    codes = np.zeros(n, dtype=np.uint8)
    tied = np.zeros(n, dtype=bool)
    bit = 0
    for j in range(horizon):
        seg = steps[:, j].copy()
        for k in range(j + 1, horizon + 1):
            if k > j + 1:
                seg += steps[:, k - 1]
            codes |= (seg < 0.0).astype(np.uint8) << np.uint8(bit)
            tied |= seg == 0.0
            bit += 1
    return codes, tied


def whole_round_frequencies(dist, n_paths, seed, chunk_size):
    """permutation_frequencies with each round of draws in one array."""
    ordering = _code_tables(3)[2]
    counts = np.zeros(24, dtype=np.int64)
    ties = 0
    for chunk_idx, start in enumerate(range(0, n_paths, chunk_size)):
        rng = chunk_rng(seed, chunk_idx)
        need = min(chunk_size, n_paths - start)
        while need > 0:
            codes, tied = _segment_codes(np.asarray(dist.ppf(rng.random((need, 3)))))
            ties += int(tied.sum())
            counts += np.bincount(ordering[codes[~tied]], minlength=24)
            need -= int((~tied).sum())
    return tuple(int(c) for c in counts), ties


class NineAtoms(SymmetricDistribution):
    """Nine atoms at multiples of 1/4 in [-1, 1]: ties on most paths."""

    def ppf(self, u):
        return np.round(4.0 * (2.0 * np.asarray(u) - 1.0)) / 4.0


class TestBlocks:
    """A chunk runs in blocks of _BLOCK paths; its sums are those of one
    whole-chunk pass."""

    N = 3 * _BLOCK + 17

    def test_blocks_consume_the_stream_like_one_draw(self):
        whole = chunk_rng(3, 0).random((self.N, 3))
        rng = chunk_rng(3, 0)
        blocks = [rng.random((min(_BLOCK, self.N - i), 3)) for i in range(0, self.N, _BLOCK)]
        np.testing.assert_array_equal(np.concatenate(blocks), whole)

    @pytest.mark.parametrize("dist, make_policy, horizon", [
        (Laplace(1), rank_policy_a, 3),
        (Laplace(1), lambda: full_info_policy(Laplace(1), 0.95), 3),
        (Uniform(1), two_step_policy, 2),
        (Laplace(1), lambda: stop_at_policy(0, 3), 3),
    ], ids=["rank_a", "full_info", "two_step", "stop_at_0"])
    def test_chunk_equals_whole_chunk_reference(self, dist, make_policy, horizon):
        policy = make_policy()
        got = _simulate_chunk(dist, policy, self.N, chunk_rng(31, 2))
        assert got == whole_chunk_reference(dist, policy, horizon, self.N, chunk_rng(31, 2))
        assert sum(got[2]) == self.N

    def test_frequencies_equal_whole_round_reference(self):
        chunk = 2 * _BLOCK + 5
        freq = permutation_frequencies(NineAtoms(), 2 * chunk + 3, seed=8, chunk_size=chunk)
        assert freq.ties_resampled > 2 * chunk  # redraws span several rounds and blocks
        assert (freq.counts, freq.ties_resampled) == whole_round_frequencies(
            NineAtoms(), 2 * chunk + 3, 8, chunk)

    def test_unstopped_count_covers_the_whole_chunk(self):
        # stops at the horizon only after a first step down: half of every block never stops
        def rule(k, observed):
            if k < 3:
                return np.zeros(observed.shape[0], dtype=bool)
            return observed[:, 0] <= 0.0

        up_never = StoppingPolicy(FULL_INFORMATION, 3, "up_never", rule)
        unstopped = int((chunk_rng(4, 0).random((self.N, 3))[:, 0] > 0.5).sum())
        assert unstopped > _BLOCK
        with pytest.raises(PolicyContractError, match=f"left {unstopped} paths unstopped"):
            _simulate_chunk(Uniform(1), up_never, self.N, chunk_rng(4, 0))


class TestCodeTables:
    def test_every_chain_maps_to_its_ordering(self):
        overall, relative, ordering = _code_tables(3)
        for index, chain in enumerate(ALL_ORDERINGS):
            sums = np.empty(4)
            sums[list(chain)] = [3.0, 2.0, 1.0, 0.0]  # chain is descending
            codes, tied = _segment_codes(np.diff(sums - sums[0])[None, :])
            assert not tied[0]
            assert ordering[codes[0]] == index
            assert (tuple(overall[codes[0]]), tuple(relative[codes[0]])) == _ranks_of_chain(chain)
        assert sorted(ordering[ordering >= 0]) == list(range(24))

    @pytest.mark.parametrize("horizon", [1, 2, 3])
    def test_ranks_match_brute_force_counter(self, horizon):
        overall, relative, _ = _code_tables(horizon)
        steps = np.asarray(Laplace(1).ppf(np.random.default_rng(horizon).random((500, horizon))))
        codes, tied = _segment_codes(steps)
        assert not tied.any()
        for i in range(steps.shape[0]):
            expected = brute_force_ranks((0.0, *np.cumsum(steps[i]).tolist()))
            assert (overall[codes[i]].tolist(), relative[codes[i]].tolist()) == expected

    def test_zero_segment_sum_is_flagged(self):
        codes, tied = _segment_codes(np.array([[1.0, -1.0, 0.5], [1.0, 0.5, -2.0]]))
        assert tied.tolist() == [True, False]

    @pytest.mark.parametrize("horizon", [1, 2, 3])
    def test_codes_without_ties_match_the_reference(self, horizon):
        steps = NineAtoms().ppf(np.random.default_rng(40 + horizon).random((5000, horizon)))
        steps = np.vstack([steps, [[-0.0, 0.0, -0.0][:horizon], [0.25, -0.25, -0.0][:horizon]]])
        sums = [functools.reduce(np.add, steps[:, j:k].T)
                for j in range(horizon) for k in range(j + 1, horizon + 1)]
        assert any(((s == 0.0) & np.signbit(s)).any() for s in sums)    # -0.0 sums
        assert any(((s == 0.0) & ~np.signbit(s)).any() for s in sums)   # +0.0 sums
        ref_codes, ref_tied = reference_segment_codes(steps)
        codes, tied = _segment_codes(steps)
        np.testing.assert_array_equal(codes, ref_codes)
        np.testing.assert_array_equal(tied, ref_tied)
        codes, tied = _segment_codes(steps, ties=False)
        np.testing.assert_array_equal(codes, ref_codes)
        assert tied is None

    def test_absorbed_step_keeps_its_sign(self):
        # 1e16 + 1 rounds back to 1e16, but the segment sum X_2 = 1 does not
        codes, tied = _segment_codes(np.array([[1e16, 1.0, 1.0]]))
        assert not tied[0]
        assert _code_tables(3)[0][codes[0]].tolist() == [4, 3, 2, 1]


class TestWorkerCap:
    @pytest.mark.parametrize("workers, n_chunks, cpus, expected", [
        (3, 2, 8, [2]),
        (4, 5, 3, [3]),
        (2, 5, 8, [2]),
        (4, 1, 8, []),
        (2, 5, 1, []),
        (2, 5, None, []),
    ])
    def test_threads_capped(self, monkeypatch, workers, n_chunks, cpus, expected):
        seen = []

        class Recording(simulate.ThreadPoolExecutor):
            def __init__(self, max_workers):
                seen.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: cpus)
        cfg = SimConfig(n_paths=10 * n_chunks, seed=1, chunk_size=10)
        parts = chunk_partials(Uniform(1), rank_policy_a(), cfg, workers=workers)
        assert len(parts) == n_chunks
        assert seen == expected


class Quartered:
    """Steps on {-1.5, -0.5, 0.5, 1.5}: segment sums are often exactly zero."""

    def ppf(self, u):
        return np.floor(np.asarray(u) * 4.0) - 1.5


_CUSTOM_BITS = (0, 0, 1, 1, 0, 1, 0, 1, 1)
_UNIFORM_X1 = 0.8284271247460231

_PINNED_RUNS = {
    "a.uniform": (Uniform(1), rank_policy_a),
    "a.laplace": (Laplace(1), rank_policy_a),
    "b.uniform": (Uniform(1), rank_policy_b),
    "b.laplace": (Laplace(1), rank_policy_b),
    "stop3.uniform": (Uniform(1), lambda: stop_at_policy(3, 3)),
    "stop3.laplace": (Laplace(1), lambda: stop_at_policy(3, 3)),
    "custom.uniform": (Uniform(1), lambda: RankPolicyTable(_CUSTOM_BITS).to_policy()),
    "custom.laplace": (Laplace(1), lambda: RankPolicyTable(_CUSTOM_BITS).to_policy()),
    "two_step.laplace": (Laplace(1), two_step_policy),
    "full_info.uniform": (Uniform(1), lambda: full_info_policy(Uniform(1), _UNIFORM_X1)),
    "a.quartered": (Quartered(), rank_policy_a),
}

# (index, n_paths, rank_sum, rank_sq_sum, histogram) of every chunk for run i
# at seed 100 + i, 10_007 paths and chunks of 4096.  They were computed from
# per-path (n, 4, 4) rank matrices, independently of the sign-code tables.
_PINNED_PARTIALS = {
    "a.uniform": (
        (0, 4096, 9541.0, 26233.0, (0, 2090, 982, 1024)),
        (1, 4096, 9326.0, 25334.0, (0, 2042, 1026, 1028)),
        (2, 1815, 4161.0, 11257.0, (0, 859, 499, 457)),
    ),
    "a.laplace": (
        (0, 4096, 9307.0, 25225.0, (0, 2044, 1023, 1029)),
        (1, 4096, 9399.0, 25745.0, (0, 2058, 967, 1071)),
        (2, 1815, 4111.0, 11103.0, (0, 939, 448, 428)),
    ),
    "b.uniform": (
        (0, 4096, 9577.0, 27183.0, (0, 2087, 486, 1523)),
        (1, 4096, 9463.0, 26635.0, (0, 2009, 536, 1551)),
        (2, 1815, 4207.0, 11885.0, (0, 880, 233, 702)),
    ),
    "b.laplace": (
        (0, 4096, 9445.0, 26501.0, (0, 2020, 513, 1563)),
        (1, 4096, 9387.0, 26299.0, (0, 2068, 515, 1513)),
        (2, 1815, 4170.0, 11596.0, (0, 910, 220, 685)),
    ),
    "stop3.uniform": (
        (0, 4096, 10103.0, 31109.0, (0, 0, 0, 4096)),
        (1, 4096, 10357.0, 32337.0, (0, 0, 0, 4096)),
        (2, 1815, 4504.0, 13902.0, (0, 0, 0, 1815)),
    ),
    "stop3.laplace": (
        (0, 4096, 10208.0, 31518.0, (0, 0, 0, 4096)),
        (1, 4096, 10310.0, 32068.0, (0, 0, 0, 4096)),
        (2, 1815, 4538.0, 14058.0, (0, 0, 0, 1815)),
    ),
    "custom.uniform": (
        (0, 4096, 10717.0, 32653.0, (0, 2032, 1547, 517)),
        (1, 4096, 10847.0, 33505.0, (0, 2033, 1536, 527)),
        (2, 1815, 4782.0, 14620.0, (0, 925, 659, 231)),
    ),
    "custom.laplace": (
        (0, 4096, 10731.0, 32855.0, (0, 2097, 1515, 484)),
        (1, 4096, 10637.0, 32321.0, (0, 1987, 1594, 515)),
        (2, 1815, 4763.0, 14507.0, (0, 939, 657, 219)),
    ),
    "two_step.laplace": (
        (0, 4096, 7573.0, 16483.0, (0, 2073, 2023)),
        (1, 4096, 7664.0, 16868.0, (0, 2023, 2073)),
        (2, 1815, 3444.0, 7654.0, (0, 894, 921)),
    ),
    "full_info.uniform": (
        (0, 4096, 9370.0, 25898.0, (0, 1708, 1009, 1379)),
        (1, 4096, 9212.0, 25176.0, (0, 1663, 1082, 1351)),
        (2, 1815, 4122.0, 11404.0, (0, 735, 458, 622)),
    ),
    "a.quartered": (
        (0, 4096, 9359.0, 25333.0, (0, 2086, 1016, 994)),
        (1, 4096, 9433.0, 25687.0, (0, 2062, 983, 1051)),
        (2, 1815, 4179.0, 11403.0, (0, 893, 458, 464)),
    ),
}

# (counts, n_paths, ties_resampled) for 10_007 paths in chunks of 4096
_PINNED_FREQUENCIES = [
    (Laplace(1), 17, ((1229, 602, 438, 210, 304, 318, 206, 119, 327, 319, 318, 616,
                       1209, 611, 441, 201, 334, 329, 211, 95, 307, 298, 308, 657), 10007, 0)),
    (Quartered(), 18, ((2214, 553, 267, 0, 275, 289, 0, 0, 294, 268, 313, 555,
                        2167, 567, 280, 0, 270, 272, 0, 0, 304, 301, 268, 550), 10007, 7958)),
]


class TestPinnedResults:
    """Exact chunk sums and ordering counts, fixed by (seed, chunk_size, n_paths)."""

    @pytest.mark.parametrize("name", list(_PINNED_RUNS))
    def test_chunk_partials(self, name):
        dist, make_policy = _PINNED_RUNS[name]
        seed = 100 + list(_PINNED_RUNS).index(name)
        cfg = SimConfig(n_paths=10_007, seed=seed, chunk_size=4096)
        expected = [ChunkPartial(*row) for row in _PINNED_PARTIALS[name]]
        assert chunk_partials(dist, make_policy(), cfg, workers=1) == expected
        assert chunk_partials(dist, make_policy(), cfg, workers=2) == expected

    @pytest.mark.parametrize("dist, seed, expected", _PINNED_FREQUENCIES)
    def test_permutation_frequencies(self, dist, seed, expected):
        freq = permutation_frequencies(dist, 10_007, seed=seed, chunk_size=4096)
        assert (freq.counts, freq.n_paths, freq.ties_resampled) == expected
