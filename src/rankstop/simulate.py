"""Seeded Monte Carlo evaluation of stopping policies.

Sampling is inverse-CDF from numpy Generators.  Work is split into fixed
chunks whose generators are derived from (master seed, chunk index), so a
result depends only on (seed, chunk_size, n_paths) and never on how many
workers processed the chunks; the merge is a pure reduction of per-chunk
sums.

A path's ordering is the sign code of its n(n+1)/2 segment sums (6 bits
for n = 3, so horizons run up to 3); a table per horizon maps codes to
ranks and ALL_ORDERINGS indices.  A relative-ranks rule is decided once
per code, so rank sums, histograms and ordering counts are bincounts.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import SymmetricDistribution
from .walkcore import FULL_INFORMATION, PolicyContractError, StoppingPolicy
from .relranks import ALL_ORDERINGS

__all__ = [
    "SimConfig",
    "SimResult",
    "ChunkPartial",
    "FrequencyResult",
    "chunk_rng",
    "chunk_partials",
    "reduce_partials",
    "estimate_expected_rank",
    "permutation_frequencies",
]


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    horizon: int
    seed: int = 0
    chunk_size: int = 1 << 18

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if not 1 <= self.horizon <= 3:
            raise ValueError(f"horizon must be 1, 2 or 3, got {self.horizon}")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")


@dataclass(frozen=True)
class SimResult:
    mean_rank: float
    std_error: float
    n_paths: int
    stop_time_histogram: tuple[int, ...]

    def __post_init__(self):
        if sum(self.stop_time_histogram) != self.n_paths:
            raise ValueError("stop-time histogram does not sum to the path count")
        n_plus_1 = len(self.stop_time_histogram)
        if not 1.0 <= self.mean_rank <= n_plus_1:
            raise ValueError(f"mean rank {self.mean_rank} outside [1, {n_plus_1}]")


def chunk_rng(seed: int, index: int) -> np.random.Generator:
    """Deterministic per-chunk generator derived from the master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _segment_codes(steps: np.ndarray):
    """Sign code of every path and a flag for paths with a tied position.

    Bit b is set when the b-th segment sum X_{j+1} + ... + X_k (pairs
    j < k in lexicographic order) is negative: S_k sits below S_j.  Sums
    of the steps themselves keep the sign exact; differenced cumulative
    sums would manufacture ties when a large partial sum absorbs a small
    step.  A zero segment sum leaves its bit clear and flags the path.
    """
    n, horizon = steps.shape
    columns = np.ascontiguousarray(steps.T)
    codes = np.zeros(n, dtype=np.uint8)  # 6 bits at horizon 3
    tied = np.zeros(n, dtype=bool)
    bit = 0
    for j in range(horizon):
        seg = np.zeros(n)
        for k in range(j + 1, horizon + 1):
            seg = seg + columns[k - 1]
            codes |= (seg < 0.0).view(np.uint8) << np.uint8(bit)
            tied |= seg == 0.0
            bit += 1
    return codes, tied


@functools.cache
def _code_tables(horizon: int):
    """(overall, relative, ordering) of every sign code for one horizon.

    Ranks count the pairwise comparisons: a later position is worse than
    an earlier one it sits below and better otherwise.  ordering is the
    ALL_ORDERINGS index of the strict order a code encodes (horizon 3
    only; -1 elsewhere).
    """
    n_pos = horizon + 1
    pairs = [(j, k) for j in range(n_pos) for k in range(j + 1, n_pos)]
    codes = np.arange(1 << len(pairs))
    below = np.zeros((codes.size, n_pos, n_pos), dtype=bool)
    for bit, (j, k) in enumerate(pairs):
        below[:, j, k] = (codes >> bit) & 1
    relative = 1 + below.sum(axis=1)
    overall = relative + (n_pos - 1 - np.arange(n_pos)) - below.sum(axis=2)
    ordering = np.full(codes.size, -1, dtype=np.intp)
    if horizon == 3:
        for code, ranks in enumerate(overall.tolist()):
            if sorted(ranks) == [1, 2, 3, 4]:
                ordering[code] = ALL_ORDERINGS.index(tuple(sorted(range(4), key=ranks.__getitem__)))
    for table in (overall, relative, ordering):
        table.setflags(write=False)
    return overall, relative, ordering


def _simulate_chunk(dist, policy, horizon, n, rng):
    steps = np.asarray(dist.ppf(rng.random((n, horizon))), dtype=float)
    codes, _ = _segment_codes(steps)
    overall, relative, _ = _code_tables(horizon)
    full = policy.mode == FULL_INFORMATION
    # a rank-mode rule sees only relative ranks, so it is decided once per code
    counts = np.ones(n, dtype=np.int64) if full else np.bincount(codes, minlength=len(overall))
    tau = np.full(counts.size, -1, dtype=np.intp)
    for k in range(horizon + 1):
        observed = steps[:, :k] if full else relative[:, : k + 1]
        stop_now = (tau < 0) & np.asarray(policy.batch_rule(k, observed), dtype=bool)
        tau[stop_now] = k
    unstopped = int(counts[tau < 0].sum())
    if unstopped:
        raise PolicyContractError(
            f"policy {policy.name!r} left {unstopped} paths unstopped at the horizon"
        )
    tau = np.maximum(tau, 0)  # codes still undecided carry no paths
    rank_tau = overall[codes, tau] if full else overall[np.arange(tau.size), tau]
    hist = np.bincount(tau, weights=counts, minlength=horizon + 1)
    return (float((counts * rank_tau).sum()), float((counts * rank_tau**2).sum()),
            tuple(int(c) for c in hist))


@dataclass(frozen=True)
class ChunkPartial:
    """Per-chunk raw sums; the audit trail behind a SimResult."""

    index: int
    n_paths: int
    rank_sum: float
    rank_sq_sum: float
    stop_time_histogram: tuple[int, ...]


def chunk_partials(dist: SymmetricDistribution, policy: StoppingPolicy,
                   cfg: SimConfig, workers: int = 1) -> list[ChunkPartial]:
    """Simulate every chunk and return its partial sums, in chunk order.

    Chunks run on min(workers, chunk count, CPU count) threads.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if policy.horizon != cfg.horizon:
        raise ValueError(
            f"policy horizon {policy.horizon} does not match simulation horizon {cfg.horizon}"
        )
    tasks = [(idx, min(cfg.chunk_size, cfg.n_paths - start))
             for idx, start in enumerate(range(0, cfg.n_paths, cfg.chunk_size))]

    def job(task):
        idx, size = task
        sums = _simulate_chunk(dist, policy, cfg.horizon, size, chunk_rng(cfg.seed, idx))
        return ChunkPartial(idx, size, *sums)  # rank_sum, rank_sq_sum, histogram

    threads = min(workers, len(tasks), os.cpu_count() or 1)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(job, tasks))
    return [job(t) for t in tasks]


def reduce_partials(parts: list[ChunkPartial]) -> SimResult:
    """Pure reduction of chunk partials; independent of worker scheduling."""
    n = sum(p.n_paths for p in parts)
    total = sum(p.rank_sum for p in parts)
    total_sq = sum(p.rank_sq_sum for p in parts)
    hist = np.sum([p.stop_time_histogram for p in parts], axis=0)
    mean = total / n
    var = max(total_sq - n * mean * mean, 0.0) / (n - 1) if n > 1 else 0.0
    return SimResult(
        mean_rank=mean,
        std_error=float(np.sqrt(var / n)),
        n_paths=n,
        stop_time_histogram=tuple(int(c) for c in hist),
    )


def estimate_expected_rank(dist: SymmetricDistribution, policy: StoppingPolicy,
                           cfg: SimConfig, workers: int = 1) -> SimResult:
    """Sample mean and standard error of the rank obtained by a policy."""
    return reduce_partials(chunk_partials(dist, policy, cfg, workers))


@dataclass(frozen=True)
class FrequencyResult:
    counts: tuple[int, ...]          # aligned with relranks.ALL_ORDERINGS
    n_paths: int
    ties_resampled: int

    @property
    def frequencies(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=float) / self.n_paths


def permutation_frequencies(dist: SymmetricDistribution, n_paths: int, seed: int = 0,
                            chunk_size: int = 1 << 20) -> FrequencyResult:
    """Empirical frequencies of the 24 orderings of S_0..S_3.

    Orderings come from the sign codes of the segment sums (sign-exact).
    Tied positions, a probability-zero event that only floating-point
    coincidence can produce, are resampled from the same chunk stream and
    counted.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    ordering = _code_tables(3)[2]
    counts = np.zeros(24, dtype=np.int64)
    ties = 0
    for chunk_idx, start in enumerate(range(0, n_paths, chunk_size)):
        rng = chunk_rng(seed, chunk_idx)
        need = min(chunk_size, n_paths - start)
        while need > 0:
            steps = np.asarray(dist.ppf(rng.random((need, 3))), dtype=float)
            codes, tied = _segment_codes(steps)
            ties += int(tied.sum())
            counts += np.bincount(ordering[codes[~tied]], minlength=24)
            need -= int((~tied).sum())
    return FrequencyResult(counts=tuple(int(c) for c in counts), n_paths=n_paths, ties_resampled=ties)
