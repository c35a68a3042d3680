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
Only permutation_frequencies, which redraws tied paths, asks the kernel
for tie flags (a zero segment sum); a policy's rank sums never read them.

A chunk is processed in blocks of _BLOCK paths, consecutive row blocks of
the chunk's draws: the stream is consumed as by one whole draw and every
sum is an integer, so blocking changes no result, only the memory traffic.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import SymmetricDistribution
from .walkcore import ALL_ORDERINGS, FULL_INFORMATION, PolicyContractError, StoppingPolicy

# Paths per block of a chunk.  In a sweep from 2^11 to 2^15, 2^13 and 2^14
# ran fastest; one pass over a whole 2^18-path chunk, whose 2 to 6 MB
# temporaries are fresh pages on every allocation, ran 2 to 3 times slower.
_BLOCK = 1 << 14

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
    seed: int = 0
    chunk_size: int = 1 << 18

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
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


def _segment_codes(steps: np.ndarray, ties: bool = True):
    """Sign code of every path and, with ties, a flag for paths with a tied position.

    Bit b is set when the b-th segment sum X_{j+1} + ... + X_k (pairs
    j < k in lexicographic order) is negative: S_k sits below S_j.  Sums
    of the steps themselves keep the sign exact; differenced cumulative
    sums would manufacture ties when a large partial sum absorbs a small
    step.  A zero segment sum leaves its bit clear and, with ties, flags
    the path; without ties the flags are None.

    Segment sums are added left to right, ((X1 + X2) + X3), into one
    buffer, and every comparison lands in one bool scratch: without ties
    a horizon-3 block takes 20 array passes.
    """
    n, horizon = steps.shape
    columns = np.ascontiguousarray(steps.T)
    codes = np.empty(n, dtype=np.uint8)  # 6 bits at horizon 3
    tied = np.zeros(n, dtype=bool) if ties else None
    seg = np.empty(n)  # one running sum, updated in place
    scratch = np.empty(n, dtype=bool)
    scratch_bits = scratch.view(np.uint8)
    bit = 0
    for j in range(horizon):
        for k in range(j + 1, horizon + 1):
            total = columns[j] if k == j + 1 else np.add(total, columns[k - 1], out=seg)
            if bit == 0:
                np.less(total, 0.0, out=codes.view(bool))  # sets codes to bit 0
            else:
                np.less(total, 0.0, out=scratch)
                np.left_shift(scratch_bits, np.uint8(bit), out=scratch_bits)
                codes |= scratch_bits
            if ties:
                np.equal(total, 0.0, out=scratch)
                tied |= scratch
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


def _code_blocks(dist, rng, n, horizon, ties=False):
    """Yield (steps, codes, tied) for n paths, _BLOCK paths at a time;
    tied is None unless ties is set.

    The blocks are consecutive row blocks of rng.random((n, horizon)):
    the generator's stream is consumed exactly as by one whole draw, and
    each block's arrays stay small enough to be cache resident.
    """
    draws = np.empty((min(_BLOCK, n), horizon))
    for start in range(0, n, _BLOCK):
        u = draws[: n - start]  # the whole buffer but for the last block
        rng.random(out=u)
        steps = np.asarray(dist.ppf(u), dtype=float)
        codes, tied = _segment_codes(steps, ties)
        yield steps, codes, tied


def _stop_times(policy, size, observed):
    """First k at which the policy stops on each row of observed(k); -1 if never."""
    tau = np.full(size, -1, dtype=np.intp)
    for k in range(policy.horizon + 1):
        stop_now = (tau < 0) & np.asarray(policy.batch_rule(k, observed(k)), dtype=bool)
        tau[stop_now] = k
    return tau


def _simulate_chunk(dist, policy, n, rng):
    horizon = policy.horizon
    overall, relative, _ = _code_tables(horizon)
    blocks = _code_blocks(dist, rng, n, horizon)
    if policy.mode == FULL_INFORMATION:
        rank_sum = rank_sq_sum = unstopped = 0
        hist = np.zeros(horizon + 1, dtype=np.int64)
        for steps, codes, _ in blocks:
            tau = _stop_times(policy, codes.size, lambda k: steps[:, :k])
            unstopped += int(np.count_nonzero(tau < 0))
            tau = np.maximum(tau, 0)  # an unstopped path fails the chunk below
            rank_tau = overall[codes, tau]
            rank_sum += int(rank_tau.sum())
            rank_sq_sum += int((rank_tau * rank_tau).sum())
            hist += np.bincount(tau, minlength=horizon + 1)
    else:
        # a rank-mode rule sees only relative ranks, so it is decided once per code
        counts = np.zeros(len(overall), dtype=np.int64)
        for _, codes, _ in blocks:
            counts += np.bincount(codes, minlength=len(overall))
        tau = _stop_times(policy, counts.size, lambda k: relative[:, : k + 1])
        unstopped = int(counts[tau < 0].sum())
        tau = np.maximum(tau, 0)  # codes still undecided carry no paths
        rank_tau = overall[np.arange(tau.size), tau]
        rank_sum = int((counts * rank_tau).sum())
        rank_sq_sum = int((counts * rank_tau * rank_tau).sum())
        hist = np.bincount(tau, weights=counts, minlength=horizon + 1)
    if unstopped:
        raise PolicyContractError(
            f"policy {policy.name!r} left {unstopped} paths unstopped at the horizon"
        )
    return float(rank_sum), float(rank_sq_sum), tuple(int(c) for c in hist)


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
    """Simulate every chunk at the policy's horizon and return its partial
    sums, in chunk order.

    Chunks run on min(workers, chunk count, CPU count) threads.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if policy.horizon > 3:  # the uint8 sign code holds 6 segment bits
        raise ValueError(f"simulation horizons run up to 3, got {policy.horizon}")
    tasks = [(idx, min(cfg.chunk_size, cfg.n_paths - start))
             for idx, start in enumerate(range(0, cfg.n_paths, cfg.chunk_size))]

    def job(task):
        idx, size = task
        sums = _simulate_chunk(dist, policy, size, chunk_rng(cfg.seed, idx))
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
    counts: tuple[int, ...]          # aligned with walkcore.ALL_ORDERINGS
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
        while need > 0:  # a round draws all of its rows, then redraws the tied ones
            redraw = 0
            for _, codes, tied in _code_blocks(dist, rng, need, 3, ties=True):
                redraw += int(np.count_nonzero(tied))
                counts += np.bincount(ordering[codes[~tied]], minlength=24)
            ties += redraw
            need = redraw
    return FrequencyResult(counts=tuple(int(c) for c in counts), n_paths=n_paths, ties_resampled=ties)
