"""Independent brute-force verifiers.

Two oracles certify the closed-form solutions without sharing code paths
with them:

* Exhaustive enumeration of every rank-adapted stopping rule (512 rules
  for three steps, 8 for two), with expected ranks kept exact as rationals
  in the ordering-table parameters: integer sums over the common
  denominator of the ordering probabilities, one Fraction per rule.  The
  rules are the rows of one bit table, read through the oracle's own slot
  map.

* A dynamic program on the walk with steps discretized into equiprobable
  quantile atoms, which approximates the full-information value and the
  stop regions from nothing but backward induction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .distributions import SymmetricDistribution
from .walkcore import (
    ALL_ORDERINGS,
    RANK_RULE_A_BITS,
    RANK_RULE_B_BITS,
    SECOND_STEP_HISTORIES,
    TWO_STEP_BITS,
    RankPolicyTable,
    StoppingPolicy,
    permutation_table,
)

__all__ = [
    "EnumerationResult",
    "enumerate_rank_policies",
    "canonical_rules",
    "GridDPResult",
    "grid_dp_full_info",
    "stage2_disagreement",
]

# Strict orderings of (0, S1, S2) as descending index chains, with their
# probabilities.  Sign of X1, sign of X2 and the comparison |X2| vs |X1|
# are independent fair coins, which pins every chain: e.g.
# P(S1 > S2 > 0) = P(X1 > 0) P(X2 < 0) P(|X2| < |X1|) = 1/8, while
# S2 > S1 > 0 needs only two coins (X1 > 0, X2 > 0) = 1/4.
_TWO_STEP_ORDERINGS = [
    ((2, 1, 0), Fraction(1, 4)),
    ((1, 2, 0), Fraction(1, 8)),
    ((1, 0, 2), Fraction(1, 8)),
    ((0, 1, 2), Fraction(1, 4)),
    ((0, 2, 1), Fraction(1, 8)),
    ((2, 0, 1), Fraction(1, 8)),
]

# The oracle reads stop bits through its own slot map, not walkcore's reader.
_SECOND_STEP_SLOT = {history: 3 + i for i, history in enumerate(SECOND_STEP_HISTORIES)}


def _ranks_of_chain(chain: tuple[int, ...]):
    """Overall and relative rank sequences implied by a descending chain."""
    n = len(chain) - 1
    position = {idx: slot for slot, idx in enumerate(chain)}
    overall = tuple(position[k] + 1 for k in range(n + 1))
    relative = tuple(
        1 + sum(1 for i in range(k) if position[i] < position[k]) for k in range(n + 1)
    )
    return overall, relative


# (overall, relative) ranks of every chain, per horizon, in ordering order.
_CHAIN_RANKS = {
    2: [_ranks_of_chain(chain) for chain, _ in _TWO_STEP_ORDERINGS],
    3: [_ranks_of_chain(chain) for chain in ALL_ORDERINGS],
}


def _stop_times(rules, n):
    """(rules, chains) array: the first stop index of each row of a 0/1 rule
    table on each chain's relative-rank history, with a forced stop at n.

    Row r stops at 0 if its slot 0 is set, else at 1 if the slot of the
    first relative rank is set, else (n = 3) at 2 if the slot of the
    history's second step is set, else at n.
    """
    rules = np.asarray(rules, dtype=bool)
    taus = np.empty((rules.shape[0], len(_CHAIN_RANKS[n])), dtype=np.intp)
    for c, (_, rel) in enumerate(_CHAIN_RANKS[n]):
        later = 2 if n == 2 else np.where(rules[:, _SECOND_STEP_SLOT[rel[1:3]]], 2, 3)
        taus[:, c] = np.where(rules[:, 0], 0, np.where(rules[:, rel[1]], 1, later))
    return taus


@dataclass(frozen=True)
class EnumerationResult:
    optimal_value: Fraction
    minimizers: tuple[tuple[int, ...], ...]
    policy_count: int
    values: dict
    n: int
    p: Fraction | None = None

    def is_minimizer(self, bits) -> bool:
        """Whether a bit table is behaviorally one of the minimizers.

        Policies are compared by the stopping times they realize on every
        ordering, so unreachable decision bits do not matter.
        """
        target, *optima = _stop_times([tuple(int(b) for b in bits), *self.minimizers], self.n)
        return any((target == row).all() for row in optima)


def enumerate_rank_policies(p=None, n: int = 3) -> EnumerationResult:
    """Exact expected rank of every total rank-adapted rule; returns the optimum.

    For n = 3 the expectation of each rule is affine in p through the
    ordering table, so with a Fraction p the minimum and the set of
    minimizers are exact; a float p is rationalized first.  For n = 2 the
    ordering probabilities are distribution-free and no parameters are
    needed.

    The 2^n_bits rules are the rows of one 0/1 table, in the order of
    itertools.product.  Each chain's stop time under every rule is one
    array step; its weight times its overall rank at that time is summed
    per rule in Python ints (an object array), since the common
    denominator can pass 2^63.
    """
    if n == 2:
        orderings = _TWO_STEP_ORDERINGS
        n_bits = 3
        p = None
    elif n == 3:
        if p is None:
            raise ValueError("three-step enumeration needs p")
        p = p if isinstance(p, Fraction) else Fraction(p).limit_denominator(10**12)
        orderings = list(zip(ALL_ORDERINGS, permutation_table(p).probabilities()))
        n_bits = 9
    else:
        raise ValueError("enumeration supports horizons 2 and 3 only")

    # Integer numerators over one common denominator: a rule's value is a
    # single Fraction, equal (Fractions are canonical) to the sum of terms.
    denom = math.lcm(*(prob.denominator for _, prob in orderings))
    # weighted[c, t]: chain c's weight times its overall rank at time t
    weighted = np.array([[prob.numerator * (denom // prob.denominator) * rank for rank in overall]
                         for (_, prob), (overall, _) in zip(orderings, _CHAIN_RANKS[n])],
                        dtype=object)
    # row r is the bits of r, most significant first: the order of product((0, 1), ...)
    table = (np.arange(1 << n_bits)[:, None] >> np.arange(n_bits - 1, -1, -1)) & 1
    taus = _stop_times(table, n)
    totals = weighted[np.arange(len(weighted)), taus].sum(axis=1).tolist()
    fractions = {total: Fraction(total, denom) for total in set(totals)}
    rules = list(product((0, 1), repeat=n_bits))
    values = {bits: fractions[total] for bits, total in zip(rules, totals)}
    best = min(totals)
    # product order is sorted order, so the minimizers come out sorted
    minimizers = tuple(bits for bits, total in zip(rules, totals) if total == best)
    return EnumerationResult(
        optimal_value=fractions[best],
        minimizers=minimizers,
        policy_count=len(values),
        values=values,
        n=n,
        p=p,
    )


def canonical_rules(n: int = 3) -> dict[str, tuple[int, ...]]:
    """Bit tables of the named rules, the same tuples their policies are built from."""
    named = ({"two_step_rule": TWO_STEP_BITS} if n == 2 else
             {"rank_rule_a": RANK_RULE_A_BITS, "rank_rule_b": RANK_RULE_B_BITS})
    return {**named, "stop_at_start": RankPolicyTable.stop_at(0, n).bits,
            "stop_at_end": RankPolicyTable.stop_at(n, n).bits}


# ---------------------------------------------------------------------------
# Quantile-atom dynamic program for the full-information problem.
# ---------------------------------------------------------------------------

# First-step atoms per pass of the DP and of the stage-2 comparisons, which
# hold (block, m) arrays: 256 rows of m = 2001 atoms are 4 MB per array.
_BLOCK = 256


@dataclass(frozen=True)
class GridDPResult:
    """Backward induction on the walk with steps atomized at midpoint quantiles."""

    value: float
    m: int
    horizon: int
    atoms: np.ndarray
    stop_first: np.ndarray          # (m,) stop decision after one step
    stop_second: np.ndarray | None  # (m, m) stop decision after two steps (horizon 3)
    stop_at_start: bool

    def __post_init__(self):
        if not 1.5 - 1e-9 <= self.value <= 2.5 + 1e-9:
            raise ValueError(f"DP value {self.value} escaped [1.5, 2.5]")


def grid_dp_full_info(dist: SymmetricDistribution, m: int = 2001,
                      horizon: int = 3) -> GridDPResult:
    """Exact backward induction on the atomized walk.

    The step is discretized into m equiprobable atoms at the midpoint
    quantiles (j - 1/2)/m; odd m keeps the atom set sign-symmetric with 0
    represented.  Ties among atom sums, impossible in the continuous
    model, are broken lexicographically by step indices, which makes the
    later position win every tie: comparisons use strict inequality for
    "earlier above later" and weak for the reverse.  The discretization
    error carries no analytic guarantee; tolerances for comparisons
    against exact values were chosen by an m-refinement study.
    """
    if m < 101 or m % 2 == 0:
        raise ValueError(f"atom count must be odd and at least 101, got {m}")
    if horizon not in (2, 3):
        raise ValueError("the DP supports horizons 2 and 3 only")
    u = (np.arange(m) + 0.5) / m
    atoms = np.asarray(dist.ppf(u), dtype=float)
    atoms = 0.5 * (atoms - atoms[::-1])  # exact sign symmetry, middle atom 0

    n_lt_zero = int(np.searchsorted(atoms, 0.0, side="left"))   # (m-1)/2
    p_step_up = (m - n_lt_zero) / m                             # P(X >= 0), ties up

    if horizon == 2:
        w1 = np.empty(m)
        for lo in range(0, m, _BLOCK):
            s1 = atoms[lo : lo + _BLOCK]
            cnt = np.searchsorted(atoms, -s1, side="left")
            # E[R2 | x1] = 1 + P(x2 < -s1) + P(x2 < 0)
            w1[lo : lo + _BLOCK] = 1.0 + cnt / m + n_lt_zero / m
        stop1 = 1.0 + (atoms < 0.0) + p_step_up
        v1 = np.minimum(stop1, w1)
        d1 = stop1 <= w1
        w0 = float(v1.mean())
        # E[R0] = 1 + P(S1 above) + P(S2 above); P(x1 + x2 >= 0) = (m + 1) / (2 m)
        stop0 = 1.0 + p_step_up + (m + 1) / (2 * m)
        return GridDPResult(
            value=float(min(stop0, w0)), m=m, horizon=2, atoms=atoms,
            stop_first=d1, stop_second=None, stop_at_start=stop0 <= w0,
        )

    w1 = np.empty(m)
    d2 = np.empty((m, m), dtype=bool)
    p_s3_below_origin_acc = 0.0
    cnt_neg_step = np.searchsorted(atoms, -atoms, side="left")  # P(x3 < -x2) counts
    for lo in range(0, m, _BLOCK):
        s1 = atoms[lo : lo + _BLOCK, None]
        s2 = s1 + atoms[None, :]
        cnt_origin = np.searchsorted(atoms, -s2, side="left")
        # W2 = 1 + P(S3 < 0) + P(S3 < S1) + P(S3 < S2), later wins ties
        w2 = 1.0 + (cnt_origin + cnt_neg_step[None, :] + n_lt_zero) / m
        r2 = 1.0 + (s2 < 0.0) + (atoms[None, :] < 0.0)
        stop2 = r2 + p_step_up
        v2 = np.minimum(stop2, w2)
        d2[lo : lo + _BLOCK] = stop2 <= w2
        w1[lo : lo + _BLOCK] = v2.mean(axis=1)
        p_s3_below_origin_acc += float(cnt_origin.sum())

    stop1 = 1.0 + (atoms < 0.0) + p_step_up + (m + 1) / (2 * m)
    v1 = np.minimum(stop1, w1)
    d1 = stop1 <= w1
    w0 = float(v1.mean())
    p_s3_up = 1.0 - p_s3_below_origin_acc / m**3
    stop0 = 1.0 + p_step_up + (m + 1) / (2 * m) + p_s3_up
    return GridDPResult(
        value=float(min(stop0, w0)), m=m, horizon=3, atoms=atoms,
        stop_first=d1, stop_second=d2, stop_at_start=stop0 <= w0,
    )


def stage2_disagreement(dp: GridDPResult, policy: StoppingPolicy) -> float:
    """Fraction of (x1, x2) atom cells where the DP stop decision at the
    second step differs from a full-information policy's."""
    if dp.stop_second is None:
        raise ValueError("two-step DP has no second-step decision grid")
    mismatched = 0
    for lo in range(0, dp.m, _BLOCK):
        x1 = dp.atoms[lo : lo + _BLOCK]
        pairs = np.column_stack([np.repeat(x1, dp.m), np.tile(dp.atoms, len(x1))])
        rule = policy.batch_rule(2, pairs).reshape(len(x1), dp.m)
        mismatched += int(np.count_nonzero(rule != dp.stop_second[lo : lo + _BLOCK]))
    return mismatched / dp.m**2
