"""Walk paths, rank bookkeeping, the stopping-policy interface and rank tables.

The 24 strict orderings of S_0..S_3, their probability table in (p, q)
and the optimal rank rules live here, beside the two-step rule, so that
simulating a rank rule or enumerating rank policies at a given p loads no
solver.

Ranks follow the convention R_k = #(i : S_k <= S_i) including the
self-comparison, so rank 1 is the best (the running maximum).  Relative
ranks count only positions observed so far.  Tied positions are rejected
at construction: they have probability zero for continuous steps, so a
tie in a test fixture or simulator output signals a bug rather than an
event to break arbitrarily.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

__all__ = [
    "FULL_INFORMATION",
    "RELATIVE_RANKS",
    "TieError",
    "MonotonicityError",
    "PolicyContractError",
    "WalkPath",
    "RankView",
    "compute_ranks",
    "StoppingPolicy",
    "SECOND_STEP_HISTORIES",
    "RankPolicyTable",
    "TWO_STEP_BITS",
    "run_policy",
    "monotone_transform",
    "stop_at_policy",
    "two_step_policy",
    "PQ_SUM",
    "PQ_TOL",
    "TableRow",
    "PermutationTable",
    "ALL_ORDERINGS",
    "ordering_string",
    "permutation_table",
    "RANK_RULE_A_BITS",
    "RANK_RULE_B_BITS",
    "rank_policy_a",
    "rank_policy_b",
]

FULL_INFORMATION = "full"
RELATIVE_RANKS = "ranks"


class TieError(ValueError):
    """Two walk positions coincide (a probability-zero event)."""


class MonotonicityError(ValueError):
    """A transform claimed to be increasing was not, on the evaluated points."""


class PolicyContractError(RuntimeError):
    """A policy failed to stop by the horizon."""


@dataclass(frozen=True)
class WalkPath:
    """Realized steps X_1..X_n together with the partial sums S_0..S_n."""

    steps: tuple[float, ...]
    sums: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        steps = tuple(float(x) for x in self.steps)
        if len(steps) < 1:
            raise ValueError("a walk needs at least one step")
        sums = (0.0, *np.cumsum(steps).tolist())
        if len(set(sums)) != len(sums):
            raise TieError(f"walk positions contain ties: {sums}")
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "sums", sums)

    @property
    def n(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class RankView:
    """Overall and relative ranks of every position of one path."""

    overall: tuple[int, ...]
    relative: tuple[int, ...]

    def overall_rank(self, k: int) -> int:
        return self.overall[k]

    def relative_rank(self, k: int) -> int:
        return self.relative[k]


def compute_ranks(path: WalkPath) -> RankView:
    """Exact integer ranks of S_0..S_n, overall and among the prefix."""
    s = np.array(path.sums)
    ge = s[:, None] <= s[None, :]  # ge[k, i]: S_k <= S_i
    overall = ge.sum(axis=1)
    relative = np.array([ge[k, : k + 1].sum() for k in range(len(s))])
    return RankView(tuple(int(r) for r in overall), tuple(int(r) for r in relative))


@dataclass(frozen=True)
class StoppingPolicy:
    """A deterministic stop/continue rule adapted to one observation model.

    ``batch_rule(k, observed)`` receives, for a batch of paths, exactly the
    data the filtration allows at time k: the steps X_1..X_k as an
    (n_paths, k) array in full-information mode, or the relative ranks
    R~_0..R~_k as an (n_paths, k + 1) array in relative-ranks mode.  It
    must return a boolean array (True = stop) and must return all True at
    k = horizon.
    """

    mode: str
    horizon: int
    name: str
    batch_rule: Callable[[int, np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.mode not in (FULL_INFORMATION, RELATIVE_RANKS):
            raise ValueError(f"unknown observation mode {self.mode!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")

    def decide(self, k: int, observed) -> bool:
        """Scalar stop decision for one observed prefix."""
        if not 0 <= k <= self.horizon:
            raise ValueError(f"decision time {k} outside 0..{self.horizon}")
        width = k if self.mode == FULL_INFORMATION else k + 1
        arr = np.asarray(observed, dtype=float).reshape(1, -1)
        if arr.shape[1] != width:
            raise ValueError(
                f"{self.mode} policy at k={k} expects a prefix of length {width}, got {arr.shape[1]}"
            )
        return bool(np.asarray(self.batch_rule(k, arr)).reshape(-1)[0])


#: The (R~_1, R~_2) histories of the second decision, in slot order.
SECOND_STEP_HISTORIES = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]

#: First slot of each decision time k = 0, 1, 2 and the end of the table:
#: time k has (k + 1)! relative-rank histories.
_SLOT_OFFSETS = (0, 1, 3, 9)

#: Stop at 1 on a new maximum, else take the second step.
TWO_STEP_BITS = (0, 1, 0)


@dataclass(frozen=True)
class RankPolicyTable:
    """A total relative-ranks rule as one stop bit per decision slot.

    Horizons 1, 2 and 3 take 1, 3 and 9 bits; the bit count gives the
    horizon.  Slot 0 is the decision at the start, slots 1-2 the first
    step's relative rank R~_1 = 1, 2, and slots 3-8 the pairs
    (R~_1, R~_2) in SECOND_STEP_HISTORIES order.  The rule stops at the
    horizon whatever the bits say.
    """

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) not in _SLOT_OFFSETS[1:] or any(b not in (0, 1) for b in self.bits):
            raise ValueError("a rank policy needs 1, 3 or 9 0/1 decision bits (horizon 1, 2 or 3)")
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))

    @classmethod
    def stop_at(cls, k: int, horizon: int) -> RankPolicyTable:
        """The fixed-time rule: a slot stops when its decision time is at least k."""
        if not 1 <= horizon < len(_SLOT_OFFSETS):
            raise ValueError(f"rank tables cover horizons 1..{len(_SLOT_OFFSETS) - 1}, got {horizon}")
        if not 0 <= k <= horizon:
            raise ValueError(f"stop time {k} outside 0..{horizon}")
        return cls(tuple(int(t >= k) for t in range(horizon)
                         for _ in range(_SLOT_OFFSETS[t], _SLOT_OFFSETS[t + 1])))

    @property
    def horizon(self) -> int:
        return _SLOT_OFFSETS.index(len(self.bits))

    def to_policy(self, name: str | None = None) -> StoppingPolicy:
        """The rule as a relative-ranks policy.

        Before the horizon, the decision at time k reads the slot
        offset[k] + the mixed-radix index of (R~_1..R~_k), where R~_j runs
        over 1..j + 1.
        """
        horizon = self.horizon
        bits = np.array(self.bits, dtype=bool)

        def rule(k, observed):
            if k >= horizon:
                return np.ones(observed.shape[0], dtype=bool)
            index = np.zeros(observed.shape[0], dtype=np.intp)
            for j in range(1, k + 1):
                index = index * (j + 1) + observed[:, j].astype(np.intp) - 1
            return bits[_SLOT_OFFSETS[k] + index]

        name = name or f"rank_table_{''.join(map(str, self.bits))}"
        return StoppingPolicy(RELATIVE_RANKS, horizon, name, rule)

    def describe(self) -> str:
        """Where the rule stops before the forced stop at the horizon."""
        if self.bits[0]:
            return "stop immediately"
        parts = []
        if self.horizon > 1:
            first = [r for r in (1, 2) if self.bits[r]]
            parts.append(f"stop at 1 if rank in {first}" if first else "never stop at 1")
        if self.horizon > 2:
            second = [h for slot, h in enumerate(SECOND_STEP_HISTORIES, _SLOT_OFFSETS[2])
                      if self.bits[slot] and not self.bits[h[0]]]
            parts.append(f"stop at 2 if history in {second}" if second else "never stop at 2")
        return "; ".join(parts) or "stop at 1"


def run_policy(policy: StoppingPolicy, path: WalkPath) -> tuple[int, int]:
    """First stopping time of the policy on the path and the rank obtained."""
    if path.n != policy.horizon:
        raise ValueError(f"policy horizon {policy.horizon} does not match path length {path.n}")
    ranks = compute_ranks(path)
    for k in range(path.n + 1):
        observed = path.steps[:k] if policy.mode == FULL_INFORMATION else ranks.relative[: k + 1]
        if policy.decide(k, observed):
            return k, ranks.overall[k]
    raise PolicyContractError(f"policy {policy.name!r} never stopped by k={path.n}")


def monotone_transform(path: WalkPath, g) -> tuple[float, ...]:
    """Positions g(S_0)..g(S_n) for a strictly increasing g.

    Ranks are invariant under such transforms; callers can therefore map a
    walk onto, say, discretely sampled geometric Brownian motion without
    changing any stopping problem.  Non-monotonicity of g on the evaluated
    points is detected and rejected.
    """
    values = tuple(float(g(s)) for s in path.sums)
    order = np.argsort(path.sums)
    transformed = np.array(values)[order]
    if np.any(np.diff(transformed) <= 0):
        raise MonotonicityError("transform is not strictly increasing on the walk positions")
    return values


def stop_at_policy(k: int, horizon: int) -> StoppingPolicy:
    """The fixed-time rule: continue until k, then stop."""
    return RankPolicyTable.stop_at(k, horizon).to_policy(f"stop_at_{k}")


def two_step_policy() -> StoppingPolicy:
    """The optimal two-step rule: stop after the first step iff it is a new
    maximum, else take the second.  Optimal for every continuous symmetric
    step law, in both observation models, with expected rank 15/8."""
    return RankPolicyTable(TWO_STEP_BITS).to_policy("two_step_rule")


# ---------------------------------------------------------------------------
# The 24-ordering probability table.
#
# Orderings are descending chains of position indices: (2, 0, 3, 1) means
# S2 > S0 > S3 > S1 (index 0 is the origin S0 = 0).  Each row pairs an
# ordering having S1 < 0 with its sign flip, which reverses the chain and
# has the same probability.  Probabilities are affine in (p, q), the two
# numbers of ``relranks.compute_pq``, with p + q = 1/48.
# ---------------------------------------------------------------------------

#: p + q for every continuous symmetric step distribution.
PQ_SUM = Fraction(1, 48)

#: Slack on p + q = 1/48 and on p <= 1/96, here, in ``relranks`` and in ``verify``.
PQ_TOL = 1e-9

_ROW_SPEC = [
    # (negative chain, Fraction const, p coeff, q coeff)
    ((0, 1, 2, 3), Fraction(1, 8), 0, 0),
    ((0, 1, 3, 2), Fraction(1, 16), 0, 0),
    ((0, 2, 1, 3), Fraction(1, 24), 0, 0),
    ((0, 2, 3, 1), Fraction(1, 48), 0, 0),
    ((0, 3, 1, 2), Fraction(1, 48), 2, 0),
    ((0, 3, 2, 1), Fraction(0), 0, 2),
    ((2, 0, 1, 3), Fraction(1, 48), 0, 0),
    ((2, 0, 3, 1), Fraction(0), 2, 0),
    ((2, 3, 0, 1), Fraction(0), 0, 2),
    ((3, 0, 1, 2), Fraction(0), 0, 2),
    ((3, 0, 2, 1), Fraction(1, 48), 2, 0),
    ((3, 2, 0, 1), Fraction(1, 16), 0, 0),
]

#: Canonical order of all 24 chains: table rows top to bottom, negative
#: column first, then the mirrored column.
ALL_ORDERINGS: list[tuple[int, ...]] = [row for row, *_ in _ROW_SPEC] + [
    row[::-1] for row, *_ in _ROW_SPEC
]


def ordering_string(chain: tuple[int, ...], ascending: bool = False) -> str:
    """Render a descending chain, optionally in ascending (mirrored) form."""
    names = ["0" if i == 0 else f"S{i}" for i in chain]
    if ascending:
        return "<".join(reversed(names))
    return ">".join(names)


@dataclass(frozen=True)
class TableRow:
    negative: tuple[int, ...]   # chain with S1 < 0
    positive: tuple[int, ...]   # its reflection, with S1 > 0
    const: Fraction
    p_coeff: int
    q_coeff: int

    def probability(self, p, q):
        """Row probability at (p, q); exact for Fraction inputs."""
        return self.const + self.p_coeff * p + self.q_coeff * q


@dataclass(frozen=True)
class PermutationTable:
    """All 24 strict orderings of S_0..S_3 with their probabilities."""

    p: float | Fraction
    q: float | Fraction
    rows: tuple[TableRow, ...]

    def probability(self, chain: tuple[int, ...]):
        chain = tuple(chain)
        for row in self.rows:
            if chain in (row.negative, row.positive):
                return row.probability(self.p, self.q)
        raise KeyError(f"not an ordering of four positions: {chain}")

    def probabilities(self):
        """Probabilities of ALL_ORDERINGS, in canonical order."""
        one_column = [row.probability(self.p, self.q) for row in self.rows]
        return one_column + one_column

    def total(self):
        return sum(self.probabilities())

    def as_records(self) -> list[dict]:
        out = []
        for row in self.rows:
            out.append({
                "ordering": ordering_string(row.negative),
                "reflection": ordering_string(row.positive, ascending=True),
                "constant": str(row.const),
                "p_coefficient": row.p_coeff,
                "q_coefficient": row.q_coeff,
                "probability": float(row.probability(self.p, self.q)),
            })
        return out


def permutation_table(p, q) -> PermutationTable:
    """Instantiate the 24-row ordering table at a given (p, q)."""
    if float(p) < 0 or float(q) < 0:
        raise ValueError(f"p and q must be nonnegative, got p={p}, q={q}")
    if abs(float(p) + float(q) - float(PQ_SUM)) > PQ_TOL:
        raise ValueError(f"p + q must equal 1/48, got {float(p) + float(q)}")
    rows = tuple(TableRow(neg, neg[::-1], c, cp, cq) for neg, c, cp, cq in _ROW_SPEC)
    return PermutationTable(p=p, q=q, rows=rows)


#: Stop bits (RankPolicyTable layout) of the two optimal three-step rank rules.
RANK_RULE_A_BITS = (0, 1, 0, 0, 0, 0, 1, 1, 0)
RANK_RULE_B_BITS = (0, 1, 0, 0, 0, 0, 1, 0, 0)


def rank_policy_a() -> StoppingPolicy:
    """Stop at 1 on a new maximum; else stop at 2 unless S_2 is a new minimum."""
    return RankPolicyTable(RANK_RULE_A_BITS).to_policy("rank_rule_a")


def rank_policy_b() -> StoppingPolicy:
    """Stop at 1 on a new maximum; else stop at 2 only on a new maximum."""
    return RankPolicyTable(RANK_RULE_B_BITS).to_policy("rank_rule_b")
