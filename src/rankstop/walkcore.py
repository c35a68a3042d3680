"""The stopping-policy interface, rank-rule tables and the ordering table.

A policy sees a batch of paths at once, through exactly the data its
observation model allows.  The 24 strict orderings of S_0..S_3, their
probability table in p and the optimal rank rules live here, beside
the two-step rule, so that simulating a rank rule or enumerating rank
policies at a given p loads no solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

__all__ = [
    "FULL_INFORMATION",
    "RELATIVE_RANKS",
    "PolicyContractError",
    "StoppingPolicy",
    "SECOND_STEP_HISTORIES",
    "RankPolicyTable",
    "TWO_STEP_BITS",
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


class PolicyContractError(RuntimeError):
    """A policy failed to stop by the horizon."""


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
# has the same probability.  Probabilities are affine in the two numbers
# (p, q) of ``relranks.compute_pq``; symmetry fixes q = 1/48 - p, so the
# table takes p alone.
# ---------------------------------------------------------------------------

#: p + q for every continuous symmetric step distribution.
PQ_SUM = Fraction(1, 48)

#: Slack of ``verify``'s checks of p + q = 1/48 and of p <= 1/96.
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
    const: Fraction
    p_coeff: int
    q_coeff: int

    @property
    def positive(self) -> tuple[int, ...]:
        """The reflection of ``negative``, with S1 > 0."""
        return self.negative[::-1]

    def probability(self, p, q):
        """Row probability at (p, q); exact for Fraction inputs."""
        return self.const + self.p_coeff * p + self.q_coeff * q


@dataclass(frozen=True)
class PermutationTable:
    """All 24 strict orderings of S_0..S_3 with their probabilities."""

    p: float | Fraction
    q: float | Fraction
    rows: tuple[TableRow, ...]

    def probabilities(self):
        """Probabilities of ALL_ORDERINGS, in canonical order."""
        one_column = [row.probability(self.p, self.q) for row in self.rows]
        return one_column + one_column

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


def permutation_table(p) -> PermutationTable:
    """Instantiate the 24-row ordering table at p, with q = 1/48 - p in p's
    own type: exact for a Fraction, a float for anything else."""
    total = PQ_SUM if isinstance(p, Fraction) else float(PQ_SUM)
    if not 0 <= p <= total:
        raise ValueError(f"p must lie in [0, 1/48], got {p}")
    return PermutationTable(p=p, q=total - p, rows=tuple(TableRow(*spec) for spec in _ROW_SPEC))


#: Stop bits (RankPolicyTable layout) of the two optimal three-step rank rules.
RANK_RULE_A_BITS = (0, 1, 0, 0, 0, 0, 1, 1, 0)
RANK_RULE_B_BITS = (0, 1, 0, 0, 0, 0, 1, 0, 0)


def rank_policy_a() -> StoppingPolicy:
    """Stop at 1 on a new maximum; else stop at 2 unless S_2 is a new minimum."""
    return RankPolicyTable(RANK_RULE_A_BITS).to_policy("rank_rule_a")


def rank_policy_b() -> StoppingPolicy:
    """Stop at 1 on a new maximum; else stop at 2 only on a new maximum."""
    return RankPolicyTable(RANK_RULE_B_BITS).to_policy("rank_rule_b")
