"""The three-step solution when only relative ranks are observed.

Everything here reduces to two numbers p and q: the probabilities that the
walk makes three ascending positive records with the third step below,
respectively above, the sum of the first two.  Symmetry forces
p + q = 1/48, and q has a two-dimensional folded-CDF integral

    q = (1/16) * integral over (0,1)^2 of {1 - G(Ginv(u) + Ginv(v))} du dv,

so p is computed as 1/48 - q.  By the same symmetry the inner integral,
J(y), is 4 times a dF-integral of the continuation curve,
I(y) = integral over (F(y - upper), 1/2) of F(Q(s) - y) ds (put
s = (1 - u)/2 and use F(-z) = 1 - F(z)), and with v = 2r - 1

    q = (1/2) * integral over (1/2, 1) of I(Q(r)) dr.

``compute_pq`` evaluates this form with ``fullinfo``'s integrals, which
cut and integrate for both solvers; this module keeps only the formula.
The probabilities of all 24 strict orderings of S_0..S_3 are affine in
(p, q); the table drives both the optimal rank rule and the exact
policy-enumeration oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .distributions import SymmetricDistribution, TabulatedCdf
from .fullinfo import _df_integrals, _u_integrals
# integrate_detailed is unused here; perfbench/tracer.py patches it by attribute.
from .numerics import QuadratureConfig, integrate_detailed, tolerance_record
from .walkcore import RankPolicyTable, StoppingPolicy

__all__ = [
    "PQ_SUM",
    "PQ_TOL",
    "PQ_INNER_CFG",
    "PQParams",
    "TableRow",
    "PermutationTable",
    "ALL_ORDERINGS",
    "ordering_string",
    "compute_pq",
    "shift_concentration_check",
    "ConcentrationReport",
    "permutation_table",
    "optimal_rank_policy",
    "RANK_RULE_A_BITS",
    "RANK_RULE_B_BITS",
    "rank_policy_a",
    "rank_policy_b",
    "optimal_rank_value",
    "two_step_case_values",
    "CaseValueReport",
]

#: p + q for every continuous symmetric step distribution.
PQ_SUM = Fraction(1, 48)

#: Default tolerance of q's inner integrals J, in the folded form.  The
#: outer integral runs at ``PQ_INNER_CFG.outer()``, two decades looser
#: (1e-11), so that it stays above the inner integrals' noise floor and
#: does not chase it.
PQ_INNER_CFG = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13)

#: Slack on p + q = 1/48 and on p <= 1/96, here and in ``verify``.
PQ_TOL = 1e-9


@dataclass(frozen=True)
class PQParams:
    """The pair (p, q) for one distribution, with provenance and error bound.

    ``method`` is "quadrature" or, for a ``TabulatedCdf``,
    "exact_piecewise_linear", whose ``error_bound`` is a rounding bound.
    ``panels`` counts the quadrature panels (pieces, on the exact path)
    evaluated, outer and inner.  ``tolerances`` records the quadrature
    tolerances the computation ran at, as ``numerics.tolerance_record``
    does; it is empty on the exact path, which has none.
    """

    p: float
    q: float
    method: str = "quadrature"
    error_bound: float = 0.0
    panels: int = 0
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        q = self.q
        if -1e-12 <= q < 0.0:  # quadrature of a vanishing integrand
            q = 0.0
            object.__setattr__(self, "q", q)
        if not self.p > 0:
            raise ValueError(f"p must be strictly positive, got {self.p}")
        if q < 0:
            raise ValueError(f"q must be nonnegative, got {q}")
        slack = max(self.error_bound, PQ_TOL)
        if abs(self.p + q - float(PQ_SUM)) > slack:
            raise ValueError(f"p + q = {self.p + q} is not 1/48 within {slack}")


def compute_pq(dist: SymmetricDistribution,
               cfg: QuadratureConfig | None = None) -> PQParams:
    """Evaluate q as 1/2 times the integral of I(Q(r)) over (1/2, 1), and set
    p = 1/48 - q.

    Every node r of the outer integral opens one dF-integral I(Q(r)) (see
    the module docstring).  Both levels go through ``fullinfo``, which cuts
    them where they kink and takes the exact path (method
    "exact_piecewise_linear") for a ``TabulatedCdf``, where ``cfg`` does not
    apply and the error bound is a rounding bound.  Otherwise ``cfg``
    is the tolerance of the folded inner integral J and the outer integral
    runs at ``cfg.outer()``, as on the folded form: since J = 4 I and the
    integral of J over v is 8 times that of I over r, the absolute
    tolerances act on I and its integral as a quarter and an eighth, and
    the relative ones as they are.
    """
    inner_cfg = cfg or PQ_INNER_CFG
    outer_cfg = inner_cfg.outer()
    exact = isinstance(dist, TabulatedCdf)
    upper = dist.support[1]
    quarter = replace(inner_cfg, abs_tol=inner_cfg.abs_tol / 4.0)
    inner_err = 0.0
    panels = 0

    def inner(rs, _):
        nonlocal inner_err, panels
        x = dist.ppf(rs)
        # On an unbounded support the lower limit F(x - upper) is 0, also at
        # x = Q(1) = +inf, where F(x - upper) would be F(inf - inf) = NaN.
        lo = dist.cdf(x - upper) if math.isfinite(upper) else np.zeros(len(x))
        vals, errs, n = _df_integrals(dist, x, lo, 0.5, quarter)
        inner_err = max(inner_err, float(errs.max(initial=0.0)))
        panels += int(n.sum())
        return vals

    # I(Q(r)) kinks where two cuts of its integrand meet, at the differences
    # of two knots (0 included) at or below 0; between those it is quadratic
    # in r for a piecewise-linear F.
    ends = np.unique(np.abs(np.append(dist.cdf_break_points(), 0.0)))
    gaps = np.subtract.outer(ends, ends).ravel()
    total, outer_err, outer_panels = _u_integrals(
        dist, inner, [0.5], [1.0], gaps[gaps >= 0.0],
        replace(outer_cfg, abs_tol=outer_cfg.abs_tol / 8.0))
    q = 0.5 * float(total[0])
    # On the exact path p = 1/48 - q rounds twice: 1/48 itself and the difference.
    slack = np.finfo(float).eps * float(PQ_SUM) if exact else 1e-14
    # The inner bounds count half: the r-range is 1/2 wide.
    err = 0.5 * (float(outer_err[0]) + 0.5 * inner_err) + slack
    p = float(PQ_SUM) - q
    method = "exact_piecewise_linear" if exact else "quadrature"
    tolerances = {} if exact else tolerance_record(inner=inner_cfg, outer=outer_cfg)
    return PQParams(p=p, q=q, method=method, error_bound=float(err),
                    panels=panels + int(outer_panels[0]), tolerances=tolerances)


@dataclass(frozen=True)
class ConcentrationReport:
    """Grid check of F(x) - F(0) >= F(x + y) - F(y) for x, y > 0."""

    member: bool
    max_violation: float
    worst_pair: tuple[float, float]
    n_checked: int


def shift_concentration_check(dist: SymmetricDistribution, xs=None, ys=None,
                              tol: float = 1e-12) -> ConcentrationReport:
    """Check that an interval at the origin always carries at least as much
    mass as an equal-length interval shifted away from it.

    This is the defining property of the class of distributions (all
    symmetric unimodal ones included) for which p <= 1/96 is guaranteed.
    A grid check can only ever exhibit violations, not prove membership.
    """
    hi = dist.quantile(1.0 - 1e-9)
    if xs is None:
        xs = hi * np.geomspace(1e-4, 1.0, 100)
    if ys is None:
        ys = hi * np.geomspace(1e-4, 1.0, 100)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("grid points must be strictly positive")
    f0 = float(dist.cdf(0.0))
    lhs = dist.cdf(xs)[:, None] - f0
    rhs = dist.cdf(xs[:, None] + ys[None, :]) - dist.cdf(ys)[None, :]
    gaps = rhs - lhs
    i, j = np.unravel_index(np.argmax(gaps), gaps.shape)
    worst = float(gaps[i, j])
    return ConcentrationReport(
        member=worst <= tol,
        max_violation=worst,
        worst_pair=(float(xs[i]), float(ys[j])),
        n_checked=gaps.size,
    )


# ---------------------------------------------------------------------------
# The 24-ordering probability table.
#
# Orderings are descending chains of position indices: (2, 0, 3, 1) means
# S2 > S0 > S3 > S1 (index 0 is the origin S0 = 0).  Each row pairs an
# ordering having S1 < 0 with its sign flip, which has the same
# probability.  Probabilities are affine in (p, q) with p + q = 1/48.
# ---------------------------------------------------------------------------

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


def _reflect(chain: tuple[int, ...]) -> tuple[int, ...]:
    """Sign flip of the walk reverses the chain."""
    return tuple(reversed(chain))


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


#: Canonical order of all 24 chains: table rows top to bottom, negative
#: column first, then the mirrored column.
ALL_ORDERINGS: list[tuple[int, ...]] = [row for row, *_ in _ROW_SPEC] + [
    _reflect(row) for row, *_ in _ROW_SPEC
]


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
    rows = tuple(TableRow(neg, _reflect(neg), c, cp, cq) for neg, c, cp, cq in _ROW_SPEC)
    return PermutationTable(p=p, q=q, rows=rows)


# ---------------------------------------------------------------------------
# Optimal rank rules and values.
# ---------------------------------------------------------------------------


#: Stop bits (walkcore.RankPolicyTable layout) of the two optimal rank rules.
RANK_RULE_A_BITS = (0, 1, 0, 0, 0, 0, 1, 1, 0)
RANK_RULE_B_BITS = (0, 1, 0, 0, 0, 0, 1, 0, 0)


def rank_policy_a() -> StoppingPolicy:
    """Stop at 1 on a new maximum; else stop at 2 unless S_2 is a new minimum."""
    return RankPolicyTable(RANK_RULE_A_BITS).to_policy("rank_rule_a")


def rank_policy_b() -> StoppingPolicy:
    """Stop at 1 on a new maximum; else stop at 2 only on a new maximum."""
    return RankPolicyTable(RANK_RULE_B_BITS).to_policy("rank_rule_b")


def optimal_rank_policy(pq) -> tuple[StoppingPolicy, str]:
    """The optimal rank rule for given (p, q) and its branch tag 'a' or 'b'.

    Branch a applies when p <= q, branch b when p > q; at p = q the two
    rules achieve the same value and branch a is returned for determinism.
    """
    p, q = _pq_pair(pq)
    if p <= q:
        return rank_policy_a(), "a"
    return rank_policy_b(), "b"


def _pq_pair(pq):
    if isinstance(pq, PQParams):
        return pq.p, pq.q
    p, q = pq
    return p, q


def optimal_rank_value(p):
    """Optimal expected rank min(55/24, 109/48 + 2p).

    Accepts a PQParams, a float, or a Fraction; Fraction input yields an
    exact Fraction, which is what the enumeration oracle compares against.
    The p -> 0 limit (109/48) is evaluable even though no continuous
    distribution attains it.
    """
    if isinstance(p, PQParams):
        p = p.p
    if isinstance(p, Fraction):
        return min(Fraction(55, 24), Fraction(109, 48) + 2 * p)
    p = float(p)
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    return min(55.0 / 24.0, 109.0 / 48.0 + 2.0 * p)


@dataclass(frozen=True)
class CaseValueReport:
    """Stop/continue payoffs for the six two-step configurations.

    Values are affine in (p, q) and derived from the ordering table; the
    stage aggregates recombine them into the one-step values and the
    overall optimum, which must match the closed-form rank value.
    """

    case1_stop: object            # S2 > S1 > 0: stop
    case2_stop: object
    case2_continue: object        # S1 > S2 > 0
    case3_continue: object        # S1 > 0 > S2: forced continue
    case4_stop: object            # S2 > 0 > S1: stop
    case5_stop: object
    case5_continue: object        # 0 > S2 > S1
    case6_continue: object        # 0 > S1 > S2: forced continue
    s1_positive_continue: object  # value of continuing past a positive first step
    s1_negative_value: object     # value after a negative first step (forced continue)
    overall: object


def two_step_case_values(p, q) -> CaseValueReport:
    """Evaluate every two-step case payoff at (p, q); exact for Fractions."""
    if abs(float(p) + float(q) - float(PQ_SUM)) > PQ_TOL:
        raise ValueError(f"p + q must equal 1/48, got {float(p) + float(q)}")
    half = Fraction(1, 2) if isinstance(p, Fraction) else 0.5
    one = 1 if isinstance(p, Fraction) else 1.0

    def frac(a, b):
        return Fraction(a, b) if isinstance(p, Fraction) else a / b

    stop_mid = frac(5, 2)
    case2_cont = frac(7, 3) + 16 * p
    case3_cont = frac(17, 6) + 16 * q
    case5_cont = frac(7, 3) + 16 * q
    case6_cont = frac(37, 12) + 8 * p

    v2_case2 = min(stop_mid, case2_cont)
    v2_case5 = min(stop_mid, case5_cont)
    s1_pos = half * frac(3, 2) + frac(1, 4) * v2_case2 + frac(1, 4) * case3_cont
    s1_neg = frac(1, 4) * frac(3, 2) + frac(1, 4) * v2_case5 + half * case6_cont
    overall = half * min(2 * one, s1_pos) + half * s1_neg
    return CaseValueReport(
        case1_stop=frac(3, 2),
        case2_stop=stop_mid,
        case2_continue=case2_cont,
        case3_continue=case3_cont,
        case4_stop=frac(3, 2),
        case5_stop=stop_mid,
        case5_continue=case5_cont,
        case6_continue=case6_cont,
        s1_positive_continue=s1_pos,
        s1_negative_value=s1_neg,
        overall=overall,
    )
