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

A ``TabulatedCdf`` takes one flat integral instead: with h the density of
|X1| + |X2|,

    q = (1/16) * integral over (0, inf) of {1 - G(z)} h(z) dz,

whose integrand is quadratic between the folded knots and their pairwise
sums, so that one fixed-rule call is exact up to rounding.  Both forms
are ``fullinfo._q``, which V = 109/48 + p + T calls too; ``compute_pq``
wraps it.
The probabilities of all 24 strict orderings of S_0..S_3 are affine in
(p, q); the table (``walkcore.permutation_table``) drives both the optimal
rank rule and the exact policy-enumeration oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .distributions import SymmetricDistribution
from .fullinfo import _Law, _q
# integrate_detailed is unused here; perfbench/tracer.py patches it by attribute.
from .numerics import QuadratureConfig, integrate_detailed, tolerance_record
from .walkcore import PQ_SUM, PQ_TOL, StoppingPolicy, rank_policy_a, rank_policy_b

__all__ = [
    "PQ_INNER_CFG",
    "PQParams",
    "compute_pq",
    "shift_concentration_check",
    "ConcentrationReport",
    "optimal_rank_policy",
    "optimal_rank_value",
    "two_step_case_values",
    "CaseValueReport",
]

#: Default tolerance of q's inner integrals J, in the folded form.  The
#: outer integral runs at ``PQ_INNER_CFG.outer()``, two decades looser
#: (1e-11), so that it stays above the inner integrals' noise floor and
#: does not chase it.
PQ_INNER_CFG = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13)


@dataclass(frozen=True)
class PQParams:
    """The pair (p, q) for one distribution, with provenance and error bound.

    ``method`` is "quadrature" or, for a ``TabulatedCdf``,
    "exact_piecewise_linear", whose ``error_bound`` is a rounding bound.
    ``panels`` counts the quadrature panels evaluated, outer and inner, or
    on the exact path the pieces of its one integral.  ``tolerances``
    records the quadrature tolerances the computation ran at, as
    ``numerics.tolerance_record`` does; it is empty on the exact path,
    which has none.
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
    """Evaluate q by ``fullinfo._q`` and set p = 1/48 - q.  ``cfg`` is the
    tolerance of the folded inner integral J, the outer integral's
    ``cfg.outer()``; a ``TabulatedCdf`` (method "exact_piecewise_linear")
    takes neither and its bound is a rounding bound."""
    law = _Law(dist)
    cfg = cfg or PQ_INNER_CFG
    q, err, panels = _q(law, cfg)
    return PQParams(p=float(PQ_SUM) - q, q=q, method=law.method, error_bound=err, panels=panels,
                    tolerances={} if law.exact else tolerance_record(inner=cfg, outer=cfg.outer()))


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
# Optimal rank rules and values.
# ---------------------------------------------------------------------------


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
    p = p if isinstance(p, Fraction) else float(p)
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    if isinstance(p, Fraction):
        return min(Fraction(55, 24), Fraction(109, 48) + 2 * p)
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
