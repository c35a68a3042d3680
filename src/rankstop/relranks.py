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
(p, q), so in p alone; the table (``walkcore.permutation_table``) drives
both the optimal rank rule and the exact policy-enumeration oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .distributions import SymmetricDistribution
from .fullinfo import _Law, _q
# integrate_detailed is unused here; perfbench/tracer.py patches it by attribute.
from .numerics import QuadratureConfig, integrate_detailed, tolerance_record
from .walkcore import PQ_SUM, StoppingPolicy, permutation_table, rank_policy_a, rank_policy_b

__all__ = [
    "PQ_INNER_CFG",
    "PQParams",
    "compute_pq",
    "shift_concentration_check",
    "ConcentrationReport",
    "optimal_rank_policy",
    "optimal_rank_value",
]

#: Default tolerance of q's inner integrals J, in the folded form.  The
#: outer integral runs at ``PQ_INNER_CFG.outer()``, two decades looser
#: (1e-11), so that it stays above the inner integrals' noise floor and
#: does not chase it.
PQ_INNER_CFG = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13)


@dataclass(frozen=True)
class PQParams:
    """The pair (p, q) for one distribution, with provenance and error bound.

    q is the number computed; p is ``float(PQ_SUM) - q``.  A q of up to
    1e-12 below 0, quadrature noise on a vanishing integrand, is clamped
    to 0, and q must lie in [0, 1/48), so that p > 0.

    ``method`` is "quadrature" or, for a ``TabulatedCdf``,
    "exact_piecewise_linear", whose ``error_bound`` is a rounding bound.
    ``panels`` counts the quadrature panels evaluated, outer and inner, or
    on the exact path the pieces of its one integral.  ``tolerances``
    records the quadrature tolerances the computation ran at, as
    ``numerics.tolerance_record`` does; it is empty on the exact path,
    which has none.
    """

    q: float
    method: str = "quadrature"
    error_bound: float = 0.0
    panels: int = 0
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if -1e-12 <= self.q < 0.0:  # quadrature of a vanishing integrand
            object.__setattr__(self, "q", 0.0)
        if not 0.0 <= self.q < float(PQ_SUM):
            raise ValueError(f"q must lie in [0, 1/48), got {self.q}")

    @property
    def p(self) -> float:
        return float(PQ_SUM) - self.q


def compute_pq(dist: SymmetricDistribution,
               cfg: QuadratureConfig | None = None) -> PQParams:
    """Evaluate q by ``fullinfo._q`` and set p = 1/48 - q.  ``cfg`` is the
    tolerance of the folded inner integral J, the outer integral's
    ``cfg.outer()``; a ``TabulatedCdf`` (method "exact_piecewise_linear")
    takes neither and its bound is a rounding bound."""
    law = _Law(dist)
    cfg = cfg or PQ_INNER_CFG
    q, err, panels = _q(law, cfg)
    return PQParams(q=q, method=law.method, error_bound=err, panels=panels,
                    tolerances={} if law.exact else tolerance_record(inner=cfg, outer=cfg.outer()))


@dataclass(frozen=True)
class ConcentrationReport:
    """Grid check of F(x) - F(0) >= F(x + y) - F(y) for x, y > 0."""

    member: bool
    max_violation: float
    worst_pair: tuple[float, float]
    n_checked: int


def shift_concentration_check(dist: SymmetricDistribution) -> ConcentrationReport:
    """Check that an interval at the origin always carries at least as much
    mass as an equal-length interval shifted away from it.

    This is the defining property of the class of distributions (all
    symmetric unimodal ones included) for which p <= 1/96 is guaranteed.
    A grid check can only ever exhibit violations, not prove membership:
    x and y run over the same 100 points, geometric from 1e-4 to 1 times
    the 1 - 1e-9 quantile, and a gap above 1e-12 is a violation.
    """
    xs = ys = dist.quantile(1.0 - 1e-9) * np.geomspace(1e-4, 1.0, 100)
    f0 = float(dist.cdf(0.0))
    lhs = dist.cdf(xs)[:, None] - f0
    rhs = dist.cdf(xs[:, None] + ys[None, :]) - dist.cdf(ys)[None, :]
    gaps = rhs - lhs
    i, j = np.unravel_index(np.argmax(gaps), gaps.shape)
    worst = float(gaps[i, j])
    return ConcentrationReport(
        member=worst <= 1e-12,
        max_violation=worst,
        worst_pair=(float(xs[i]), float(ys[j])),
        n_checked=gaps.size,
    )


# ---------------------------------------------------------------------------
# Optimal rank rules and values.
# ---------------------------------------------------------------------------


def optimal_rank_policy(pq) -> tuple[StoppingPolicy, str]:
    """The optimal rank rule for a PQParams or a p, and its branch tag 'a' or 'b'.

    Branch a applies when p <= q, branch b when p > q; at p = q the two
    rules achieve the same value and branch a is returned for determinism.
    A p takes q = 1/48 - p as ``walkcore.permutation_table`` does.
    """
    if not isinstance(pq, PQParams):
        pq = permutation_table(pq)
    if pq.p <= pq.q:
        return rank_policy_a(), "a"
    return rank_policy_b(), "b"


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
