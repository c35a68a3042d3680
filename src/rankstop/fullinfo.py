"""The three-step full-information solution.

After the first step lands at x, the best expected rank achievable by
taking at least one more step is a continuation curve with closed
dF-integral expressions, one branch for x > 0 and one for x < 0.  The
positive branch decreases from 9/4 (at 0+) to 15/8 (far out), so it
crosses the stop payoff 2 at a threshold x1*; the optimal rule stops at
time 1 exactly on (0, x1*].  Integrating the stage-1 value over the first
step gives the optimal expected rank V.

All dF-integrals are evaluated in u-space through the substitution
u = F(y), so unbounded supports never appear explicitly and the error
control is uniform across distributions.  The curve is evaluated at whole
arrays of first steps: the two dF-integrals of every point go to the
integrator as one batch.  This module does all of the package's
integration: ``relranks.compute_pq`` integrates q over the same
dF-integrals, with V's outer-integral scheme.

For a ``TabulatedCdf`` (piecewise-linear F) every integrand is a
polynomial between known cuts: the dF-integrands are linear between
F(knots) and F(knots + x), and the curve is quadratic in u between the
images of the knots, twice the knots and the knot differences.  The
2-point Gauss-Legendre rule, exact up to degree 3, on those pieces
(``numerics.integrate_pieces``) is then exact up to rounding at both
levels and replaces the adaptive quadrature; the tolerances do not apply
and the reported bounds are rounding bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import SymmetricDistribution, TabulatedCdf
from .numerics import (
    BracketError,
    QuadratureConfig,
    RootConfig,
    find_root,
    integrate_batch,
    integrate_detailed,  # unused here; perfbench/tracer.py patches it by attribute
    integrate_pieces,
    tolerance_record,
)
from .walkcore import FULL_INFORMATION, StoppingPolicy

__all__ = [
    "V_LOWER_BOUND",
    "V_UPPER_BOUND",
    "THRESHOLD_QUANTILE_BOUND",
    "BOUND_TOL",
    "FULL_INNER_CFG",
    "THRESHOLD_ROOT_CFG",
    "FullInfoSolution",
    "ThresholdError",
    "stage2_value",
    "continuation_value",
    "continuation_curve",
    "solve_threshold",
    "solve_full_info",
    "tolerances",
    "stage2_stop_region",
    "full_info_policy",
    "lower_bound_check",
]

#: Universal bounds on the optimal three-step expected rank.
V_LOWER_BOUND = (109.0 - math.sqrt(2.0)) / 48.0
V_UPPER_BOUND = 55.0 / 24.0
#: F(x1*) always sits at least this high.
THRESHOLD_QUANTILE_BOUND = 0.5 + math.sqrt(2.0) / 4.0

#: Default tolerance of the continuation curve's dF-integrals, and so of
#: the threshold; V's outer integral runs at ``FULL_INNER_CFG.outer()``,
#: two decades looser (1e-10), so that it never chases the curve's noise.
FULL_INNER_CFG = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12)
#: The threshold search on adaptive quadrature stops once its bracket is
#: narrower than x_tol, or earlier on a residual below the inner quadrature
#: tolerance, where the curve cannot be told from 2.
THRESHOLD_ROOT_CFG = RootConfig(x_tol=1e-13, f_tol=1e-14)
#: The root search on the exact path, whose curve is exact up to rounding:
#: its bracket closes to a few ulps of x1* (``find_root`` widens an x_tol
#: finer than the float spacing to 2 eps |x|).
_EXACT_ROOT_CFG = RootConfig(x_tol=1e-15, f_tol=1e-16)
#: Points of the threshold scan, evenly spaced in u above the paper's bound.
_SCAN_POINTS = 16
#: Slack on the universal bounds above, here and in ``verify``.
BOUND_TOL = 1e-9


class ThresholdError(RuntimeError):
    """The continuation curve never comes down to the stop payoff."""


@dataclass(frozen=True)
class FullInfoSolution:
    """Solved three-step full-information problem for one distribution."""

    x1_star: float
    value: float
    F_at_threshold: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.x1_star > 0:
            raise ValueError(f"threshold must be positive, got {self.x1_star}")
        if self.F_at_threshold < THRESHOLD_QUANTILE_BOUND - BOUND_TOL:
            raise ValueError(
                f"F(x1*) = {self.F_at_threshold} below the universal bound {THRESHOLD_QUANTILE_BOUND}"
            )
        if not (V_LOWER_BOUND - BOUND_TOL <= self.value <= V_UPPER_BOUND + BOUND_TOL):
            raise ValueError(
                f"value {self.value} outside [{V_LOWER_BOUND}, {V_UPPER_BOUND}]"
            )


def _integrate(dist, f, lo, hi, cuts, cfg):
    """(values, bounds, panels) of the integrals of ``f(u, problem)`` over
    [lo[i], hi[i]], cut at the rows of ``cuts``; an empty range (hi < lo)
    is [lo, lo], worth 0.  A ``TabulatedCdf`` takes the fixed rule on the
    pieces (``integrate_pieces``), where ``cfg`` does not apply and the
    bounds are rounding bounds; every other law the adaptive quadrature.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.maximum(np.asarray(hi, dtype=float), lo)
    if isinstance(dist, TabulatedCdf):
        return integrate_pieces(f, lo, hi, cuts)
    return integrate_batch(f, lo, hi, cfg, break_points=cuts)


def _df_integrals(dist, x_shift, u_lo, u_hi, cfg):
    """(values, bounds, panels) of the dF-integrals of F(y - x_shift[i]) over u-intervals.

    The integrand u -> F(Q(u) - x) kinks where Q(u) - x crosses a CDF knot
    and where Q itself kinks; both sets are handed to the integrator as
    panel edges.
    """
    knots = dist.cdf_break_points()
    cuts = None
    if len(knots):
        own = np.broadcast_to(dist.cdf(knots), (len(x_shift), len(knots)))
        cuts = np.concatenate([dist.cdf(knots + x_shift[:, None]), own], axis=1)

    def f(u, i):
        return dist.cdf(dist.ppf(u) - x_shift[i])

    return _integrate(dist, f, u_lo, u_hi, cuts, cfg)


def _u_integrals(dist, g, lo, hi, kinks, cfg):
    """(values, bounds, panels) of the outer integrals of ``g(u, problem)``
    over u-intervals [lo[i], hi[i]], each opening a batch of dF-integrals.

    Every problem is cut at F(kinks), where g changes analytic form.  On an
    unbounded support 0 and 1 are break points as well: there g approaches
    its limit like a power of u (sqrt(u) on Laplace), which the
    substitution at a break point flattens.
    """
    cuts = dist.cdf(np.unique(kinks))
    if not math.isfinite(dist.support[1]):
        cuts = np.concatenate([cuts, [0.0, 1.0]])
    cuts = np.broadcast_to(cuts, (len(lo), len(cuts))) if len(cuts) else None
    return _integrate(dist, g, lo, hi, cuts, cfg)


def stage2_value(dist: SymmetricDistribution, x1: float, x2: float) -> float:
    """Best expected rank after observing the first two steps.

    The stop payoff is the relative rank of S_2 plus 1/2 for the remaining
    step; the continuation payoff is 3.5 - F(x2) - F(x1 + x2).
    """
    s1, s2 = x1, x1 + x2
    r2 = 1 + (s2 <= 0.0) + (s2 <= s1)
    stop = r2 + 0.5
    cont = 3.5 - float(dist.cdf(x2)) - float(dist.cdf(x1 + x2))
    return min(stop, cont)


def _continuation(dist, x, cfg):
    """(values, error bounds, panels) of the continuation curve at an array of x.

    With I the sum of two dF-integrals of F(y - x), the curve is
    15/8 + F(x) - F(x/2) - (F(x)^2 - F(x/2)^2)/2 + I over (1/2, F(x/2)) and
    (F(x), 1) for x > 0, and 19/8 - F(x/2) - (F(x)^2 - F(x/2)^2)/2 + I over
    (F(x), F(x/2)) and (1/2, 1) for x <= 0.  All 2n integrals are one batch.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    pos = x > 0
    fx = dist.cdf(x)
    fh = dist.cdf(0.5 * x)
    vals, errs, panels = _df_integrals(
        dist, np.concatenate([x, x]),
        np.concatenate([np.where(pos, 0.5, fx), np.where(pos, fx, 0.5)]),
        np.concatenate([fh, np.ones(n)]), cfg)
    closed = np.where(pos, 15.0 / 8.0 + fx, 19.0 / 8.0) - fh - 0.5 * (fx * fx - fh * fh)
    return closed + vals[:n] + vals[n:], errs[:n] + errs[n:], int(panels.sum())


def continuation_curve(dist: SymmetricDistribution, xs,
                       cfg: QuadratureConfig | None = None) -> np.ndarray:
    """Continuation curve at an array of first steps, both signs, in one batch."""
    return _continuation(dist, np.atleast_1d(xs), cfg or FULL_INNER_CFG)[0]


def continuation_value(dist: SymmetricDistribution, x: float,
                       cfg: QuadratureConfig | None = None) -> float:
    """Continuation curve on either side; both one-sided limits at 0 equal 9/4."""
    return float(continuation_curve(dist, float(x), cfg)[0])


def solve_threshold(dist: SymmetricDistribution,
                    quad_cfg: QuadratureConfig | None = None) -> float:
    """The positive first-step threshold where continuing stops paying.

    The paper's bound F(x1*) >= 1/2 + sqrt(2)/4 confines the search: the
    continuation curve minus 2 is scanned at 16 quantiles, evenly spaced
    in u on [``THRESHOLD_QUANTILE_BOUND`` - ``BOUND_TOL``,
    1 - 1e-12], and its last sign change there is refined by bracketed
    root search; the curve is nonincreasing, but if it is flat at level 2
    this picks the largest crossing, which maximizes the stop region and
    keeps the result reproducible.  For distributions whose curve stays
    above 2 inside the support and only reaches 2 at the edge (no mass
    near the origin), the scan finds no sign change and the support edge
    itself satisfies the residual tolerance.  Any other scan raises
    ``ThresholdError``.  The root search runs at ``THRESHOLD_ROOT_CFG``,
    and at x_tol 1e-15 on the exact path of a ``TabulatedCdf``.
    """
    return _threshold(dist, quad_cfg or FULL_INNER_CFG)[0]


def _threshold(dist, quad_cfg):
    """solve_threshold's root, the curve minus 2 there, and the panels its
    scan and root search evaluated."""
    hi = dist.quantile(1.0 - 1e-12)
    if hi <= 0:
        raise ThresholdError("distribution has no usable positive support")
    panels = 0
    seen = {}  # the curve minus 2 at every x evaluated

    def curve_minus_2(xs):
        nonlocal panels
        values, _, n = _continuation(dist, xs, quad_cfg)
        panels += n
        values = values - 2.0
        seen.update(zip(map(float, xs), values))
        return values

    u_lo = THRESHOLD_QUANTILE_BOUND - BOUND_TOL
    grid = dist.ppf(np.linspace(u_lo, 1.0 - 1e-12, _SCAN_POINTS))
    values = curve_minus_2(grid)
    sign_changes = np.nonzero((values[:-1] > 0) & (values[1:] <= 0))[0]
    if len(sign_changes) == 0:
        if 0 < values[-1] <= BOUND_TOL:
            return float(grid[-1]), float(values[-1]), panels  # curve meets 2 only at the support edge
        raise ThresholdError(
            f"continuation curve minus 2 has no sign change at u in [{u_lo}, {1.0 - 1e-12}], "
            f"x in [{grid[0]}, {hi}]: {values[0]} at the start, {values[-1]} at the end")
    i = sign_changes[-1]
    try:
        # find_root starts with the curve at both bracket ends, which the scan
        # has, and only returns points it evaluated.
        root = find_root(lambda x: seen[x] if x in seen else curve_minus_2([x])[0],
                         grid[i], grid[i + 1],
                         _EXACT_ROOT_CFG if isinstance(dist, TabulatedCdf) else THRESHOLD_ROOT_CFG)
    except BracketError as exc:  # pragma: no cover - noise at the 1e-10 level
        raise ThresholdError(f"could not bracket the threshold: {exc}") from exc
    return root, float(seen[root]), panels


def tolerances(dist: SymmetricDistribution, cfg: QuadratureConfig | None = None,
               outer: bool = True) -> dict:
    """``numerics.tolerance_record`` of a solve at ``cfg``: the curve's ("inner"),
    V's ("outer", left out for the curve or threshold alone) and the root
    search's.  A ``TabulatedCdf`` runs no adaptive quadrature: root only."""
    if isinstance(dist, TabulatedCdf):
        return tolerance_record(root=_EXACT_ROOT_CFG)
    cfg = cfg or FULL_INNER_CFG
    levels = {"inner": cfg, "outer": cfg.outer()} if outer else {"inner": cfg}
    return tolerance_record(**levels, root=THRESHOLD_ROOT_CFG)


def solve_full_info(dist: SymmetricDistribution,
                    cfg: QuadratureConfig | None = None) -> FullInfoSolution:
    """Threshold, optimal expected rank, and diagnostics for one distribution.

    V splits exactly at 0 and at the threshold: the first-step integral of
    the continuation curve over the negative half, the flat stop payoff 2
    on (0, x1*], and the continuation curve again beyond x1*; the two
    curve integrals are one batch (``_u_integrals``).  ``diagnostics["panels"]``
    counts the quadrature panels (pieces, on the exact path) evaluated for V, and
    ``diagnostics["threshold_panels"]`` those of the threshold's scan and
    root search, which also gives ``diagnostics["threshold_residual"]``,
    the curve minus 2 at x1*.  ``diagnostics["quadrature_error_bound"]``
    adds the outer bound and the largest bound of the curve times the
    u-range it is integrated over.  ``diagnostics["method"]`` is
    "exact_piecewise_linear" for a ``TabulatedCdf`` and "quadrature"
    otherwise, and ``diagnostics["tolerances"]`` is ``tolerances(dist,
    cfg)``.  ``cfg`` is the tolerance of the curve and the threshold; V's
    outer integral runs at ``cfg.outer()``.
    """
    inner_cfg = cfg or FULL_INNER_CFG
    x1s, residual, threshold_panels = _threshold(dist, inner_cfg)
    f_at = float(dist.cdf(x1s))
    panels = 0
    curve_err = 0.0

    def curve_of_u(us, _):
        nonlocal panels, curve_err
        values, errs, n = _continuation(dist, dist.ppf(us), inner_cfg)
        panels += n
        curve_err = max(curve_err, float(errs.max(initial=0.0)))
        return values

    # The continuation curve changes analytic form whenever the first step
    # or its half crosses a CDF knot, and where two knots are exactly the
    # first step apart, so that kinks of the inner integrand meet.
    knots = dist.cdf_break_points()
    kinks = np.concatenate([knots, 2.0 * knots, np.subtract.outer(knots, knots).ravel()])
    (neg_val, pos_val), (neg_err, pos_err), outer_panels = _u_integrals(
        dist, curve_of_u, [0.0, f_at], [0.5, 1.0], kinks, inner_cfg.outer())
    value = float(neg_val + 2.0 * (f_at - 0.5) + pos_val)
    bound = neg_err + pos_err + curve_err * (1.5 - f_at)
    return FullInfoSolution(
        x1_star=x1s,
        value=value,
        F_at_threshold=f_at,
        diagnostics={
            "threshold_residual": residual,
            "quadrature_error_bound": float(bound),
            "scan_upper": dist.quantile(1.0 - 1e-12),
            "panels": panels + int(outer_panels.sum()),
            "threshold_panels": threshold_panels,
            "method": "exact_piecewise_linear" if isinstance(dist, TabulatedCdf) else "quadrature",
            "tolerances": tolerances(dist, inner_cfg),
        },
    )


def stage2_stop_region(x1, x2):
    """Stop/continue classification after two observed steps; vectorized.

    Distribution-free: stop when S_2 is a prefix maximum, or when it has
    middle rank and sits weakly below the halfway fallback point -X1/2
    (ties stop).  Continue at a prefix minimum or when the middle-rank
    position is above -X1/2.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    pos = (x1 > 0.0) & ((x2 > 0.0) | ((x2 > -x1) & (x2 <= -0.5 * x1)))
    neg = (x1 <= 0.0) & ((x2 > -x1) | ((x2 > 0.0) & (x2 <= -0.5 * x1)))
    return pos | neg


def full_info_policy(dist: SymmetricDistribution, x1_star: float | None = None) -> StoppingPolicy:
    """The optimal three-step rule under full information.

    Stop at 1 on 0 < X1 <= x1*; at time 2 stop on the stage-2 stop region
    (the region rule is used unrestricted: on the band 0 < X1 <= x1* play
    has already stopped, so its value there never matters); stop at 3.
    """
    x1s = float(x1_star) if x1_star is not None else solve_threshold(dist)

    def rule(k, observed):
        n = observed.shape[0]
        if k == 0:
            return np.zeros(n, dtype=bool)
        if k == 1:
            x1 = observed[:, 0]
            return (x1 > 0.0) & (x1 <= x1s)
        if k == 2:
            return stage2_stop_region(observed[:, 0], observed[:, 1])
        return np.ones(n, dtype=bool)

    return StoppingPolicy(FULL_INFORMATION, 3, "full_info_optimal", rule)


@dataclass(frozen=True)
class LowerBoundReport:
    """Pointwise check of the closed-form floor under the continuation curve."""

    max_violation: float
    worst_x: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance


def lower_bound_check(dist: SymmetricDistribution, n_points: int = 100,
                      tolerance: float = 1e-8) -> LowerBoundReport:
    """Verify the continuation curve dominates its closed-form lower estimates.

    For x > 0 the floor is 15/8 + F(x)(1 - F(x)); for x < 0 it is
    23/8 - F(x) - F(x/2)/2 + F(x/2)^2/2.  Both sides are evaluated
    independently on a grid; the report carries the worst signed gap.
    """
    hi = dist.quantile(1.0 - 1e-9)
    xs = hi * np.geomspace(1e-4, 1.0, n_points)
    xs = np.concatenate([xs, -xs])
    fx = dist.cdf(xs)
    fh = dist.cdf(0.5 * xs)
    floor = np.where(xs > 0, 15.0 / 8.0 + fx * (1.0 - fx), 23.0 / 8.0 - fx - 0.5 * fh + 0.5 * fh * fh)
    gaps = floor - continuation_curve(dist, xs)
    i = int(np.argmax(gaps))
    return LowerBoundReport(max_violation=float(gaps[i]), worst_x=float(xs[i]), tolerance=tolerance)
