"""The three-step full-information solution.

After the first step lands at x, the best expected rank achievable by
taking at least one more step is a continuation curve W1 with closed
dF-integral expressions, one branch for x > 0 and one for x <= 0.  The
positive branch decreases from 9/4 (at 0+) to 15/8 (far out), so it
crosses the stop payoff 2 at a threshold x1*; the optimal rule stops at
time 1 exactly on (0, x1*] and continues elsewhere, so the optimal
expected rank is V = 2 + E[W1(X1) - 2; continue].

One function evaluates the curve: ``_excess``, W1 - 2 formed without the
offset 2, whose rounding is at the scale of that difference.  The
threshold is its root, V is 2 plus its integrals over the two
continuation regions, and ``continuation_curve`` is 2 plus it.  All
dF-integrals are evaluated in u-space through the substitution u = F(y),
so unbounded supports never appear explicitly and the error control is
uniform across distributions.  The curve is evaluated at whole arrays of
first steps: the two dF-integrals of every point go to the integrator as
one batch.  ``relranks.compute_pq`` integrates q over the same
dF-integrals, with V's outer-integral scheme, for every law but a table.

For a ``TabulatedCdf`` (piecewise-linear F) every integrand is a
polynomial between known cuts: the dF-integrands are linear between
F(knots) and F(knots + x), and the curve is quadratic in x, and so in u,
between its breaks (``_curve_breaks``).  The 2-point Gauss-Legendre
rule, exact up to degree 3, on those pieces (``numerics.integrate_pieces``)
is then exact up to rounding at both levels and replaces the adaptive
quadrature; the tolerances do not apply and the reported bounds are
rounding bounds.  The threshold is the root of the curve's quadratic
piece, found without a root search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .distributions import SymmetricDistribution, TabulatedCdf
from .numerics import (
    _EPS,
    _VALUE_ULPS,
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
#: tolerance, where the curve cannot be told from 2.  x_tol holds where the
#: bracket ends at x >= 1/2; below, it shrinks with the bracket's upper
#: end, so that x1* and V do not depend on the law's scale.
THRESHOLD_ROOT_CFG = RootConfig(x_tol=1e-13, f_tol=1e-14)
#: Slack on the universal bounds above, here and in ``verify``.
BOUND_TOL = 1e-9
#: The threshold scan's 16 points, evenly spaced in u above the paper's bound.
_SCAN_U = np.linspace(THRESHOLD_QUANTILE_BOUND - BOUND_TOL, 1.0 - 1e-12, 16)


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


class _Law:
    """One law's constants for the integrals of one solve: its CDF knots, F
    there, whether it takes the exact path and the name of its method, and
    the substitution degrees it declares (``break_point_degrees``): one per
    knot, the one of the u-ends 0 and 1, and those of the cut columns of
    ``_df_integrals``.  The exact path ignores the degrees.
    ``solve_full_info``, ``solve_threshold``, ``continuation_curve`` and
    ``relranks.compute_pq`` each build one and drop it when they return, so
    no call sees another's."""

    def __init__(self, dist):
        self.dist = dist
        self.knots = dist.cdf_break_points()
        self.f_knots = dist.cdf(self.knots)
        self.exact = isinstance(dist, TabulatedCdf)
        self.method = "exact_piecewise_linear" if self.exact else "quadrature"
        self.degrees, self.end_degree = dist.break_point_degrees()
        self.df_degrees = np.concatenate([self.degrees, self.degrees])


def _integrate(law, f, lo, hi, cuts, cfg, degrees=None):
    """(values, bounds, panels) of the integrals of ``f(u, problem)`` over
    [lo[i], hi[i]], cut at the rows of ``cuts``; an empty range (hi < lo)
    is [lo, lo], worth 0.  A ``TabulatedCdf`` takes the fixed rule on the
    pieces (``integrate_pieces``), where ``cfg`` and ``degrees`` do not
    apply and the bounds are rounding bounds; every other law the adaptive
    quadrature, with the substitution degree ``degrees`` gives each column
    of ``cuts``.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.maximum(hi, lo)
    if law.exact:
        return integrate_pieces(f, lo, hi, cuts)
    return integrate_batch(f, lo, hi, cfg, break_points=cuts, degrees=degrees)


def _df_integrals(law, x_shift, u_lo, u_hi, cfg):
    """(values, bounds, panels) of the dF-integrals of F(y - x_shift[i]) over u-intervals.

    The integrand u -> F(Q(u) - x) kinks where Q(u) - x crosses a CDF knot
    and where Q itself kinks; both sets are handed to the integrator as
    panel edges, each with its knot's substitution degree.
    """
    cdf, ppf = law.dist.cdf, law.dist.ppf
    k = len(law.knots)
    cuts = np.empty((len(x_shift), 2 * k))
    cuts[:, :k] = cdf(law.knots + x_shift[:, None])
    cuts[:, k:] = law.f_knots

    def f(u, i):
        return cdf(ppf(u) - x_shift[i])

    return _integrate(law, f, u_lo, u_hi, cuts, cfg, law.df_degrees)


def _u_integrals(law, g, lo, hi, kinks, degrees, cfg):
    """(values, bounds, panels) of the outer integrals of ``g(u, problem)``
    over u-intervals [lo[i], hi[i]], each opening a batch of dF-integrals.

    Every problem is cut at F(kinks), where g changes analytic form, with
    the substitution degree ``degrees`` gives each kink; both integrators
    merge repeated break points, the adaptive one taking their largest
    degree.  On an unbounded support 0 and 1 are break points as well, of
    the law's ``end_degree``: there g approaches its limit like a power of
    u times a logarithm (u log u on Laplace), which the substitution at a
    break point flattens.
    """
    cuts = law.dist.cdf(kinks)
    if not math.isfinite(law.dist.support[1]):
        cuts = np.concatenate([cuts, [0.0, 1.0]])
        degrees = np.concatenate([degrees, [law.end_degree] * 2])
    return _integrate(law, g, lo, hi, cuts[None, :].repeat(len(lo), axis=0), cfg, degrees)


def _curve_breaks(law):
    """The first steps where the continuation curve changes analytic form,
    and their substitution degrees.

    The curve kinks where the first step or its half crosses a CDF knot,
    and where two knots are exactly the first step apart, so that kinks of
    the inner integrand meet: the knots, twice the knots and the knot
    differences.  A kink at a knot or at twice one takes the knot's
    degree, and one at a difference the smaller degree of the two knots:
    there the two singularities are integrated against each other.
    """
    knots, degrees = law.knots, law.degrees
    return (np.concatenate([knots, 2.0 * knots, np.subtract.outer(knots, knots).ravel()]),
            np.concatenate([degrees, degrees, np.minimum.outer(degrees, degrees).ravel()]))


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


def _excess(law, x, cfg):
    """(values, error bounds, panels) of the continuation curve minus 2 at
    an array of first steps of either sign, formed without the offset 2.

    With I the sum of two dF-integrals of F(y - x), over (1/2, F(x/2)) and
    (F(x), 1) in u for x > 0 and over (F(x), F(x/2)) and (1/2, 1) for
    x <= 0, all 2n of them one batch, W1 - 2 is
    (F(x) - F(x/2)) (1 - (F(x) + F(x/2))/2) - 1/8 + I for x > 0 and
    3/8 - F(x/2) - (F(x)^2 - F(x/2)^2)/2 + I for x <= 0: 1/4 on both
    sides of 0, 7/8 far left and -1/8 far right.  W1 formed first and 2
    subtracted after would round at the scale of 2, 4.4e-16, where the
    threshold needs the scale of W1 - 2 itself.  The bounds add to the
    integrals' the rounding of the closed part, each F value taken within
    ``_VALUE_ULPS`` ulps of 1, as ``integrate_pieces`` takes its integrand
    values.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    pos = x > 0
    fx, fh = law.dist.cdf(np.array((x, 0.5 * x)))
    vals, errs, panels = _df_integrals(
        law, np.concatenate([x, x]),
        np.concatenate([np.where(pos, 0.5, fx), np.where(pos, fx, 0.5)]),
        np.concatenate([fh, np.ones(n)]), cfg)
    gap, rest = fx - fh, 1.0 - 0.5 * (fx + fh)
    closed = np.where(pos, gap * rest - 0.125, 0.375 - fh - 0.5 * (fx * fx - fh * fh))
    # at least |d(W1 - 2)/dF(x)| + |d(W1 - 2)/dF(x/2)|, and 1/8 for the arithmetic
    slopes = np.where(pos, 2.0 * np.abs(rest) + np.abs(gap), 1.0 + gap)
    rounding = _VALUE_ULPS * _EPS * (slopes + 0.125)
    return closed + vals[:n] + vals[n:], errs[:n] + errs[n:] + rounding, int(panels.sum())


def continuation_curve(dist: SymmetricDistribution, xs,
                       cfg: QuadratureConfig | None = None) -> np.ndarray:
    """Continuation curve at an array of first steps, both signs, in one
    batch: 2 plus ``_excess``, so it rounds at the scale of 2."""
    return 2.0 + _excess(_Law(dist), np.atleast_1d(xs), cfg or FULL_INNER_CFG)[0]


def continuation_value(dist: SymmetricDistribution, x: float,
                       cfg: QuadratureConfig | None = None) -> float:
    """Continuation curve on either side; both one-sided limits at 0 equal 9/4."""
    return float(continuation_curve(dist, float(x), cfg)[0])


def solve_threshold(dist: SymmetricDistribution,
                    quad_cfg: QuadratureConfig | None = None) -> float:
    """The positive first-step threshold where continuing stops paying.

    The paper's bound F(x1*) >= 1/2 + sqrt(2)/4 confines the search: the
    continuation curve minus 2, formed without the offset 2, is scanned at
    16 quantiles, evenly spaced in u on [``THRESHOLD_QUANTILE_BOUND`` -
    ``BOUND_TOL``, 1 - 1e-12], and its last sign change there is refined;
    the curve is nonincreasing, but if it is flat at level 2 this picks the
    largest crossing, which maximizes the stop region and keeps the result
    reproducible.  For distributions whose curve stays above 2 inside the
    support and only reaches 2 at the edge (no mass near the origin), the
    scan finds no sign change and the support edge itself satisfies the
    residual tolerance.  Any other scan raises ``ThresholdError``.

    On adaptive quadrature the refinement is a bracketed root search at
    ``THRESHOLD_ROOT_CFG``; a bracket that ends at b < 1/2 scales x_tol by
    2 b.  A ``TabulatedCdf`` takes no search: its curve is an exact
    quadratic between the knots, twice the knots and the knot differences,
    so one more batch evaluates it at those breaks inside the bracket and
    at the midpoints between them, and x1* is the root of the quadratic on
    the piece of the last sign change.
    """
    return _threshold(_Law(dist), quad_cfg or FULL_INNER_CFG)[0]


def _threshold(law, quad_cfg):
    """solve_threshold's root, the curve minus 2 there, a bound on the
    root's error, and the panels its batches evaluated."""
    dist = law.dist
    hi = dist.quantile(1.0 - 1e-12)
    if hi <= 0:
        raise ThresholdError("distribution has no usable positive support")
    panels = 0

    def excess(xs):
        nonlocal panels
        values, bounds, n = _excess(law, xs, quad_cfg)
        panels += n
        return values, bounds

    u_lo = _SCAN_U[0]
    grid = dist.ppf(_SCAN_U)
    values, bounds = excess(grid)
    sign_changes = np.nonzero((values[:-1] > 0) & (values[1:] <= 0))[0]
    if len(sign_changes) == 0:
        if 0 < values[-1] <= BOUND_TOL:
            # the curve meets 2 only at the support edge
            x = float(grid[-1])
            return x, float(values[-1]), dist.support[1] - x + math.ulp(x), panels
        raise ThresholdError(
            f"continuation curve minus 2 has no sign change at u in [{u_lo}, {1.0 - 1e-12}], "
            f"x in [{grid[0]}, {hi}]: {values[0]} at the start, {values[-1]} at the end")
    i = sign_changes[-1]
    ends, end_values = grid[i:i + 2], values[i:i + 2]
    if law.exact:
        root, residual, error = _root_on_pieces(law, excess, ends, end_values)
    else:
        root, residual, error = _root_by_search(excess, ends, end_values, bounds[i:i + 2])
    return root, residual, error, panels


def _root_by_search(excess, ends, values, bounds):
    """(root, residual, error bound) of a bracketed root search on ``ends``.

    The bound is the width of the narrowest pair of evaluated points that
    holds the root and has opposite signs, or the residual over the slope
    of their secant if that is less (the search may stop on its residual
    before its bracket closes), plus the curve's error bound there over
    that slope.
    """
    seen = {float(x): (float(v), float(e)) for x, v, e in zip(ends, values, bounds)}

    def f(x):
        if x not in seen:
            v, e = excess([x])
            seen[x] = float(v[0]), float(e[0])
        return seen[x][0]

    a, b = map(float, ends)
    cfg = replace(THRESHOLD_ROOT_CFG, x_tol=THRESHOLD_ROOT_CFG.x_tol * min(1.0, 2.0 * b))
    try:
        # find_root starts with the curve at both bracket ends, which the scan
        # has, and only returns points it evaluated.
        root = find_root(f, a, b, cfg)
    except BracketError as exc:  # pragma: no cover - noise at the 1e-10 level
        raise ThresholdError(f"could not bracket the threshold: {exc}") from exc
    xs = sorted(seen)
    lo, hi = min(((l, r) for l, r in zip(xs, xs[1:])
                  if l <= root <= r and (seen[l][0] > 0) != (seen[r][0] > 0)),
                 key=lambda pair: pair[1] - pair[0], default=(a, b))
    (f_lo, e_lo), (f_hi, e_hi) = seen[lo], seen[hi]
    slope = abs(f_hi - f_lo) / (hi - lo)
    residual = seen[root][0]
    return root, residual, min(hi - lo, abs(residual) / slope) + max(e_lo, e_hi) / slope


def _root_on_pieces(law, excess, ends, values):
    """(root, residual, error bound) of a piecewise-quadratic curve on ``ends``.

    One batch evaluates the curve at its breaks inside the bracket
    (``_curve_breaks``) and at the midpoints between them.  On the piece of
    the last sign change the curve is the quadratic through its two ends
    and its midpoint; its root there comes from the stable formula in the
    piece's coordinate s in [0, 1], and a last batch evaluates the curve
    at it.  The bound is the curve's bound and residual there over the
    quadratic's slope, plus an ulp.
    """
    breaks = _curve_breaks(law)[0]
    a, b = ends
    edges = np.unique(np.concatenate([ends, breaks[(breaks > a) & (breaks < b)]]))
    xs = np.empty(2 * len(edges) - 1)
    xs[0::2] = edges
    xs[1::2] = 0.5 * (edges[:-1] + edges[1:])
    w = np.empty(len(xs))
    w[[0, -1]] = values
    w[1:-1] = excess(xs[1:-1])[0]
    j = np.nonzero((w[:-1] > 0) & (w[1:] <= 0))[0][-1]
    k = j - j % 2  # the piece [xs[k], xs[k + 2]], its midpoint xs[k + 1]
    s, slope = _quadratic_root(*w[k:k + 3], 0.5 * (j - k))
    width = xs[k + 2] - xs[k]
    root = float(np.clip(xs[k] + s * width, xs[j], xs[j + 1]))
    residual, bound = (float(v[0]) for v in excess([root]))
    error = (bound + abs(residual)) * width / abs(slope) if slope else math.inf
    return root, residual, error + math.ulp(root)


def _quadratic_root(w0, w_half, w1, s0):
    """The root in [s0, s0 + 1/2] of the quadratic through (0, w0),
    (1/2, w_half) and (1, w1), and its slope there.

    The quadratic is c + b s + a s^2; its roots are q/a and c/q with
    q = -(b + sign(b) sqrt(b^2 - 4ac))/2, neither of which cancels.
    Rounding may leave the root just outside the half piece: the candidate
    nearest to it is taken, the larger of two inside it.
    """
    w0, w_half, w1 = float(w0), float(w_half), float(w1)
    a = 2.0 * (w0 - 2.0 * w_half + w1)
    b = 4.0 * w_half - 3.0 * w0 - w1
    c = w0
    q = -0.5 * (b + math.copysign(math.sqrt(max(b * b - 4.0 * a * c, 0.0)), b))
    roots = []
    if a:
        roots.append(q / a)
    if q:
        roots.append(c / q)
    s1 = s0 + 0.5
    s = max(roots, key=lambda r: (-max(s0 - r, r - s1, 0.0), r))
    return s, b + 2.0 * a * s


def tolerances(dist: SymmetricDistribution, cfg: QuadratureConfig | None = None,
               outer: bool = True) -> dict:
    """``numerics.tolerance_record`` of a solve at ``cfg``: the curve's ("inner"),
    V's ("outer", left out for the curve or threshold alone) and the root
    search's.  A ``TabulatedCdf`` runs neither adaptive quadrature nor a
    root search: empty."""
    if isinstance(dist, TabulatedCdf):
        return {}
    cfg = cfg or FULL_INNER_CFG
    levels = {"inner": cfg, "outer": cfg.outer()} if outer else {"inner": cfg}
    return tolerance_record(**levels, root=THRESHOLD_ROOT_CFG)


def solve_full_info(dist: SymmetricDistribution,
                    cfg: QuadratureConfig | None = None) -> FullInfoSolution:
    """Threshold, optimal expected rank, and diagnostics for one distribution.

    V is 2 plus the first-step integrals of the curve minus 2
    (``_excess``) over the continuation regions, the negative half and
    beyond x1*, in u over [0, 1/2] and [F(x1*), 1]; the stop region
    (0, x1*] adds nothing.  The two integrals are one batch
    (``_u_integrals``), and 2 is added last.  ``diagnostics["panels"]``
    counts the quadrature panels (pieces, on the exact path) evaluated for
    V, and ``diagnostics["threshold_panels"]`` those of the threshold's batches,
    the last of which gives ``diagnostics["threshold_residual"]``, the
    curve minus 2 at x1*.  ``diagnostics["threshold_error_bound"]`` bounds
    |x1* - the curve's root|: on the exact path the curve's rounding bound
    and the residual over the slope of its quadratic piece, plus an ulp; on
    adaptive quadrature the width of the narrowest opposite-sign pair the
    search evaluated around x1*, plus the curve's bound over their secant's
    slope.  ``diagnostics["quadrature_error_bound"]`` adds the outer
    bound, the largest bound of the curve times the u-range it is
    integrated over, and the rounding of the sum 2 + the integrals.
    ``diagnostics["method"]`` is "exact_piecewise_linear" for a
    ``TabulatedCdf`` and "quadrature" otherwise, and
    ``diagnostics["tolerances"]`` is ``tolerances(dist, cfg)``.  ``cfg`` is
    the tolerance of the curve and the threshold; V's outer integral runs
    at ``cfg.outer()``, whose rel_tol applies to V - 2.
    """
    inner_cfg = cfg or FULL_INNER_CFG
    law = _Law(dist)
    x1s, residual, x1_bound, threshold_panels = _threshold(law, inner_cfg)
    f_at = float(dist.cdf(x1s))
    panels = 0
    curve_err = 0.0

    def excess_of_u(us, _):
        nonlocal panels, curve_err
        values, errs, n = _excess(law, dist.ppf(us), inner_cfg)
        panels += n
        curve_err = max(curve_err, float(errs.max(initial=0.0)))
        return values

    (neg_val, pos_val), (neg_err, pos_err), outer_panels = _u_integrals(
        law, excess_of_u, [0.0, f_at], [0.5, 1.0], *_curve_breaks(law), inner_cfg.outer())
    value = float(2.0 + (neg_val + pos_val))
    bound = neg_err + pos_err + curve_err * (1.5 - f_at) + _EPS * value
    return FullInfoSolution(
        x1_star=x1s,
        value=value,
        F_at_threshold=f_at,
        diagnostics={
            "threshold_residual": residual,
            "threshold_error_bound": x1_bound,
            "quadrature_error_bound": float(bound),
            "scan_upper": dist.quantile(1.0 - 1e-12),
            "panels": panels + int(outer_panels.sum()),
            "threshold_panels": threshold_panels,
            "method": law.method,
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
