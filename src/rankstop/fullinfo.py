"""The three-step full-information solution.

After the first step lands at x, the best expected rank achievable by
taking at least one more step is a continuation curve W1 with closed
dF-integral expressions, one branch for x > 0 and one for x <= 0.  The
positive branch decreases from 9/4 (at 0+) to 15/8 (far out), so it
crosses the stop payoff 2 at a threshold x1*; the optimal rule stops at
time 1 exactly on (0, x1*] and continues elsewhere, so the optimal
expected rank is V = 2 + E[W1(X1) - 2; continue].

The negative half of that expectation needs no integral of the curve:

    E[W1(X1) - 2; X1 <= 0] = 13/48 + p,  so  V = 109/48 + p + T,
    T = E[W1(X1) - 2; X1 > x1*] <= 0,

with p = 1/48 - q as in ``relranks``.  After X1 <= 0 the optimal
rule differs from rank rule a (stop at 2 unless S2 is a new minimum) only
on the band 0 < X2 <= -X1, X2 > -X1/2, where S2 has middle rank and the
rule continues, gaining F(X2) + F(S2) - 1 = P(-S2 < X3 <= X2) over a stop
at 2.  Over the band that gain is P(0 < X3 <= X2 <= -X1 < X2 + X3), which
is p by the exchangeability of |X1|, |X2| and |X3|.  The ordering table
(``walkcore.permutation_table``) gives rule a E[rank - 2; S1 < 0] =
13/48 + 2p, so the optimal rule's is 13/48 + p.  The paper's bounds
follow term by term: p <= 1/48 and T <= 0 give V <= 55/24.

One function evaluates the curve: ``_excess``, W1 - 2 formed without the
offset 2, whose rounding is at the scale of that difference.  The
threshold is its root, T its integral beyond x1*, and
``continuation_curve`` is 2 plus it.  One search finds the root on every
law (``_threshold``): a first batch of the curve at 16 quantiles and at
its breaks between them, so that its last sign change lies on a piece
where the curve is smooth, then on a table the root of the quadratic the
curve is there, and on every other law the library's one root finder,
``numerics.find_root``, in small batches at the root interpolated
inversely on the points nearest it.  All dF-integrals are evaluated in
u-space through the substitution u = F(y), so unbounded supports never
appear explicitly and the error control is uniform across distributions.
The curve is evaluated at whole arrays of first steps: the two
dF-integrals of every point go to ``_df_integrals`` as one batch, and it
alone decides how they are integrated.  T, and q for every law but a
table, are outer integrals over inner dF-integrals, and ``_outer`` alone
counts their panels and bounds their error.  ``_q`` serves both
``solve_full_info`` and ``relranks.compute_pq``.

For a ``TabulatedCdf`` (piecewise-linear F) every integrand is a
polynomial between known cuts: the dF-integrands are linear between
F(knots) and F(knots + x), where the 2-point Gauss-Legendre rule
(``numerics.integrate_pieces``) is exact up to rounding, and the curve is
quadratic in x between its breaks (``_curve_breaks``).  So the
threshold's first batch, at its breaks on the positive range and the
midpoints between them, gives both the threshold, the root of the
quadratic piece where the curve crosses 2, found without a root search,
and T, by Simpson's rule on the pieces against dF, which is constant on
each (``_table_solution``); q is one flat integral.  The tolerances do
not apply and the reported bounds are rounding bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .distributions import SymmetricDistribution, TabulatedCdf
from .numerics import (
    _EPS,
    _VALUE_ULPS,
    QuadratureConfig,
    RootConfig,
    _inverse_root,
    find_root,
    integrate_batch,
    integrate_detailed,  # unused here; perfbench/tracer.py patches it by attribute
    integrate_pieces,
    tolerance_record,
)
from .walkcore import FULL_INFORMATION, PQ_SUM, StoppingPolicy

__all__ = [
    "V_LOWER_BOUND",
    "V_UPPER_BOUND",
    "THRESHOLD_QUANTILE_BOUND",
    "BOUND_TOL",
    "FULL_INNER_CFG",
    "THRESHOLD_ROOT_CFG",
    "FullInfoSolution",
    "ThresholdError",
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
#: V = 109/48 + p + T: 109/48 in two floats, its double and what that misses.
_V_BASE = 109.0 / 48.0
_V_BASE_ERROR = float(Fraction(109, 48) - Fraction(_V_BASE))
#: F(x1*) always sits at least this high.
THRESHOLD_QUANTILE_BOUND = 0.5 + math.sqrt(2.0) / 4.0

#: Default tolerance of the continuation curve's dF-integrals, and so of
#: the threshold, and of q's inner integrals; the outer integrals of T and
#: q run at ``FULL_INNER_CFG.outer()``, two decades looser (1e-10), so that
#: they never chase the inner integrals' noise.
FULL_INNER_CFG = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12)
#: The threshold search on adaptive quadrature (``numerics.find_root``)
#: stops after the batch that leaves its pair of evaluated points around the
#: root narrower than x_tol, or a residual below the inner quadrature
#: tolerance, where the curve cannot be told from 2.  x_tol holds where the
#: first batch's bracket ends at x >= 1/2; below, ``_threshold`` scales it
#: by 2 x, so that x1* and V do not depend on the law's scale.
THRESHOLD_ROOT_CFG = RootConfig(x_tol=1e-13, f_tol=1e-14)
#: Slack on the universal bounds above, here and in ``verify``.
BOUND_TOL = 1e-9
#: The threshold scan's 16 points, evenly spaced in u above the paper's bound.
_SCAN_U = np.linspace(THRESHOLD_QUANTILE_BOUND - BOUND_TOL, 1.0 - 1e-12, 16)
#: Padded cuts per ``integrate_pieces`` call of a table's dF-integrals: a
#: block of rows holds at most 512 KB of them, so that a batch of the curve
#: at any number of points holds bounded memory.
_BLOCK_CUTS = 1 << 16


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
    ``_df_integrals``.  On the exact path ``_df_integrals`` takes the fixed
    rule and ignores the degrees, and ``_threshold``, ``solve_full_info``
    and ``_q`` take a table's own schemes (the quadratic's root, Simpson's
    rule on the curve, q as one flat integral) in place of ``find_root``
    and ``_outer``.
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


def _df_integrals(law, x_shift, u_lo, u_hi, cfg):
    """(values, bounds, panels) of the dF-integrals of F(y - x_shift[i])
    over u in [u_lo[i], u_hi[i]]; an empty range (u_hi < u_lo) is [u_lo,
    u_lo], worth 0.

    The integrand u -> F(Q(u) - x) kinks where Q(u) - x crosses a CDF knot
    and where Q itself kinks; both sets are handed to the integrator as
    panel edges.  This is the one place where a table is integrated
    differently.  Every other law takes the adaptive quadrature at
    ``cfg``, all integrals in one batch, each cut with its knot's
    substitution degree.  A ``TabulatedCdf`` takes the fixed rule on its
    pieces (``integrate_pieces``), where ``cfg`` does not apply and the
    bounds are rounding bounds, in blocks of rows that hold at most
    ``_BLOCK_CUTS`` padded cuts, so that a batch of any length holds
    bounded memory.  Its integrand interpolates the knots both ways: its
    nodes lie strictly inside pieces cut at every F level, where
    ``TabulatedCdf.ppf``'s pins at the median and at u = 0 never apply.
    """
    cdf, ppf = law.dist.cdf, law.dist.ppf
    knots, f_knots = law.knots, law.f_knots
    k = len(knots)
    u_lo = np.asarray(u_lo, dtype=float)
    u_hi = np.maximum(u_hi, u_lo)

    def cuts(x):
        rows = np.empty((len(x), 2 * k))
        rows[:, :k] = cdf(knots + x[:, None])
        rows[:, k:] = f_knots
        return rows

    if not law.exact:
        return integrate_batch(lambda u, i: cdf(ppf(u) - x_shift[i]), u_lo, u_hi, cfg,
                               break_points=cuts(x_shift), degrees=law.df_degrees)
    rows = max(1, _BLOCK_CUTS // (2 * k + 2))  # each row padded with its two ends
    blocks = []
    for s in range(0, max(len(x_shift), 1), rows):  # an empty batch makes one empty call
        x = x_shift[s:s + rows]
        blocks.append(integrate_pieces(
            lambda u, i: np.interp(np.interp(u, f_knots, knots) - x[i], knots, f_knots),
            u_lo[s:s + rows], u_hi[s:s + rows], cuts(x)))
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _outer(law, inner, lo, hi, kinks, degrees, cfg):
    """(value, bound, panels) of the outer integral over u in [lo, hi] of a
    function of u whose every value is an inner integral: ``inner(us)``
    gives the (values, bounds, panels) of those at an array of u.

    The outer quadrature runs at ``cfg``, cut at F(kinks), where the
    integrand changes analytic form, with the substitution degree
    ``degrees`` gives each kink; the integrator merges repeated break
    points, taking their largest degree.  On an unbounded support 0 and 1
    are break points as well, of the law's ``end_degree``: there the
    integrand approaches its limit like a power of u times a logarithm (u
    log u on Laplace), which the substitution at a break point flattens.
    The bound is the outer quadrature's plus the largest inner bound times
    hi - lo, and the panels count those of both levels.
    """
    cuts = law.dist.cdf(kinks)
    if not math.isfinite(law.dist.support[1]):
        cuts = np.concatenate([cuts, [0.0, 1.0]])
        degrees = np.concatenate([degrees, [law.end_degree] * 2])
    inner_panels, inner_bound = 0, 0.0

    def integrand(us, _):
        nonlocal inner_panels, inner_bound
        values, bounds, panels = inner(us)
        inner_panels += int(np.sum(panels))
        inner_bound = max(inner_bound, float(bounds.max(initial=0.0)))
        return values

    value, bound, panels = integrate_batch(integrand, [lo], [hi], cfg,
                                           break_points=cuts[None, :], degrees=degrees)
    return (float(value[0]), float(bound[0]) + inner_bound * (hi - lo),
            inner_panels + int(panels[0]))


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
    """Continuation curve at an array of first steps, both signs: 2 plus
    ``_excess``, so it rounds at the scale of 2.  On a table the
    dF-integrals of the points go through in blocks of bounded memory
    (``_df_integrals``), however many points there are."""
    return 2.0 + _excess(_Law(dist), np.atleast_1d(xs), cfg or FULL_INNER_CFG)[0]


def continuation_value(dist: SymmetricDistribution, x: float,
                       cfg: QuadratureConfig | None = None) -> float:
    """Continuation curve on either side; both one-sided limits at 0 equal 9/4."""
    return float(continuation_curve(dist, float(x), cfg)[0])


def solve_threshold(dist: SymmetricDistribution, cfg: QuadratureConfig | None = None) -> float:
    """The positive first-step threshold where continuing stops paying.

    The paper's bound F(x1*) >= 1/2 + sqrt(2)/4 confines the search: the
    continuation curve minus 2, formed without the offset 2, is evaluated
    in one batch at 16 quantiles, evenly spaced in u on
    [``THRESHOLD_QUANTILE_BOUND`` - ``BOUND_TOL``, 1 - 1e-12], and at the
    curve's breaks (``_curve_breaks``) between the first and the last, and
    its last sign change there is refined; the curve is nonincreasing, but
    if it is flat at level 2 this picks the largest crossing, which
    maximizes the stop region and keeps the result reproducible.  With the
    breaks in the batch, the curve is smooth between the two points of that
    sign change.  For distributions whose curve stays above 2 inside the
    support and only reaches 2 at the edge (no mass near the origin), the
    batch finds no sign change and the support edge itself satisfies the
    residual tolerance.  Any other batch raises ``ThresholdError``.

    On a ``TabulatedCdf`` the batch also holds the midpoints between its
    points, and its breaks and midpoints on to the support edge, for T: the
    curve is a quadratic between its breaks, and x1* is the root of the
    one where it changes sign, found without a root search.  Every other
    law refines the sign change with ``numerics.find_root``, in small
    batches of the curve, from the root of u interpolated inversely on the
    curve through the batch's points next to it, until the pair of points
    around the root meets ``THRESHOLD_ROOT_CFG``.
    """
    return _threshold(_Law(dist), cfg or FULL_INNER_CFG)[0]


def _threshold(law, cfg):
    """(x1*, the curve minus 2 there, a bound on |x1* - the curve's root|,
    Q(1 - 1e-12), the panels or pieces of every batch, the first batch) of
    ``solve_threshold``'s search.  The first batch is its points, the curve
    minus 2 and its bounds there, and the index of the point where the
    curve last changes sign, None where x1* is the support edge.

    A table's error bound is the curve's bound and residual at x1* over
    the slope of its quadratic, plus an ulp; the quadratic's root is found
    by the stable formula in the piece's coordinate, and one more batch
    gives the curve minus 2 there.  Every other law hands the crossing
    pair, with the curve and its bounds there, and the first guess to
    ``numerics.find_root``, once, at ``THRESHOLD_ROOT_CFG`` with x_tol
    scaled by min(1, 2 b) for the pair's upper end b; its (root, residual,
    bound) are the first three entries.
    """
    dist = law.dist
    grid = dist.ppf(_SCAN_U)
    x_lo, hi = grid[0], grid[-1]
    if hi <= 0:
        raise ThresholdError("distribution has no usable positive support")
    # Breaks closer than four ulps of the largest |knot| to the one before or
    # to an end are dropped: they are knot sums and differences that would
    # coincide but for the knots' rounding, and a piece that narrow costs two
    # curve points and moves T and x1* by less than their rounding.
    tol = 4.0 * _EPS * float(np.abs(law.knots).max(initial=0.0))
    breaks = np.sort(_curve_breaks(law)[0])
    breaks = np.concatenate([breaks[:1], breaks[1:][np.diff(breaks) > tol]])

    def inside(a, b):
        return breaks[np.searchsorted(breaks, a + tol, "right"):np.searchsorted(breaks, b - tol)]

    below = inside(x_lo, hi)
    if law.exact:
        top = dist.support[1]
        edges = np.concatenate([[x_lo], below, [hi], inside(hi, top), [top]])
        x = np.empty(2 * len(edges) - 1)
        x[0::2], x[1::2] = edges, 0.5 * (edges[:-1] + edges[1:])
        last = 2 * len(below) + 2
    else:
        # each point keeps its u, the scan's or F(break), for the first guess
        x, u = grid, _SCAN_U
        if len(below):  # none on the builtin laws: they skip the merge
            x, keep = np.unique(np.concatenate([grid, below]), return_index=True)
            u = np.concatenate([_SCAN_U, dist.cdf(below)])[keep]
        last = len(x) - 1
    panels = 0

    def excess(xs):
        nonlocal panels
        values, bounds, n = _excess(law, xs, cfg)
        panels += n
        return values, bounds

    w, bounds = excess(x)
    changes = np.nonzero((w[:last] > 0) & (w[1:last + 1] <= 0))[0]
    if len(changes) == 0:
        if not 0 < w[last] <= BOUND_TOL:
            raise ThresholdError(
                f"continuation curve minus 2 has no sign change at u in "
                f"[{_SCAN_U[0]}, {_SCAN_U[-1]}], x in [{x_lo}, {hi}]: "
                f"{w[0]} at the start, {w[last]} at the end")
        # the curve meets 2 only at the support edge
        x1s = float(hi)
        return (x1s, float(w[last]), dist.support[1] - x1s + math.ulp(x1s), x1s, panels,
                (x, w, bounds, None))
    j = changes[-1]
    if law.exact:
        k = j - j % 2  # the piece [x[k], x[k + 2]], its midpoint x[k + 1]
        a, b, c = _quadratic(*w[k:k + 3])
        s, slope = _quadratic_root(a, b, c, 0.5 * (j - k))
        width = x[k + 2] - x[k]
        x1s = float(np.clip(x[k] + s * width, x[j], x[j + 1]))
        residual, bound = excess([x1s])
        residual = float(residual[0])
        error = (float(bound[0]) + abs(residual)) * width / abs(slope) if slope else math.inf
        x1_bound = error + math.ulp(x1s)
    else:
        # the first guess, interpolated in u, where the scan's points are
        # evenly spaced: in x, which Q crowds near 0 and the support edge, it
        # lands farther from the root
        near = slice(max(j - 1, 0), j + 3)
        u0 = _inverse_root(u[near], w[near], u[j], u[j + 1])
        root_cfg = replace(THRESHOLD_ROOT_CFG,
                           x_tol=THRESHOLD_ROOT_CFG.x_tol * min(1.0, 2.0 * float(x[j + 1])))
        x1s, residual, x1_bound = find_root(excess, x[j:j + 2], w[j:j + 2], bounds[j:j + 2],
                                            float(dist.ppf(u0)), root_cfg)
    return x1s, residual, x1_bound, float(hi), panels, (x, w, bounds, j)


def _table_solution(law, x1s, f_at, batch):
    """(T, its bound, pieces) of a ``TabulatedCdf``, from the first batch
    of ``_threshold``: the curve minus 2 at the curve's breaks from
    Q(``_SCAN_U[0]``) to the support edge, Q(1 - 1e-12) among them, and
    at the midpoints between consecutive points.

    dF is constant on every piece between breaks, where the curve is
    quadratic, so Simpson's rule, exact on quadratics, gives T = sum (F(b)
    - F(a)) (w_a + 4 w_m + w_b) / 6 over the pieces [a, b] beyond x1*,
    with w the curve minus 2 at the ends and the midpoint m; the crossing
    piece adds its quadratic's exact integral from x1* to its end.  T's
    bound is the largest bound of the batch times the u-range it covers, 1
    - F(x1*) = 1 - ``f_at``, and the rounding of the sum and of its F
    values.
    """
    x, w, bounds, j = batch
    f_edges = law.dist.cdf(x[0::2])
    if j is None:  # x1* is Q(1 - 1e-12), a point of the batch
        first, crossing = int(np.searchsorted(x, x1s)), np.zeros((3, 0))
    else:
        k = j - j % 2
        a, b, c = _quadratic(*w[k:k + 3])
        left, right = x[k], x[k + 2]
        width = right - left
        # [x1*, right]: its mass and the means of the quadratic and of the
        # modulus of its terms over s in [(x1* - left) / width, 1]
        s, first = (x1s - left) / width, k + 2
        terms = np.array([c, b * (1.0 + s) / 2.0, a * (1.0 + s + s * s) / 3.0])
        crossing = np.array([[(f_edges[first // 2] - f_edges[k // 2]) * (right - x1s) / width],
                             [terms.sum()], [np.abs(terms).sum()]])

    # T, by Simpson's rule on the pieces beyond x1*: the rows are each
    # piece's mass and the means of the curve minus 2 and of its modulus,
    # the crossing piece first
    w = w[first:]
    mass, mean, mean_abs = np.concatenate([crossing, [
        np.diff(f_edges[first // 2:]),
        (w[:-1:2] + 4.0 * w[1::2] + w[2::2]) / 6.0,
        (np.abs(w[:-1:2]) + 4.0 * np.abs(w[1::2]) + np.abs(w[2::2])) / 6.0]], axis=1)
    # each term rounds a few times and the sum once per term, as in
    # integrate_pieces; an F value off by _VALUE_ULPS ulps of 1 moves mass
    # from one of its pieces to the other, by the jump of their means
    jumps = np.abs(np.diff(mean, prepend=0.0, append=0.0)).sum()
    rounding = _EPS * ((len(mass) + _VALUE_ULPS) * (mass * mean_abs).sum() + _VALUE_ULPS * jumps)
    return (float((mass * mean).sum()), float(rounding + float(bounds.max()) * (1.0 - f_at)),
            len(mass))


def _quadratic(w0, w_half, w1):
    """(a, b, c) of the quadratic c + b s + a s^2 through (0, w0),
    (1/2, w_half) and (1, w1)."""
    w0, w_half, w1 = float(w0), float(w_half), float(w1)
    return 2.0 * (w0 - 2.0 * w_half + w1), 4.0 * w_half - 3.0 * w0 - w1, w0


def _quadratic_root(a, b, c, s0):
    """The root in [s0, s0 + 1/2] of the quadratic c + b s + a s^2, and its
    slope there.

    Its roots are q/a and c/q with q = -(b + sign(b) sqrt(b^2 - 4ac))/2,
    neither of which cancels.  Rounding may leave the root just outside the
    half piece: the candidate nearest to it is taken, the larger of two
    inside it.
    """
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
    """``numerics.tolerance_record`` of a solve at ``cfg``: the curve's and
    q's inner integrals ("inner"), T's and q's outer ones ("outer", left
    out for the curve or threshold alone) and the root search's; empty on a
    ``TabulatedCdf``, which runs neither quadrature nor a root search."""
    if isinstance(dist, TabulatedCdf):
        return {}
    cfg = cfg or FULL_INNER_CFG
    levels = {"inner": cfg, "outer": cfg.outer()} if outer else {"inner": cfg}
    return tolerance_record(**levels, root=THRESHOLD_ROOT_CFG)


def solve_full_info(dist: SymmetricDistribution,
                    cfg: QuadratureConfig | None = None) -> FullInfoSolution:
    """Threshold, optimal expected rank, and diagnostics for one distribution.

    x1* is ``solve_threshold``'s, from ``_threshold``, whose tuple gives
    the threshold's diagnostics.  V is 109/48 + p + T (module docstring),
    summed by ``math.fsum`` with 109/48 in two floats: p = 1/48 - q from
    ``_q`` at ``cfg``, and T the integral of the curve minus 2 beyond x1*,
    over [F(x1*), 1] in u on adaptive quadrature and by
    ``_table_solution``'s Simpson sum on the threshold's first batch on a
    ``TabulatedCdf``.

    In ``diagnostics``, ``panels`` counts the panels of T and of p, or on a
    table T's curve pieces, which evaluate nothing more, and q's pieces;
    ``threshold_panels`` those of the threshold's batches, or on a table
    the dF-integral pieces of both curve batches.  ``threshold_residual``
    is the curve minus 2 at x1*, from the threshold's last batch, and
    ``threshold_error_bound`` bounds |x1* - the curve's root|: on a table
    the curve's rounding bound and the residual over the slope of its
    quadratic piece, plus an ulp; elsewhere the width of the narrowest
    opposite-sign pair the search evaluated around x1*, plus the curve's
    bound over their secant's slope.  ``p`` and ``p_error_bound`` are p and
    its bound.  ``quadrature_error_bound``, V's, adds p's bound, T's outer
    bound (on a table, the rounding of the Simpson sum), the curve's
    largest bound times 1 - F(x1*), and the rounding of the sum.
    ``method`` is "exact_piecewise_linear" on a table and "quadrature"
    otherwise, and ``tolerances`` is ``tolerances(dist, cfg)``.  ``cfg`` is
    the tolerance of the curve, the threshold and q's inner integrals; the
    outer integrals of T and q run at ``cfg.outer()``.
    """
    inner_cfg = cfg or FULL_INNER_CFG
    law = _Law(dist)
    x1s, residual, x1_bound, scan_upper, threshold_panels, batch = _threshold(law, inner_cfg)
    f_at = float(dist.cdf(x1s))
    t, t_bound, t_panels = (_table_solution(law, x1s, f_at, batch) if law.exact
                            else _adaptive_solution(law, f_at, inner_cfg))
    q, p_bound, p_panels = _q(law, inner_cfg)
    p = float(PQ_SUM) - q
    value = math.fsum([_V_BASE, _V_BASE_ERROR, p, t])
    diagnostics = {"threshold_residual": residual, "threshold_error_bound": x1_bound,
                   "scan_upper": scan_upper, "panels": t_panels + p_panels,
                   "threshold_panels": threshold_panels,
                   "quadrature_error_bound": p_bound + t_bound + _EPS * value, "p": p,
                   "p_error_bound": p_bound, "method": law.method,
                   "tolerances": tolerances(dist, inner_cfg)}
    return FullInfoSolution(x1_star=x1s, value=value, F_at_threshold=f_at,
                            diagnostics=diagnostics)


def _adaptive_solution(law, f_at, inner_cfg):
    """(T, its bound, panels) on adaptive quadrature: the outer integral of
    the curve minus 2 over [F(x1*), 1] = [``f_at``, 1] in u, at
    ``inner_cfg.outer()``."""
    # T's range, at most 0.146 wide, would start from one panel, 3.5e-15 off
    # on Laplace; cut at its midpoint (degree 0: smooth there), from two.
    kinks, degrees = _curve_breaks(law)
    return _outer(law, lambda us: _excess(law, law.dist.ppf(us), inner_cfg), f_at, 1.0,
                  np.append(kinks, law.dist.ppf(0.5 * (f_at + 1.0))), np.append(degrees, 0),
                  inner_cfg.outer())


def _q(law, cfg):
    """(q, a bound on both q and p = 1/48 - q, panels) of ``law`` in the
    forms of the ``relranks`` module docstring, for ``solve_full_info`` and
    ``relranks.compute_pq``.

    A ``TabulatedCdf`` integrates (1 - G(z)) h(z) / 16 over [0, k_max], k
    the folded knots, cut at the knots and their pairwise sums, where the
    integrand is quadratic: ``cfg`` does not apply, the bound is a rounding
    bound and the panels are the pieces.  Every other law takes q as 1/2
    times the integral of I(Q(r)) over (1/2, 1), both levels cut where
    they kink.  ``cfg`` is the tolerance of the folded inner integral J and
    the outer integral runs at ``cfg.outer()``: since J = 4 I and the
    integral of J over v is 8 times that of I over r, the absolute
    tolerances act on I and its integral as a quarter and an eighth.
    """
    if law.exact:
        pos = law.knots >= 0.0
        k = law.knots[pos]
        g_at = 2.0 * law.f_knots[pos] - 1.0
        density = np.diff(g_at) / np.diff(k)  # g_i, G's density on [k_i, k_i+1]

        def integrand(z, _):  # h(z) = sum_i g_i (G(z - k_i) - G(z - k_i+1))
            below = np.interp(z[:, None] - k, k, g_at)  # G(z - k_i), 0 where z < k_i
            return (1.0 - np.interp(z, k, g_at)) * ((below[:, :-1] - below[:, 1:]) @ density)

        sums = np.add.outer(k, k).ravel()
        cuts = np.concatenate([k, sums[sums < k[-1]]])
        total, bound, pieces = integrate_pieces(integrand, [0.0], [k[-1]], cuts[None, :])
        # p = 1/48 - q rounds twice: 1/48 itself and the difference.
        return (float(total[0]) / 16.0, float(bound[0]) / 16.0 + _EPS * float(PQ_SUM),
                int(pieces[0]))
    dist = law.dist
    upper = dist.support[1]
    quarter = replace(cfg, abs_tol=cfg.abs_tol / 4.0)
    outer_cfg = cfg.outer()

    def inner(rs):
        x = dist.ppf(rs)
        # On an unbounded support the lower limit F(x - upper) is 0, also at
        # x = Q(1) = +inf, where F(x - upper) would be F(inf - inf) = NaN.
        lo = dist.cdf(x - upper) if math.isfinite(upper) else np.zeros(len(x))
        return _df_integrals(law, x, lo, 0.5, quarter)

    # I(Q(r)) kinks where two cuts of its integrand meet, at the differences
    # of two knots (0 included, for the inner upper limit 1/2) at or below
    # 0.  Each difference takes the smaller degree of its two knots, and the
    # 0 added takes the largest the law declares, so that a kink with it
    # takes the other knot's degree.  The integrators merge repeated kinks.
    ends = np.abs(np.append(law.knots, 0.0))
    d = np.append(law.degrees, max(law.degrees, default=2))
    gaps = np.subtract.outer(ends, ends).ravel()
    kink = gaps >= 0.0
    total, bound, panels = _outer(law, inner, 0.5, 1.0, gaps[kink],
                                  np.minimum.outer(d, d).ravel()[kink],
                                  replace(outer_cfg, abs_tol=outer_cfg.abs_tol / 8.0))
    # q is half the integral over r, and its bound half the integral's.
    return 0.5 * total, 0.5 * bound + 1e-14, panels


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

    @property
    def passed(self) -> bool:
        return self.max_violation <= 1e-8


def lower_bound_check(dist: SymmetricDistribution) -> LowerBoundReport:
    """Verify the continuation curve dominates its closed-form lower estimates.

    For x > 0 the floor is 15/8 + F(x)(1 - F(x)); for x < 0 it is
    23/8 - F(x) - F(x/2)/2 + F(x/2)^2/2.  Both sides are evaluated
    independently at +-x for 100 points x, geometric from 1e-4 to 1 times
    the 1 - 1e-9 quantile; the report carries the worst signed gap, and
    passes when it is at most 1e-8.
    """
    xs = dist.quantile(1.0 - 1e-9) * np.geomspace(1e-4, 1.0, 100)
    xs = np.concatenate([xs, -xs])
    fx = dist.cdf(xs)
    fh = dist.cdf(0.5 * xs)
    floor = np.where(xs > 0, 15.0 / 8.0 + fx * (1.0 - fx), 23.0 / 8.0 - fx - 0.5 * fh + 0.5 * fh * fh)
    gaps = floor - continuation_curve(dist, xs)
    i = int(np.argmax(gaps))
    return LowerBoundReport(max_violation=float(gaps[i]), worst_x=float(xs[i]))
