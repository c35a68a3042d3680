"""Batched adaptive quadrature and bracketed root finding with explicit tolerances.

One engine, ``integrate_batch``, refines many integrals at once.  Each
panel gets a Gauss-Kronrod 7/15 estimate and the |K15 - G7| error of
QUADPACK's QAG.  The panels of all problems live in flat arrays (problem
index, ends, value, error, and which ends are marked).  Each round
splits, in every problem still above its tolerance, the fewest of its
worst panels whose error covers the excess, and all new panels go
through the integrand together, in blocks of ``_BLOCK_PANELS`` panels, so
no integrand call sees more than a fixed number of nodes however many
problems there are.  This is the design of SciPy's ``quad_vec`` extended
across problems.  ``integrate_detailed`` is the one-problem case of the
same engine.  A problem of width w starts from ceil(8 w) equal panels, at
least 1 and at most ``_INITIAL_PANELS`` = 8, before its break points split
them: a narrow inner problem gets the node density of the unit interval,
not 8 panels of its own.

Panel ends that are problem ends or break points are marked: that is
where the integrands of this package are singular, as where the quantile
of PowerFold has an algebraic singularity at u = 1/2.  A split panel that
holds most of its problem's error and has exactly one marked end is cut
at ``_GRADE`` of its width from that end, and every other panel is
bisected.  The panel next to a singularity at a marked end then narrows
by a factor 8 per round instead of 2: the graded mesh of QUADPACK's QAGS,
without its extrapolation.  Smooth integrands, whose error is spread over
many panels, are bisected as before.

A panel with a break point at an end is integrated through a polynomial
change of variables that flattens that end (Davis and Rabinowitz, 1984;
Sidi, 1993, whose transformations are of this kind).  With H = b - a and the
Kronrod nodes mapped to t in [0, 1], the map is u = a + H t^2 at a left
break point, u = b - H (1 - t)^2 at a right one and the smoothstep
u = a + H (3t^2 - 2t^3) at both.  A singularity (u - a)^alpha then
becomes t^(2 alpha + 1), a polynomial for alpha = 1/2.  A break point
equal to a problem end flags that end as well.  A problem end alone does
not: it is often only where the range stops, and on a smooth integrand
the stretched nodes cost panels (cos(20u) on [0, 3] would take 60
instead of 54), so integrands without break points keep the plain rule
and their results.  On a split only the child at a flattened end keeps
the map.

``integrate_pieces`` is the fixed-rule counterpart for integrands that are
polynomials of degree at most 3 between known break points: the 2-point
Gauss-Legendre rule on every piece, no refinement, and a rounding bound in
place of an error estimate.

Integrands must be vectorized (ndarray of nodes in, ndarray of values
out).  Every integrand in this package is evaluated in u-space after the
substitution u = F(y), so the intervals are bounded and the integrands
are bounded and piecewise smooth.  Both rules place their nodes strictly
inside each panel, so u may run over all of [0, 1] even where the
quantile is infinite at 0 and 1; only a panel narrower than the float
spacing at its end can round a node onto that end.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from decimal import Decimal

import numpy as np

__all__ = [
    "QuadratureConfig",
    "RootConfig",
    "QuadratureError",
    "BracketError",
    "integrate_batch",
    "integrate_detailed",
    "integrate_pieces",
    "find_root",
    "tolerance_record",
]

# Panels per integrand call: 256 panels are 3,840 nodes.  Larger blocks
# barely lower the per-panel cost, and an integrand that opens inner
# integrals for each of its nodes holds state for all of them at once.
_BLOCK_PANELS = 256
# Equal panels per unit of width an adaptive problem starts with, and the
# most it starts with, before its break points split them further: narrow
# features near the ends of the unit u-interval meet a node, and a problem
# on [0, 1e9] still starts with 8.
_INITIAL_PANELS = 8
# Nodes per integrand call of integrate_pieces, and padded break points
# per block of its problems; together they bound the memory of one call.
_BLOCK_NODES = 1 << 10
_BLOCK_CUTS = 1 << 16
# Rounding bound of integrate_pieces: every integrand value and rule weight
# is taken to be within this many ulps, and each node adds one rounding to
# the sum.
_VALUE_ULPS = 16
# Nodes and weights on [-1, 1] of integrate_pieces' one rule, the 2-point
# Gauss-Legendre rule: exact up to degree 3, and the exact-path integrands
# are linear (inner) and quadratic (outer) on their pieces.  These are the
# values of np.polynomial.legendre.leggauss(2) bit for bit; calling it
# would import numpy.polynomial, 2 MB, into every process.
_PIECE_RULE = (np.array([-1.0, 1.0]) * (math.sqrt(3.0) / 3.0), np.ones(2))
_EPS = float(np.finfo(float).eps)
# A panel no wider than this times (|a| + |b| + 1) cannot be split.
_NARROW = 8.0 * _EPS
# Where a panel that holds most of its problem's error is split, as a
# fraction of its width from its left end, indexed by its mark: bisected
# when neither or both ends are marked, else _GRADE of the width from the
# marked end.  A singularity u^a at that end then loses a factor
# 8^(1 + a) of its error per round instead of 2^(1 + a).  Of 1/4, 1/8,
# 1/16 and 1/32, 1/8 took the fewest panels on the PowerFold and Laplace
# solves, and about as few rounds as 1/16.
_GRADE = 0.125
_SPLIT_AT = np.array([0.5, _GRADE, 1.0 - _GRADE, 0.5])
# A panel's mark has bit 1 (2) set when its left (right) end is a problem
# end or a break point, which is what the graded split reads, and bit 4 (8)
# when that end is a break point, which _evaluate flattens.  Of a split
# panel, the left child keeps the bits in _LEFT and the right one those in
# _RIGHT.
_MARKED = 1 | 2
_LEFT, _RIGHT = 1 | 4, 2 | 8


# 15-point Kronrod abscissae on [-1, 1] and weights; the embedded 7-point
# Gauss rule uses the odd-indexed abscissae.  Standard QUADPACK constants.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])


def _rules(degree):
    """Nodes, in half widths, and weight factors of the Kronrod rule on a
    panel [a, b], one row per value of ``mark >> 2``.  Row 0 is the plain
    rule, nodes about the centre.  Rows 1 to 3 take the nodes through
    u = a + H s(t), t in [0, 1], measured from a, and weight them by s'(t):
    s = t^d flattens the left end, s = 1 - (1 - t)^d the right one and the
    smoothstep s = 3t^2 - 2t^3 both."""
    t = 0.5 * (1.0 + _XK)
    r = 1.0 - t
    nodes = np.array([_XK, 2.0 * t**degree, 2.0 * (1.0 - r**degree),
                      2.0 * t * t * (3.0 - 2.0 * t)])
    weights = np.array([np.ones_like(t), degree * t**(degree - 1), degree * r**(degree - 1),
                        6.0 * t * r])
    return nodes, weights


# Degree of the one-sided substitution u = a + H t^d: a singularity
# (u - a)^alpha at a flattened end becomes t^(d (1 + alpha) - 1), so d = 2
# turns alpha = 1/2 into a polynomial.  Of 2, 3 and 4, 2 took the fewest
# panels on the PowerFold(2) and Laplace solves.
_DEGREE = 2
_NODES, _WEIGHTS = _rules(_DEGREE)


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 10**6

    def __post_init__(self):
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("quadrature tolerances must be positive and finite, got "
                             f"abs_tol={self.abs_tol!r}, rel_tol={self.rel_tol!r}")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")

    def outer(self) -> QuadratureConfig:
        """The config of an outer integral over inner integrals at this one.

        Both tolerances sit two decades higher, above the inner integrals'
        noise, which the outer refinement would otherwise chase.
        """
        def looser(tol):  # 1e-13 gives 1e-11, where 100 * 1e-13 is 1.0000000000000001e-11
            return float(Decimal(repr(float(tol))).scaleb(2))
        return replace(self, abs_tol=looser(self.abs_tol), rel_tol=looser(self.rel_tol))


@dataclass(frozen=True)
class RootConfig:
    x_tol: float = 1e-12
    f_tol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self):
        if not (0 < self.x_tol < math.inf and 0 < self.f_tol < math.inf):
            raise ValueError("root tolerances must be positive and finite, got "
                             f"x_tol={self.x_tol!r}, f_tol={self.f_tol!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def tolerance_record(**levels) -> dict:
    """The tolerances of configs by level, flat: ``tolerance_record(inner=q,
    root=r)`` has keys inner_abs_tol, inner_rel_tol, root_x_tol, root_f_tol."""
    return {f"{level}_{name}": value for level, cfg in levels.items()
            for name, value in asdict(cfg).items() if name.endswith("_tol")}


class QuadratureError(RuntimeError):
    """Refinement budget exhausted; carries the best estimate and its bound."""

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (estimate={estimate!r}, error_bound={error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


class BracketError(ValueError):
    """The supplied interval does not bracket a sign change."""


def _evaluate(f, problem, a, b, mark):
    """K15 values and |K15 - G7| errors of panels [a, b], one integrand call per block.

    A panel takes row ``mark >> 2`` of ``_NODES`` and ``_WEIGHTS``: the
    plain rule, or the substitution that flattens the ends its mark flags
    as break points."""
    val = np.empty(len(a))
    err = np.empty(len(a))
    for s in range(0, len(a), _BLOCK_PANELS):
        blk = slice(s, s + _BLOCK_PANELS)
        c = 0.5 * (a[blk] + b[blk])
        h = 0.5 * (b[blk] - a[blk])
        rule = mark[blk] >> 2
        u = np.where(rule, a[blk], c)[:, None] + h[:, None] * _NODES.take(rule, axis=0)
        y = np.asarray(f(u.ravel(), np.repeat(problem[blk], len(_XK))), dtype=float)
        if y.shape != (u.size,):
            raise TypeError("integrand must map an ndarray of nodes to values elementwise")
        y = y.reshape(u.shape) * _WEIGHTS.take(rule, axis=0)
        k = h * (y @ _WK)
        val[blk] = k
        err[blk] = np.abs(k - h * (y[:, 1::2] @ _WG))
    return val, err


def _bounds(a, b):
    """The problems' bounds as two 1-D float arrays, checked."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"bounds must be two 1-D arrays of equal length, got {a.shape} and {b.shape}")
    if np.any(a > b):
        i = int(np.argmax(a > b))
        raise ValueError(f"integration bounds out of order: [{a[i]}, {b[i]}]")
    return a, b


def _cut_rows(break_points, m):
    """break_points as an (m, k) float array, checked; (m, 0) when None."""
    if break_points is None:
        return np.empty((m, 0))
    cuts = np.asarray(break_points, dtype=float)
    if cuts.ndim != 2 or len(cuts) != m:
        raise ValueError(f"break_points must have one row per problem, got shape {cuts.shape}")
    return cuts


def _initial_panels(a, b, n, break_points):
    """(problem, a, b, mark) of the starting panels: min(n, max(1, ceil(n
    (b - a)))) equal panels per problem, n on every problem at least 1
    wide, split further at the break points inside it.  ``mark`` has bit 1
    set where a panel's left end is an end of its problem or a break
    point, and bit 2 where its right end is; bits 4 and 8 where that end
    is a break point, one at a problem end included."""
    m = len(a)
    width = n * (b - a)
    k = np.where(width < n, np.maximum(np.ceil(width), 1.0), n).astype(np.int64)
    owner = np.repeat(np.arange(m, dtype=np.int32), k + 1)
    first = np.cumsum(k + 1) - (k + 1)
    j = np.arange(len(owner)) - first[owner]
    # a + j (b - a) / k, as np.linspace computes it, and b exactly at the end
    points = j * ((b - a) / k)[owner] + a[owner]
    last = first + k
    points[last] = b
    # Per point, the bits of the mark of a panel whose left end it is.
    edge = np.zeros(len(owner), dtype=np.int8)
    edge[first] = 1
    edge[last] = 1
    if break_points is not None:
        cuts = _cut_rows(break_points, m)
        on = np.flatnonzero((cuts >= a[:, None]) & (cuts <= b[:, None]))
        points = np.concatenate([points, cuts.ravel()[on]])
        owner = np.concatenate([owner, (on // cuts.shape[1]).astype(np.int32)])
        edge = np.concatenate([edge, np.full(len(on), _LEFT, dtype=np.int8)])
        order = np.lexsort((points, owner))
        points, owner, edge = points[order], owner[order], edge[order]
    # A point repeated within a problem carries the bits of every copy.
    repeat = (owner[1:] == owner[:-1]) & (points[1:] == points[:-1])
    if repeat.any():
        first = np.concatenate(([True], ~repeat))
        edge = np.bitwise_or.reduceat(edge, np.flatnonzero(first))[np.cumsum(first) - 1]
    keep = (owner[1:] == owner[:-1]) & (points[:-1] < points[1:])  # drops repeats and empty problems
    mark = (edge[:-1] | (edge[1:] << 1))[keep]
    return owner[:-1][keep], points[:-1][keep], points[1:][keep], mark


def integrate_batch(f, a, b, cfg: QuadratureConfig | None = None, break_points=None):
    """Adaptive integrals of m problems, problem i on [a[i], b[i]].

    ``f(u, problem)`` takes a flat ndarray of nodes and the index of the
    problem each node belongs to, and returns the integrand values; nodes
    of many problems arrive in one call.  ``break_points`` is an (m, k)
    array of known kink locations, one row per problem, padded with NaN;
    points in [a[i], b[i]] are used and points outside it are ignored.  A
    break point inside (a[i], b[i]) becomes a panel edge, and one equal to
    a[i] or b[i] flattens that end of the problem.  A problem of width w
    starts out split into ceil(``_INITIAL_PANELS`` w) equal panels, at least
    1 and at most ``_INITIAL_PANELS``, plus its break points, and keeps its
    own convergence test ``abs_tol + rel_tol * |value|`` and its own budget
    of ``max_subdivisions`` splits.  A panel is bisected, except
    one that holds more than half of its problem's error and touches
    exactly one of the problem's ends and break points: that one is cut at
    ``_GRADE`` of its width from the point it touches, and only the child
    there touches it again.  A panel with a break point at an end, a
    problem end included, takes its nodes through u = a + H t^2 (u = b -
    H (1 - t)^2 at the right end, the smoothstep u = a + H (3t^2 - 2t^3)
    at both), which flattens a singularity there; panels that touch only
    problem ends keep the plain rule, since smooth integrands would pay
    for the stretched nodes.

    Returns (values, error_bounds, panels), arrays of length m; ``panels``
    counts the 15-node panels evaluated for each problem.  Raises
    QuadratureError, carrying the estimate and bound of the first failing
    problem, when a budget runs out or the error of panels too narrow to
    split exceeds the tolerance.
    """
    cfg = cfg or QuadratureConfig()
    a, b = _bounds(a, b)
    m = len(a)
    problem, pa, pb, mark = _initial_panels(a, b, _INITIAL_PANELS, break_points)
    val, err = _evaluate(f, problem, pa, pb, mark)
    panels = np.bincount(problem, minlength=m)
    splits = np.zeros(m, dtype=np.int64)
    # Per problem: the value and error of panels no longer refined, which
    # are every panel of a converged problem and the parked panels of the others.
    fixed_val = np.zeros(m)
    fixed_err = np.zeros(m)
    while True:
        total_val = np.bincount(problem, val, m) + fixed_val
        total_err = np.bincount(problem, err, m) + fixed_err
        tol = cfg.abs_tol + cfg.rel_tol * np.abs(total_val)
        over = total_err > tol
        if not over.any():
            return total_val, total_err, panels
        live = over[problem]
        if not live.all():
            fixed_val = np.where(over, fixed_val, total_val)
            fixed_err = np.where(over, fixed_err, total_err)
            problem, pa, pb, val, err, mark = (x[live]
                                               for x in (problem, pa, pb, val, err, mark))
        spent = over & (splits >= cfg.max_subdivisions)
        if spent.any():
            i = int(np.argmax(spent))
            raise QuadratureError(_failure("quadrature did not reach the requested tolerance", i, m),
                                  float(total_val[i]), float(total_err[i]))
        # Per problem, the fewest worst panels whose error covers the excess
        # over the tolerance, within what is left of the budget.
        order = np.lexsort((-err, problem))
        p_sorted = problem[order]
        before = np.cumsum(err[order]) - err[order]
        start = np.searchsorted(p_sorted, p_sorted)  # where each problem's run begins
        before -= before[start]
        rank = np.arange(len(order)) - start
        pick = order[(before < (total_err - tol)[p_sorted])
                     & (rank < (cfg.max_subdivisions - splits)[p_sorted])]
        narrow = (pb[pick] - pa[pick]) <= _NARROW * (np.abs(pa[pick]) + np.abs(pb[pick]) + 1.0)
        if narrow.any():
            # Cannot be split further in floating point; park their error.
            parked = pick[narrow]
            fixed_val += np.bincount(problem[parked], val[parked], m)
            fixed_err += np.bincount(problem[parked], err[parked], m)
            stalled = fixed_err > tol  # only parked error is fixed in a live problem
            if stalled.any():
                i = int(np.argmax(stalled))
                raise QuadratureError(_failure("quadrature stalled on an unresolvable feature", i, m),
                                      float(total_val[i]), float(total_err[i]))
        split = pick[~narrow]
        rest = np.ones(len(problem), dtype=bool)
        rest[pick] = False
        # Each child keeps the mark of the end it shares with its parent.
        sa, sb, smark = pa[split], pb[split], mark[split]
        at = np.where(err[split] > 0.5 * total_err[problem[split]], _SPLIT_AT[smark & _MARKED], 0.5)
        cut = sa + at * (sb - sa)
        new_problem = np.concatenate([problem[split], problem[split]])
        new_a = np.concatenate([sa, cut])
        new_b = np.concatenate([cut, sb])
        new_mark = np.concatenate([smark & _LEFT, smark & _RIGHT])
        new_val, new_err = _evaluate(f, new_problem, new_a, new_b, new_mark)
        splits += np.bincount(problem[split], minlength=m)
        panels += np.bincount(new_problem, minlength=m)
        problem = np.concatenate([problem[rest], new_problem])
        pa = np.concatenate([pa[rest], new_a])
        pb = np.concatenate([pb[rest], new_b])
        val = np.concatenate([val[rest], new_val])
        err = np.concatenate([err[rest], new_err])
        mark = np.concatenate([mark[rest], new_mark])


def _failure(message, i, m):
    return message if m == 1 else f"{message} in problem {i} of {m}"


def integrate_detailed(f, a, b, cfg: QuadratureConfig | None = None, break_points=None):
    """Adaptive integral of a vectorized ``f`` on [a, b]: integrate_batch with one problem.

    Returns (value, error_bound, panels), where ``panels`` counts the
    15-node panels evaluated.  Raises QuadratureError when the
    subdivision budget runs out before ``error_bound`` falls below
    ``abs_tol + rel_tol * |value|``.  An interval of width w starts out
    split into ceil(``_INITIAL_PANELS`` w) equal panels, at least 1 and at
    most ``_INITIAL_PANELS``, so that narrow features near the endpoints of
    a unit interval are seen by at least one Kronrod node; known kink
    locations of the integrand can be supplied as ``break_points`` and
    become panel edges, which makes piecewise-polynomial integrands exact
    immediately, and panels that end at them flatten a singularity there.
    """
    if break_points is not None:
        break_points = np.asarray(break_points, dtype=float).reshape(1, -1)
    val, err, panels = integrate_batch(lambda u, _: f(u), [a], [b], cfg, break_points)
    return float(val[0]), float(err[0]), int(panels[0])


def integrate_pieces(f, a, b, break_points=None):
    """Fixed-rule integrals of m problems, problem i on [a[i], b[i]].

    Takes ``f(u, problem)`` and ``break_points`` as ``integrate_batch``
    does.  Each problem is cut at its break points inside (a[i], b[i]) and
    the 2-point Gauss-Legendre rule ``_PIECE_RULE`` is applied to every
    piece, so the result is exact up to rounding when ``f`` is a polynomial
    of degree at most 3 on every piece.  There is no refinement and no
    tolerance.  Problems go through in blocks of at most ``_BLOCK_CUTS``
    padded break points, and no integrand call sees more than
    ``_BLOCK_NODES`` nodes.

    Returns (values, bounds, panels), arrays of length m.  ``bounds`` are
    rounding bounds: (nodes + ``_VALUE_ULPS``) * eps times the integral of
    |f| by the same rule.  ``panels`` counts the pieces evaluated.
    """
    a, b = _bounds(a, b)
    m = len(a)
    cuts = _cut_rows(break_points, m)
    x, w = _PIECE_RULE
    val = np.zeros(m)
    mag = np.zeros(m)
    panels = np.zeros(m, dtype=np.int64)
    rows = max(1, _BLOCK_CUTS // (cuts.shape[1] + 2))
    per_call = max(1, _BLOCK_NODES // len(x))
    for s in range(0, m, rows):
        lo, hi = a[s:s + rows, None], b[s:s + rows, None]
        # NaN padding sorts last and makes no piece.
        pts = np.sort(np.concatenate([lo, np.clip(cuts[s:s + rows], lo, hi), hi], axis=1), axis=1)
        keep = pts[:, 1:] > pts[:, :-1]
        owner = np.nonzero(keep)[0]
        pa, pb = pts[:, :-1][keep], pts[:, 1:][keep]
        n = len(lo)
        panels[s:s + n] = np.bincount(owner, minlength=n)
        for t in range(0, len(owner), per_call):
            blk = slice(t, t + per_call)
            c = 0.5 * (pa[blk] + pb[blk])
            h = 0.5 * (pb[blk] - pa[blk])
            u = c[:, None] + h[:, None] * x
            y = np.asarray(f(u.ravel(), np.repeat(owner[blk] + s, len(x))), dtype=float)
            if y.shape != (u.size,):
                raise TypeError("integrand must map an ndarray of nodes to values elementwise")
            y = y.reshape(u.shape)
            val[s:s + n] += np.bincount(owner[blk], h * (y @ w), n)
            mag[s:s + n] += np.bincount(owner[blk], h * (np.abs(y) @ w), n)
    return val, (len(x) * panels + _VALUE_ULPS) * _EPS * mag, panels


def find_root(f, lo, hi, cfg: RootConfig | None = None) -> float:
    """Root of a continuous scalar ``f`` inside the bracket [lo, hi].

    Brent's method: inverse quadratic or secant steps while they shrink
    the bracket fast enough, bisection otherwise, so convergence is
    guaranteed.  Stops when |f(x)| <= f_tol or the bracket is narrower than
    x_tol, and returns the bracket end with the smaller |f|; the result
    never leaves the initial bracket.  Where x_tol is finer than the float
    spacing near the root, the bracket closes to 2 eps |x| instead, 2-4
    ulps, which it can always reach.
    """
    cfg = cfg or RootConfig()
    a, b = float(lo), float(hi)
    if a > b:
        raise ValueError(f"bracket out of order: [{a}, {b}]")
    fa, fb = float(f(a)), float(f(b))
    if abs(fa) <= cfg.f_tol:
        return a
    if abs(fb) <= cfg.f_tol:
        return b
    if fa * fb > 0:
        raise BracketError(f"no sign change on [{a}, {b}]: f(a)={fa!r}, f(b)={fb!r}")
    # b is the best estimate, a the previous one, c the far end of the
    # bracket [b, c]; d is the last step and e the one before it.
    c, fc = a, fa
    d = e = b - a
    for _ in range(cfg.max_iter):
        if fb * fc > 0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = max(0.5 * cfg.x_tol, _EPS * abs(b))
        half = 0.5 * (c - b)
        if abs(half) <= tol or abs(fb) <= cfg.f_tol:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * half * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = half
        else:
            d = e = half
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, half)
        fb = float(f(b))
    raise RuntimeError(f"root refinement did not converge in {cfg.max_iter} iterations")
