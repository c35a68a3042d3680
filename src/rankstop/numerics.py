"""Batched adaptive quadrature and bracketed root finding with explicit tolerances.

One engine, ``integrate_batch``, refines many integrals at once.  Each
panel gets a Gauss-Kronrod 7/15 estimate and the |K15 - G7| error of
QUADPACK's QAG.  The panels of all problems live in two arrays, one row
per field: ends, value and error in a float array, problem index and
mark in an integer array, so that a round selects, drops and appends
panels with one numpy call per array.  Each round splits, in every
problem still above its tolerance, the fewest of its worst panels whose
error covers the excess, and all new panels go through the integrand
together, in blocks of ``_BLOCK_PANELS`` panels, so no integrand call
sees more than a fixed number of nodes however many problems there are.
This is the design of SciPy's ``quad_vec`` extended across problems.
``integrate_detailed`` is the one-problem case of the same engine.  A
problem of width w starts from ceil(8 w) equal panels, at least 1 and at
most ``_INITIAL_PANELS`` = 8, before its break points split them: a
narrow inner problem gets the node density of the unit interval, not 8
panels of its own.

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
Kronrod nodes mapped to t in [0, 1], the map is u = a + H t^d at a left
break point, u = b - H (1 - t)^d at a right one and the smoothstep
u = a + H (3t^2 - 2t^3) at both.  A singularity (u - a)^alpha then
becomes t^(d (1 + alpha) - 1), a polynomial when d alpha is an integer.
Each break point carries its own degree d, 2 unless the caller declares
another (the law does, in ``SymmetricDistribution.break_point_degrees``):
the fourth root of PowerFold(4)'s quantile takes d = 4, and a kink,
where the integrand is analytic on either side, takes d = 0, the plain
rule.  A break point equal to a problem end flags that end as well.  A
problem end alone does not: it is often only where the range stops, and
on a smooth integrand the stretched nodes cost panels (cos(20u) on
[0, 3] would take 60 instead of 54), so integrands without break points
keep the plain rule and their results.  On a split only the child at a
flattened end keeps the map.

Each panel end carries a 4-bit code: bit 1 says the end is marked and
bits 2 to 4 hold the index of its degree in ``_DEGREES``.  A panel's mark
is its left end's code in the low nibble and its right end's in the high
one, and is itself the row of the rule and split tables; a split panel's
left child keeps the low nibble and its right child the high one.

``integrate_pieces`` is the fixed-rule counterpart for integrands that are
polynomials of degree at most 3 between known break points: the 2-point
Gauss-Legendre rule on every piece, no refinement, and a rounding bound in
place of an error estimate.  It bounds the nodes of each integrand call;
its callers bound the rows of break points they pass at once.

Integrands must be vectorized (ndarray of nodes in, ndarray of values
out).  Every integrand in this package is evaluated in u-space after the
substitution u = F(y), so the intervals are bounded and the integrands
are bounded and piecewise smooth.  Both rules place their nodes strictly
inside each panel, so u may run over all of [0, 1] even where the
quantile is infinite at 0 and 1; only a panel narrower than the float
spacing at its end can round a node onto that end.

``find_root`` is the package's one root finder: bracketed inverse
interpolation, safeguarded by bisection, of the family of Brent (1973,
ch. 4), in batches of points, since its caller, the full-information
threshold, pays a batch of integrals per call of its function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
# Nodes per integrand call of integrate_pieces, which bounds the memory of
# one call; its callers bound the rows of break points they pass.  Its
# integrands are a table's dF-integrand, two interpolations per node, and
# fullinfo._q's on a table, a (nodes x knots) interpolation: at 4096 nodes
# a 120-knot table's solve and compute_pq hold no more memory than at 1024
# and run no slower, and a 12-knot one makes a quarter of the calls.
_BLOCK_NODES = 1 << 12
# Splits each problem of integrate_batch may make before it raises
# QuadratureError.
_MAX_SPLITS = 10**6
# Rounding bound of integrate_pieces: every integrand value and rule weight
# is taken to be within this many ulps, and each node adds one rounding to
# the sum.
_VALUE_ULPS = 16
# Nodes and weights on [-1, 1] of integrate_pieces' one rule, the 2-point
# Gauss-Legendre rule: exact up to degree 3, and the exact-path integrands
# are linear (a table's dF-integrands) and quadratic (q's) on their
# pieces.  These are the values of np.polynomial.legendre.leggauss(2) bit
# for bit; calling it would import numpy.polynomial, 2 MB, into every
# process.
_PIECE_RULE = (np.array([-1.0, 1.0]) * (math.sqrt(3.0) / 3.0), np.ones(2))
_EPS = float(np.finfo(float).eps)
# The first batch of find_root after the ends: the first guess at the root
# and the points this fraction of the bracket to either side of it, which
# hold the root when the guess is that close.
_STENCIL = 1e-4
# A panel no wider than this times (|a| + |b| + 1) cannot be split.
_NARROW = 8.0 * _EPS
# Where a panel that holds most of its problem's error is split, as a
# fraction of its width from its left end: bisected when neither or both
# ends are marked, else _GRADE of the width from the marked end.  A
# singularity u^a at that end then loses a factor 8^(1 + a) of its error
# per round instead of 2^(1 + a).  Of 1/4, 1/8, 1/16 and 1/32, 1/8 took the
# fewest panels on the PowerFold and Laplace solves, and about as few
# rounds as 1/16.
_GRADE = 0.125
# Substitution degrees a break point may declare, by index: 0 is a kink,
# which keeps the plain rule, and d >= 2 flattens its end through t^d.  A
# break point without a declared degree takes 2, which turns alpha = 1/2
# into a polynomial; of 2, 3 and 4 for every break point alike, 2 took
# the fewest panels on the PowerFold(2) and Laplace solves.
_DEGREES = (0, 2, 3, 4, 5, 6, 7, 8)
_DEFAULT_DEGREE = 2
# The bits of a mark that hold a degree index, at either end.
_DEGREE_BITS = 0xEE
# The code of a break point, by its degree: 1 | 2 with a degree of 2.
_POINT_BITS = {d: float(1 | i << 1) for i, d in enumerate(_DEGREES)}
# Masks of a split panel's (problem, mark) that its left and right child keep.
_LEFT_CHILD = np.array([[-1], [0x0F]])
_RIGHT_CHILD = np.array([[-1], [0xF0]])


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


def _rules():
    """By a panel's mark, the nodes, in half widths, and weight factors of
    the Kronrod rule on the panel [a, b], and where a graded split cuts it.
    Only the 81 marks that occur are filled.  With no degree at either end
    the row is the plain rule, nodes about the centre.  Every other row
    takes the nodes through u = a + H s(t), t in [0, 1], measured from a,
    and weights them by s'(t): s = t^d flattens the left end,
    s = 1 - (1 - t)^d the right one and the smoothstep s = 3t^2 - 2t^3
    both."""
    t = 0.5 * (1.0 + _XK)
    r = 1.0 - t
    # by degree index, the rule with that degree at the left and at the right end
    lefts = [(_XK, 1.0)] + [(2.0 * t**d, d * t**(d - 1)) for d in _DEGREES[1:]]
    rights = [(_XK, 1.0)] + [(2.0 * (1.0 - r**d), d * r**(d - 1)) for d in _DEGREES[1:]]
    both = 2.0 * t * t * (3.0 - 2.0 * t), 6.0 * t * r
    nodes, weights = np.empty((2, 256, len(_XK)))
    split_at = np.full(256, 0.5)
    codes = (0, *range(1, 16, 2))  # 0 inside a problem, odd at a marked end
    for left in codes:
        for right in codes:
            mark = left | right << 4
            i, j = left >> 1, right >> 1
            nodes[mark], weights[mark] = both if i and j else lefts[i] if i else rights[j]
            if (left ^ right) & 1:
                split_at[mark] = _GRADE if left & 1 else 1.0 - _GRADE
    return nodes, weights, split_at


_NODES, _WEIGHTS, _SPLIT_AT = _rules()


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("quadrature tolerances must be positive and finite, got "
                             f"abs_tol={self.abs_tol!r}, rel_tol={self.rel_tol!r}")

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

    def __post_init__(self):
        if not (0 < self.x_tol < math.inf and 0 < self.f_tol < math.inf):
            raise ValueError("root tolerances must be positive and finite, got "
                             f"x_tol={self.x_tol!r}, f_tol={self.f_tol!r}")


def tolerance_record(**levels) -> dict:
    """The tolerances of configs by level, flat: ``tolerance_record(inner=q,
    root=r)`` has keys inner_abs_tol, inner_rel_tol, root_x_tol, root_f_tol."""
    return {f"{level}_{name}": value for level, cfg in levels.items()
            for name, value in vars(cfg).items() if name.endswith("_tol")}


class QuadratureError(RuntimeError):
    """Refinement budget exhausted; carries the best estimate and its bound."""

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (estimate={estimate!r}, error_bound={error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


class BracketError(ValueError):
    """The supplied interval does not bracket a sign change."""


def _evaluate(f, ids, pan):
    """Fill rows 2 and 3 of ``pan`` with the K15 values and |K15 - G7|
    errors of the panels [pan[0], pan[1]], one integrand call per block.

    ``ids`` holds each panel's problem and mark.  A panel takes row
    ``mark`` of ``_NODES`` and ``_WEIGHTS``: the plain rule, or the
    substitution of the degrees its mark gives its break-point ends."""
    for s in range(0, pan.shape[1], _BLOCK_PANELS):
        a, b, val, err = pan[:, s:s + _BLOCK_PANELS]
        problem, mark = ids[:, s:s + _BLOCK_PANELS]
        c = 0.5 * (a + b)
        h = 0.5 * (b - a)
        u = np.where(mark & _DEGREE_BITS, a, c)[:, None] + h[:, None] * _NODES[mark]
        y = np.asarray(f(u.ravel(), problem.repeat(u.shape[1])), dtype=float)
        if y.shape != (u.size,):
            raise TypeError("integrand must map an ndarray of nodes to values elementwise")
        y = y.reshape(u.shape) * _WEIGHTS[mark]
        val[:] = h * (y @ _WK)
        err[:] = np.abs(val - h * (y[:, 1::2] @ _WG))


def _bounds(a, b):
    """The problems' bounds as two 1-D float arrays, checked: finite and in
    order.  A NaN width b - a propagates through min and max and fails the
    check, as a negative or an infinite one does."""
    a = np.array(a, dtype=float, ndmin=1)
    b = np.array(b, dtype=float, ndmin=1)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"bounds must be two 1-D arrays of equal length, got {a.shape} and {b.shape}")
    width = b - a
    if len(width) and not 0.0 <= width.min() <= width.max() < math.inf:
        i = int(np.argmin((width >= 0.0) & (width < math.inf)))
        raise ValueError(f"integration bounds must be finite and in order, got [{a[i]}, {b[i]}]")
    return a, b


def _cut_rows(break_points, m):
    """break_points as an (m, k) float array, checked; (m, 0) when None."""
    if break_points is None:
        return np.empty((m, 0))
    cuts = np.asarray(break_points, dtype=float)
    if cuts.ndim != 2 or len(cuts) != m:
        raise ValueError(f"break_points must have one row per problem, got shape {cuts.shape}")
    return cuts


def _point_bits(degrees, k):
    """The code of each of k break-point columns, from their degrees
    (``_DEFAULT_DEGREE`` for all when None), checked."""
    if degrees is None:
        return _POINT_BITS[_DEFAULT_DEGREE]
    degrees = np.asarray(degrees)
    if degrees.shape != (k,):
        raise ValueError(f"degrees must have one entry per break-point column, got shape "
                         f"{degrees.shape} for {k} columns")
    try:
        return np.array([_POINT_BITS[d] for d in degrees.tolist()])
    except KeyError as exc:
        raise ValueError(f"substitution degrees must be among {_DEGREES}, got {degrees}") from exc


# Slot j < n of a problem's starting mesh holds its equal point a + j (b - a)
# / k when j < k; slot n holds b.  Bits of the slots' points: 1 at a problem
# end, 0 inside.
_SLOTS = np.arange(_INITIAL_PANELS)
_SLOT_BITS = np.array([1.0] + [0.0] * (_INITIAL_PANELS - 1) + [1.0])


def _initial_panels(a, b, break_points, degrees):
    """(ids, pan) of the starting panels: min(n, max(1, ceil(n (b - a))))
    equal panels per problem, n = ``_INITIAL_PANELS`` on every problem at
    least 1 wide, split further at the break points inside it.  ``ids``
    holds each panel's problem and mark, ``pan`` its ends in rows 0 and 1
    and room for its value and error.  The mark holds the code of the
    panel's left end in its low nibble and that of its right end in its
    high one.

    Each problem's points are one row of a complex array, the point plus
    1j times its code (1 at a problem end, ``_POINT_BITS`` of its degree at
    a break point, 0 elsewhere), so one sort per row orders the points and
    carries their codes along.  A point repeated within a problem carries
    the largest code of its copies, so the largest degree: sorted by
    (point, code) it is the last copy, which a panel's left end reads, and
    sorted by (point, -code) the first, which its right end reads.
    """
    n = _INITIAL_PANELS
    d = b - a
    width = n * d
    k = np.where(width < n, np.maximum(np.ceil(width), 1.0), n)[:, None]
    cuts = _cut_rows(break_points, len(a))
    point_bits = _point_bits(degrees, cuts.shape[1])
    z = np.empty((len(a), n + 1 + cuts.shape[1]), dtype=complex)
    points, bits = z.real, z.imag
    # a + j (b - a) / k, as np.linspace computes it; NaN sorts last and makes no panel
    points[:, :n] = np.where(_SLOTS < k, _SLOTS * (d[:, None] / k) + a[:, None], np.nan)
    points[:, n] = b
    points[:, n + 1:] = np.where((cuts < a[:, None]) | (cuts > b[:, None]), np.nan, cuts)
    bits[:, :n + 1] = _SLOT_BITS
    bits[:, n + 1:] = point_bits
    flipped = z.conj()  # the points with their bits negated
    z.sort(axis=1)
    flipped.sort(axis=1)
    keep = z.real[:, :-1] < z.real[:, 1:]  # drops repeats, padding and empty problems
    left, right = z[:, :-1][keep], flipped[:, 1:][keep]
    ids = np.array([keep.nonzero()[0], left.imag - 16.0 * right.imag], dtype=np.int64)
    pan = np.empty((4, len(left)))
    pan[0] = left.real
    pan[1] = right.real
    return ids, pan


def integrate_batch(f, a, b, cfg: QuadratureConfig | None = None, break_points=None,
                    degrees=None):
    """Adaptive integrals of m problems, problem i on [a[i], b[i]].

    ``f(u, problem)`` takes a flat ndarray of nodes and the index of the
    problem each node belongs to, and returns the integrand values; nodes
    of many problems arrive in one call.  ``break_points`` is an (m, k)
    array of known kink locations, one row per problem, padded with NaN;
    points in [a[i], b[i]] are used and points outside it are ignored.  A
    break point inside (a[i], b[i]) becomes a panel edge, and one equal to
    a[i] or b[i] marks that end of the problem.  ``degrees`` gives one
    substitution degree per column of ``break_points``, each in
    ``_DEGREES`` (0 to 8, not 1); left out, every column takes 2.  A point
    repeated in a row takes the largest degree of its copies.  A problem
    of width w starts out split into ceil(``_INITIAL_PANELS`` w) equal
    panels, at least 1 and at most ``_INITIAL_PANELS``, plus its break
    points, and keeps its own convergence test ``abs_tol + rel_tol *
    |value|`` and its own budget of ``_MAX_SPLITS`` splits.  A panel
    is bisected, except one that holds more than half of its problem's
    error and touches
    exactly one of the problem's ends and break points: that one is cut at
    ``_GRADE`` of its width from the point it touches, and only the child
    there touches it again.  A panel with a break point of degree d >= 2
    at an end, a problem end included, takes its nodes through
    u = a + H t^d (u = b - H (1 - t)^d at the right end, the smoothstep
    u = a + H (3t^2 - 2t^3) at both), which flattens a singularity there;
    panels that touch only problem ends and break points of degree 0 keep
    the plain rule, since smooth integrands would pay for the stretched
    nodes.

    The live panels sit in two arrays that each round replaces whole:
    ``pan``, rows a, b, value and error, and ``ids``, rows problem and
    mark.  A round keeps the panels it does not split in their order and
    appends the children of those it splits, left children first, so each
    problem's panels are summed in the same order on every run.

    Returns (values, error_bounds, panels), arrays of length m; ``panels``
    counts the 15-node panels evaluated for each problem.  Raises
    QuadratureError, carrying the estimate and bound of the first failing
    problem, when a budget runs out or the error of panels too narrow to
    split exceeds the tolerance.
    """
    cfg = cfg or QuadratureConfig()
    a, b = _bounds(a, b)
    m = len(a)
    ids, pan = _initial_panels(a, b, break_points, degrees)
    _evaluate(f, ids, pan)
    panels = np.bincount(ids[0], minlength=m)
    splits = np.zeros(m, dtype=np.int64)
    # Per problem: the value and error of panels no longer refined, which
    # are every panel of a converged problem and the parked panels of the others.
    fixed_val, fixed_err = np.zeros((2, m))
    while True:
        problem = ids[0]
        total_val = np.bincount(problem, pan[2], m) + fixed_val
        total_err = np.bincount(problem, pan[3], m) + fixed_err
        tol = cfg.abs_tol + cfg.rel_tol * np.abs(total_val)
        over = total_err > tol
        if not over.any():
            return total_val, total_err, panels
        live = over[problem]
        if not live.all():
            fixed_val = np.where(over, fixed_val, total_val)
            fixed_err = np.where(over, fixed_err, total_err)
            ids, pan = ids[:, live], pan[:, live]
            problem = ids[0]
        budget = _MAX_SPLITS - splits
        spent = over & (budget <= 0)
        if spent.any():
            i = int(spent.argmax())
            raise QuadratureError(_failure("quadrature did not reach the requested tolerance", i, m),
                                  float(total_val[i]), float(total_err[i]))
        # Per problem, the fewest worst panels whose error covers the excess
        # over the tolerance, within what is left of the budget.
        err = pan[3]
        order = np.lexsort((-err, problem))
        p_sorted = problem[order]
        e_sorted = err[order]
        before = e_sorted.cumsum() - e_sorted
        start = p_sorted.searchsorted(p_sorted)  # where each problem's run begins
        before -= before[start]
        rank = np.arange(len(order)) - start
        pick = order[(before < (total_err - tol)[p_sorted]) & (rank < budget[p_sorted])]
        parent, parent_ids = pan[:, pick], ids[:, pick]
        size = np.abs(parent[:2])
        narrow = (parent[1] - parent[0]) <= _NARROW * (size[0] + size[1] + 1.0)
        if narrow.any():
            # Cannot be split further in floating point; park their error.
            parked = parent_ids[0, narrow]
            fixed_val += np.bincount(parked, parent[2, narrow], m)
            fixed_err += np.bincount(parked, parent[3, narrow], m)
            stalled = fixed_err > tol  # only parked error is fixed in a live problem
            if stalled.any():
                i = int(stalled.argmax())
                raise QuadratureError(_failure("quadrature stalled on an unresolvable feature", i, m),
                                      float(total_val[i]), float(total_err[i]))
            parent, parent_ids = parent[:, ~narrow], parent_ids[:, ~narrow]
        # Each child is a copy of its parent with the cut as one end, and
        # keeps the mark of the end it shares with its parent.
        s = parent.shape[1]
        at = np.where(parent[3] > 0.5 * total_err[parent_ids[0]],
                      _SPLIT_AT[parent_ids[1]], 0.5)
        cut = parent[0] + at * (parent[1] - parent[0])
        child = np.concatenate((parent, parent), axis=1)
        child[1, :s] = cut
        child[0, s:] = cut
        child_ids = np.concatenate((parent_ids & _LEFT_CHILD, parent_ids & _RIGHT_CHILD), axis=1)
        _evaluate(f, child_ids, child)
        split_count = np.bincount(parent_ids[0], minlength=m)
        splits += split_count
        panels += 2 * split_count
        rest = np.ones(len(problem), dtype=bool)
        rest[pick] = False
        ids = np.concatenate((ids[:, rest], child_ids), axis=1)
        pan = np.concatenate((pan[:, rest], child), axis=1)


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
    tolerance.  No integrand call sees more than ``_BLOCK_NODES`` nodes,
    but the pieces of all m problems are formed at once, so the caller
    bounds m times k.

    Returns (values, bounds, panels), arrays of length m.  ``bounds`` are
    rounding bounds: (nodes + ``_VALUE_ULPS``) * eps times the integral of
    |f| by the same rule.  ``panels`` counts the pieces evaluated.
    """
    a, b = _bounds(a, b)
    m = len(a)
    cuts = _cut_rows(break_points, m)
    x, w = _PIECE_RULE
    lo, hi = a[:, None], b[:, None]
    # NaN padding sorts last and makes no piece.
    pts = np.concatenate([lo, np.minimum(np.maximum(cuts, lo), hi), hi], axis=1)
    pts.sort(axis=1)
    left, right = pts[:, :-1], pts[:, 1:]
    keep = right > left
    panels = keep.sum(axis=1)
    owner = np.repeat(np.arange(m), panels)
    pa, pb = left[keep], right[keep]
    centre, half = 0.5 * (pa + pb), 0.5 * (pb - pa)
    val, mag = np.zeros((2, m))  # the integrals of f and of |f|
    per_call = max(1, _BLOCK_NODES // len(x))
    for t in range(0, len(owner), per_call):
        blk = slice(t, t + per_call)
        h, problem = half[blk], owner[blk]
        # one row per node of the rule, so that numpy broadcasts along the
        # long axis
        u = x[:, None] * h + centre[blk]
        y = np.asarray(f(u.ravel(), np.tile(problem, len(x))), dtype=float)
        if y.shape != (u.size,):
            raise TypeError("integrand must map an ndarray of nodes to values elementwise")
        y = y.reshape(u.shape)
        val += np.bincount(problem, h * (w @ y), m)
        mag += np.bincount(problem, h * (w @ np.abs(y)), m)
    return val, (len(x) * panels + _VALUE_ULPS) * _EPS * mag, panels


def find_root(f, ends, values=None, bounds=None, guess=None, cfg: RootConfig | None = None):
    """(root, residual, error bound) of ``f`` on the bracket ``ends`` = (a,
    b), where it changes sign, found in small batches of points.

    ``f`` maps a 1-D array of points to two arrays: its values there and
    bounds on their errors.  ``values`` and ``bounds`` are those at the
    ends, evaluated in a first batch when left out, and ``guess`` is a
    first guess at the root, the secant's root between the ends when left
    out.  An end where the value is 0 is the root, and nothing more is
    evaluated.

    The next batch evaluates three points: the guess, kept inside the
    bracket, and the points ``_STENCIL`` of the bracket to either side of
    it.  Every later batch evaluates one: the root of x interpolated
    inversely on ``f`` through the three evaluated points nearest the root,
    or, after a batch that failed to halve the pair of points around the
    root, that pair's midpoint, so that no more than two batches pass per
    halving.  After each, the search stops if the last pair of neighbouring
    evaluated points where ``f`` changes sign from its sign at a is closed
    at ``cfg``: the end of smaller |f| is within f_tol of 0, or the pair is
    no wider than x_tol, or than 2 eps |x| where x_tol is finer than the
    float spacing there, which the pair can always reach.  That end is the
    root.  Where ``f`` is smooth the first two batches after the ends close
    the pair.

    The root is always a point the search evaluated, and the residual
    ``f`` there.  The bound is the width of the narrowest pair of evaluated
    points that holds the root and has opposite signs, or, if less, the
    residual over the slope of their secant, an estimate right to first
    order in the pair's width (the search may stop on its residual before
    its pair closes); plus the larger error bound of the pair over that
    slope.

    Raises ValueError, before ``f`` runs, when the ends are not finite and
    in order, and, naming the point, when a value is not finite;
    BracketError when the values at the ends have the same sign.
    """
    cfg = cfg or RootConfig()
    a, b = map(float, ends)
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise ValueError(f"bracket must be finite and in order, got [{a}, {b}]")
    seen = {}

    def record(xs, v, e):
        v = np.asarray(v, dtype=float)
        bad = ~np.isfinite(v)
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"root function is not finite at x={xs[i]!r}: {float(v[i])!r}")
        seen.update(zip(xs, zip(v.tolist(), np.asarray(e, dtype=float).tolist())))

    def evaluate(xs):
        new = [x for x in dict.fromkeys(map(float, xs)) if x not in seen]
        if new:
            record(new, *f(np.array(new)))

    if values is None:
        evaluate([a, b])
    else:
        record([a, b], values, bounds)
    fa, fb = seen[a][0], seen[b][0]
    up = fa > 0  # the sign at a

    def bracket():
        """The last neighbouring pair of evaluated points where f changes
        sign from its sign at a, its end of smaller |f|, and whether it is
        closed."""
        xs = sorted(seen)
        lo, hi = [(l, r) for l, r in zip(xs, xs[1:])
                  if (seen[l][0] > 0) == up and (seen[r][0] > 0) != up][-1]
        best = min(hi, lo, key=lambda x: abs(seen[x][0]))
        closed = (abs(seen[best][0]) <= cfg.f_tol
                  or hi - lo <= max(cfg.x_tol, 2.0 * _EPS * abs(best)))
        return lo, hi, best, closed

    if fa == 0.0 or fb == 0.0:
        root = a if fa == 0.0 else b
    elif (fb > 0) == up:
        raise BracketError(f"no sign change on [{a}, {b}]: f(a)={fa!r}, f(b)={fb!r}")
    else:
        step = _STENCIL * (b - a)
        if guess is None:
            guess = _inverse_root([a, b], [fa, fb], a, b)
        x0 = min(max(guess, a + step), b - step)
        evaluate([x0 - step, x0, x0 + step])
        lo, hi, root, closed = bracket()
        bisect = False
        while not closed:
            width = hi - lo
            if bisect:
                x = 0.5 * (lo + hi)
            else:
                xs = sorted(seen)
                j = xs.index(lo)
                # the pair and the neighbour of it where f is nearer 0
                near = [lo, hi] + sorted(xs[max(j - 1, 0):j] + xs[j + 2:j + 3],
                                         key=lambda x: abs(seen[x][0]))[:1]
                x = _inverse_root(near, [seen[x][0] for x in near], lo, hi)
            evaluate([x])
            lo, hi, root, closed = bracket()
            bisect = hi - lo > 0.5 * width
    xs = sorted(seen)
    lo, hi = min(((l, r) for l, r in zip(xs, xs[1:])
                  if l <= root <= r and (seen[l][0] > 0) != (seen[r][0] > 0)),
                 key=lambda pair: pair[1] - pair[0], default=(a, b))
    (f_lo, e_lo), (f_hi, e_hi) = seen[lo], seen[hi]
    residual = seen[root][0]
    slope = abs(f_hi - f_lo) / (hi - lo) if hi > lo else 0.0
    if not slope:  # 0 at both ends, or at the one end of [a, a]
        return root, residual, math.inf if max(e_lo, e_hi) else 0.0
    return root, residual, min(hi - lo, abs(residual) / slope) + max(e_lo, e_hi) / slope


def _inverse_root(xs, ws, lo, hi):
    """Where x, interpolated as a polynomial in w through the points (w,
    x), meets w = 0, kept inside [lo, hi]; the midpoint where two w
    coincide.  The polynomial is summed about the point of smallest |w|,
    so that its terms are offsets from it."""
    (w0, x0), *rest = sorted(zip(map(float, ws), map(float, xs)), key=lambda p: abs(p[0]))
    ws = [w0] + [w for w, _ in rest]
    x = math.nan
    if len(set(ws)) == len(ws):
        x = x0 + sum((x - x0) * math.prod(v / (v - w) for v in ws if v != w) for w, x in rest)
    if not math.isfinite(x):
        x = 0.5 * (lo + hi)
    return min(max(x, lo), hi)
