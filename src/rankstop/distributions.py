"""Continuous step distributions symmetric about zero.

Every distribution here satisfies F(-x) + F(x) = 1 by construction and
exposes the three primitives the rest of the library is built on: the CDF
``cdf``, the quantile function ``ppf``, and ``cdf_break_points``, the x
values where F is not smooth, at which the solvers cut their integrals.
``folded_cdf`` is the paper's G, the law of |X| (2*F(x) - 1 for x >= 0),
and ``sample`` draws by inverse CDF.

``cdf`` and ``ppf`` are vectorized (ndarray in, ndarray out); ``quantile``
is the scalar, domain-checked front end.  The median quantile is pinned to
0 exactly for every distribution, including those whose CDF is flat at
level 1/2, where the generalized inverse alone would be ambiguous.
Uniform and IntervalUnionUniform are one- and two-knot ``TabulatedCdf``
tables, which the solvers integrate exactly.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = [
    "CDF_SYMMETRY_TOL",
    "QUANTILE_ROUNDTRIP_TOL",
    "DistributionError",
    "SymmetricDistribution",
    "Uniform",
    "Laplace",
    "PowerFold",
    "IntervalUnionUniform",
    "TabulatedCdf",
    "from_spec",
    "builtin_suite",
]

_ATOM_TOL = 1e-9
#: Slack on |F(x) + F(-x) - 1| and on |F(ppf(u)) - u|, in ``verify``.
CDF_SYMMETRY_TOL = 1e-12
QUANTILE_ROUNDTRIP_TOL = 1e-10


class DistributionError(ValueError):
    """Invalid distribution parameters, spec payloads, or domain errors."""


def _as_float_array(x):
    return np.asarray(x, dtype=float)


class SymmetricDistribution:
    """Base class for continuous distributions symmetric about 0."""

    #: (lower, upper) bounds of the support; may be infinite.
    support: tuple[float, float] = (-math.inf, math.inf)

    def cdf(self, x):
        """F(x), vectorized."""
        raise NotImplementedError

    def ppf(self, u):
        """Quantile function on [0, 1], vectorized.  ppf(0.5) == 0, and ppf(0)
        and ppf(1) are the ends of the support (-inf and +inf if unbounded)."""
        raise NotImplementedError

    def quantile(self, u: float) -> float:
        """Scalar quantile with domain checking; quantile(1/2) = 0."""
        u = float(u)
        if not 0.0 < u < 1.0:
            raise DistributionError(f"quantile argument must be in (0, 1), got {u}")
        return float(self.ppf(u))

    def folded_cdf(self, x):
        """G(x) = P(|X| <= x) = 2 F(x) - 1 for x >= 0."""
        x = _as_float_array(x)
        if np.any(x < 0):
            raise DistributionError("folded_cdf is defined for x >= 0 only")
        return 2.0 * self.cdf(x) - 1.0

    def sample(self, rng: np.random.Generator, size=None):
        """Inverse-CDF draws from the given generator."""
        return self.ppf(rng.random(size))

    def cdf_break_points(self) -> np.ndarray:
        """x values where F is not smooth; quadrature splits panels there."""
        return np.array([b for b in self.support if math.isfinite(b)])

    def spec(self) -> dict:
        """JSON-ready description; inverse of :func:`from_spec`."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({json.dumps(self.spec())})"


class Laplace(SymmetricDistribution):
    """Two-sided exponential with density exp(-|x|/b) / (2b)."""

    def __init__(self, b: float = 1.0):
        b = float(b)
        if not (math.isfinite(b) and b > 0):
            raise DistributionError(f"laplace scale must be positive, got {b}")
        self.b = b
        self.support = (-math.inf, math.inf)

    def cdf(self, x):
        # One exp for both tails: exp(-|x|/b) is exp(x/b) bit for bit below 0
        # and exp(-x/b) above, and never overflows.
        x = _as_float_array(x)
        e = 0.5 * np.exp(np.abs(x) / -self.b)
        return np.where(x < 0, e, 1.0 - e)

    def ppf(self, u):
        # One log for both tails, t = log(2 min(u, 1 - u)) <= 0: the min is u
        # exactly below 1/2 and the exact 1 - u above, so t, and -t above 1/2,
        # are log(2u) and -log(2(1 - u)) bit for bit.  In place and signed by
        # copysign: fresh temporaries and a where() cost more than the log.
        u = _as_float_array(u)
        t = np.subtract(1.0, u, out=np.empty_like(u))  # an array even for 0-d u
        np.minimum(u, t, out=t)
        t *= 2.0
        with np.errstate(divide="ignore"):
            np.log(t, out=t)
        np.copysign(t, 0.5 - u, out=t)  # -|t| above 1/2; -0 at 1/2, like -log(1)
        t *= -self.b
        return t[()]

    def cdf_break_points(self):
        return np.array([0.0])

    def spec(self):
        return {"kind": "laplace", "b": self.b}


class PowerFold(SymmetricDistribution):
    """Distribution on (-1, 1) whose folded CDF is G(x) = x**delta.

    Small delta piles the mass of |X| near 0 on a scale much shorter than
    the support, which makes the triangle event for three absolute steps
    rare; it is the sharpness family for the lower bound on the rank-rule
    parameter p.
    """

    def __init__(self, delta: float):
        delta = float(delta)
        if not (math.isfinite(delta) and delta > 0):
            raise DistributionError(f"powerfold exponent must be positive, got {delta}")
        self.delta = delta
        self.support = (-1.0, 1.0)

    def cdf(self, x):
        # 1/2 + G(|x|)/2 carrying the sign of x, in place (see Laplace.ppf):
        # 1/2 +- g/2 is (1 +- g)/2 bit for bit, and -0 gives 1/2.
        x = _as_float_array(x)
        g = np.abs(x, out=np.empty_like(x))
        np.minimum(g, 1.0, out=g)
        g **= self.delta
        g *= 0.5
        np.copysign(g, x, out=g)
        g += 0.5
        return g[()]

    def ppf(self, u):
        # |2u - 1| ** (1/delta) carrying the sign of 2u - 1, in place (see
        # Laplace.ppf); at u = 1/2, 2u - 1 is +0 and so is the result.
        u = _as_float_array(u)
        s = np.multiply(u, 2.0, out=np.empty_like(u))
        s -= 1.0
        mag = np.abs(s, out=np.empty_like(s))
        mag **= 1.0 / self.delta
        np.copysign(mag, s, out=mag)
        return mag[()]

    def cdf_break_points(self):
        return np.array([-1.0, 0.0, 1.0])

    def spec(self):
        return {"kind": "powerfold", "delta": self.delta}


class TabulatedCdf(SymmetricDistribution):
    """Piecewise-linear CDF from a grid of (x, F(x)) points on x >= 0.

    The negative half is produced by mirroring, so symmetry is exact.  The
    grid must be monotone, reach F = 1 at its last point, and have
    F(0) = 1/2 (the point (0, 1/2) is prepended when missing).  Repeated x
    values with different F would be an atom and are rejected: the library
    relies on continuity of F throughout.

    ``ppf`` interpolates the mirrored knots, so at the level of a flat
    piece it returns the piece's upper end (except 0 at the median).

    Every knot is a kink of the CDF.  The solvers recognise this class and
    integrate exactly on the pieces between knots, knots + x, twice the
    knots and knot differences, with the 2-point Gauss-Legendre rule instead
    of adaptive quadrature.  Measured on a 2-core Xeon, one
    ``solve_full_info`` plus one ``compute_pq``, best of 3 (masses jittered
    by 10%, irregular knots on the benchmark's template):

    ======  =====================  =====================
    knots   even spacing           irregular spacing
    ======  =====================  =====================
    20      0.003 s, 40 MB peak    0.005 s, 40 MB peak
    60      0.016 s, 42 MB peak    0.035 s, 45 MB peak
    120     0.047 s, 49 MB peak    0.15 s, 56 MB peak
    ======  =====================  =====================

    Evenly spaced knots share their differences, so they cost less.  The
    peak is the memory of the whole process, about 38 MB of it imports.
    """

    def __init__(self, grid):
        pts = np.asarray(list(grid), dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise DistributionError("tabulated grid must be a nonempty list of (x, F) pairs")
        if not np.all(np.isfinite(pts)):
            raise DistributionError("tabulated grid contains non-finite entries")
        pts = pts[np.argsort(pts[:, 0], kind="stable")]
        x, f = pts[:, 0], pts[:, 1]
        if x[0] < 0:
            raise DistributionError("tabulated grid must cover x >= 0 only; the negative side is mirrored")

        # Collapse duplicate x values; a jump there would be an atom.
        x, start, count = np.unique(x, return_index=True, return_counts=True)
        jump = np.maximum.reduceat(f, start) - np.minimum.reduceat(f, start)
        if np.any(jump > _ATOM_TOL):
            i = int(np.argmax(jump > _ATOM_TOL))
            raise DistributionError(f"tabulated grid has an atom at x={x[i]}: F jumps by {jump[i]:.3g}")
        f = np.add.reduceat(f, start) / count

        if np.any(np.diff(f) < 0):
            raise DistributionError("tabulated grid has non-monotone F values")
        if x[0] == 0.0:
            if abs(f[0] - 0.5) > _ATOM_TOL:
                raise DistributionError(f"tabulated grid must have F(0) = 1/2, got {f[0]}")
            f[0] = 0.5
        else:
            if f[0] < 0.5 - _ATOM_TOL:
                raise DistributionError("tabulated grid has F < 1/2 at positive x")
            x = np.concatenate([[0.0], x])
            f = np.concatenate([[0.5], np.maximum(f, 0.5)])
        if abs(f[-1] - 1.0) > _ATOM_TOL:
            raise DistributionError(f"tabulated grid must reach F = 1, got {f[-1]}")
        f[-1] = 1.0
        f = np.minimum(f, 1.0)

        self._x = np.concatenate([-x[:0:-1], x])
        self._f = np.concatenate([1.0 - f[:0:-1], f])
        self.support = (float(self._x[0]), float(self._x[-1]))
        self._grid = [[float(a), float(b)] for a, b in zip(x, f)]

    def cdf(self, x):
        x = _as_float_array(x)
        return np.interp(x, self._x, self._f)

    def ppf(self, u):
        u = _as_float_array(u)
        return np.where(u == 0.5, 0.0, np.interp(u, self._f, self._x))

    def cdf_break_points(self):
        return self._x.copy()

    def spec(self):
        return {"kind": "tabulated", "grid": self._grid}


class Uniform(TabulatedCdf):
    """Uniform on (-a, a): the one-knot table {(0, 1/2), (a, 1)}."""

    def __init__(self, a: float = 1.0):
        a = float(a)
        if not (math.isfinite(a) and a > 0):
            raise DistributionError(f"uniform halfwidth must be positive, got {a}")
        super().__init__([[0.0, 0.5], [a, 1.0]])
        self.a = a

    def ppf(self, u):  # ~10x faster than the table lookup, for Monte Carlo
        u = _as_float_array(u)
        return self.a * (2.0 * u - 1.0)

    def spec(self):
        return {"kind": "uniform", "a": self.a}


class IntervalUnionUniform(TabulatedCdf):
    """Uniform on (-d, -c) | (c, d), 0 < c < d: the table {(0, 1/2), (c, 1/2), (d, 1)}."""

    def __init__(self, c: float, d: float):
        c, d = float(c), float(d)
        if not (math.isfinite(c) and math.isfinite(d) and 0 < c < d):
            raise DistributionError(f"interval union needs 0 < c < d, got c={c}, d={d}")
        super().__init__([[0.0, 0.5], [c, 0.5], [d, 1.0]])
        self.c = c
        self.d = d

    def spec(self):
        return {"kind": "interval_union", "c": self.c, "d": self.d}


_KINDS = {
    "uniform": lambda s: Uniform(s.get("a", 1.0)),
    "laplace": lambda s: Laplace(s.get("b", 1.0)),
    "powerfold": lambda s: PowerFold(s["delta"]),
    "interval_union": lambda s: IntervalUnionUniform(s["c"], s["d"]),
    "tabulated": lambda s: TabulatedCdf(s["grid"]),
}


def from_spec(spec) -> SymmetricDistribution:
    """Build a distribution from a JSON object (or JSON text).

    Examples: ``{"kind": "uniform", "a": 1.0}``, ``{"kind": "laplace",
    "b": 1.0}``, ``{"kind": "powerfold", "delta": 0.1}``,
    ``{"kind": "interval_union", "c": 1.0, "d": 2.0}``,
    ``{"kind": "tabulated", "grid": [[x, F], ...]}``.
    """
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise DistributionError(f"distribution spec is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict) or "kind" not in spec:
        raise DistributionError("distribution spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind not in _KINDS:
        raise DistributionError(f"unknown distribution kind {kind!r}; known: {sorted(_KINDS)}")
    try:
        return _KINDS[kind](spec)
    except KeyError as exc:
        raise DistributionError(f"distribution spec for {kind!r} is missing field {exc}") from exc
    except DistributionError:
        raise
    except (TypeError, ValueError) as exc:
        raise DistributionError(f"distribution spec for {kind!r} has a mistyped field: {exc}") from exc


def builtin_suite() -> dict[str, SymmetricDistribution]:
    """One representative of every built-in family, for cross-cutting checks."""
    return {
        "uniform": Uniform(1.0),
        "laplace": Laplace(1.0),
        "powerfold": PowerFold(2.0),
        "interval_union": IntervalUnionUniform(1.0, 2.0),
        "tabulated": TabulatedCdf([[0.0, 0.5], [0.2, 0.58], [0.5, 0.75], [0.8, 0.9], [1.2, 1.0]]),
    }
