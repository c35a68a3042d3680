"""An exact rational oracle for piecewise-linear laws.

Every quantity is computed in ``Fraction`` arithmetic.  Over the float
grid a ``TabulatedCdf`` holds (``Table.of``) the oracle's answers are
those of the table the solvers see, not of the law it was written from;
over the decimal or rational grid itself they are the law's.  The oracle
shares no code with the solvers:

- W1 - 2 is written in the paper's own form, 15/8 + F(x) - F(x/2) -
  (F(x)^2 - F(x/2)^2)/2 + I(x) - 2, with I(x) the two dF-integrals of
  F(y - x) over (0, x/2) and (x, inf) in y, each the sum of trapezoids,
  exact on the pieces where F(y - x) is linear and the density constant;
- x1* is found by bisection on Fractions, from a bracket of +-1e-12
  around the solver's threshold, to 1/16 of its float spacing;
- V integrates that curve, in the same form for x <= 0, against dF by
  Simpson's rule on the pieces between the knots, twice the knots and
  the knot differences, where it is quadratic; ``negative_half`` is the
  same sum of the curve minus 2 below 0, which is 13/48 + p;
- q = P(|X3| > |X1| + |X2|)/16 is the integral of (1 - G(z)) h(z), with
  G the folded CDF and h the density of |X1| + |X2|, by Simpson's rule,
  exact on the pieces between the folded knots and their pairwise sums,
  where the integrand is quadratic; the four-corner sum over pairs of
  pieces of G's second antiderivative checks it.

Item 14b of ROADMAP.md is this oracle's general case (piecewise-polynomial
F); tables are its degree-1 case.
"""

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankstop.distributions import IntervalUnionUniform, TabulatedCdf, Uniform, builtin_suite
from rankstop.fullinfo import solve_full_info
from rankstop.relranks import compute_pq

_GOLDEN = (5 ** 0.5 - 1) / 2


def knot_grid(rng, k):
    """The benchmark's tabulated_knots grid (``perfbench/workloads.py``):
    k knots on a fixed irregular template, masses jittered by 10%."""
    i = np.arange(1, k + 1)
    t = i + 0.45 * ((i * _GOLDEN) % 1.0 - 0.5)
    x = t / t[-1]
    mass = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, k)
    f = 0.5 + 0.5 * np.cumsum(mass) / mass.sum()
    f[-1] = 1.0
    return [[0.0, 0.5]] + [[float(a), float(b)] for a, b in zip(x, f)]


def template_tables():
    """The 6-, 9- and 12-knot tables of seeds 1 to 4, drawn as the benchmark
    draws them: one generator per seed, the three grids in turn."""
    out = {}
    for seed in range(1, 5):
        rng = np.random.default_rng(seed)
        for k in (6, 9, 12):
            out[f"seed{seed}-knots{k}"] = TabulatedCdf(knot_grid(rng, k))
    return out


class Table:
    """A piecewise-linear law from its (x, F) grid on x >= 0, (0, 1/2)
    first and F = 1 last, in Fractions, mirrored."""

    def __init__(self, grid):
        grid = [(Fraction(x), Fraction(f)) for x, f in grid]
        self.pos = grid
        self.xs = [-x for x, _ in grid[:0:-1]] + [x for x, _ in grid]
        self.fs = [1 - f for _, f in grid[:0:-1]] + [f for _, f in grid]

    @classmethod
    def of(cls, dist):
        """The exact law a TabulatedCdf holds: its float grid."""
        # Uniform and IntervalUnionUniform write their own spec; the table's is the grid
        return cls(TabulatedCdf.spec(dist)["grid"])

    def F(self, y):
        xs, fs = self.xs, self.fs
        if y <= xs[0]:
            return Fraction(0)
        if y >= xs[-1]:
            return Fraction(1)
        j = bisect_left(xs, y)
        return fs[j - 1] + (fs[j] - fs[j - 1]) * (y - xs[j - 1]) / (xs[j] - xs[j - 1])

    def inside(self, a, b):
        """The knots strictly between a and b."""
        return self.xs[bisect_right(self.xs, a):bisect_left(self.xs, b)]

    def df_integral(self, x, a, b):
        """The integral of F(y - x) dF(y) over (a, b): trapezoids on the
        pieces cut at the knots and the knots + x, where F(y - x) is linear
        and dF(y) constant."""
        pts = sorted({a, b, *self.inside(a, b), *(k + x for k in self.inside(a - x, b - x))})
        f = [self.F(y) for y in pts]
        g = [self.F(y - x) for y in pts]
        return sum(((f[i + 1] - f[i]) * (g[i] + g[i + 1]) for i in range(len(pts) - 1)),
                   Fraction(0)) / 2

    def w1_minus_2(self, x):
        """The continuation curve minus 2 at x > 0, in the paper's form."""
        fx, fh = self.F(x), self.F(x / 2)
        integral = (self.df_integral(x, Fraction(0), x / 2)
                    + self.df_integral(x, x, max(x, self.xs[-1])))
        return Fraction(15, 8) + fx - fh - (fx * fx - fh * fh) / 2 + integral - 2

    def w1(self, x):
        """The continuation curve at any x, in the paper's form."""
        if x > 0:
            return self.w1_minus_2(x) + 2
        fx, fh = self.F(x), self.F(x / 2)
        integral = self.df_integral(x, x, x / 2) + self.df_integral(x, Fraction(0), self.xs[-1])
        return Fraction(19, 8) - fh - (fx * fx - fh * fh) / 2 + integral

    def value(self, x1):
        """V at the threshold x1: the curve integrated against dF below 0
        and above x1, and 2 on (0, x1].  The curve is quadratic and dF
        constant between the knots, twice the knots and the knot
        differences, so Simpson's rule on those pieces is exact."""
        ks = self.xs
        cuts = {*ks, *(2 * k for k in ks), *(a - b for a in ks for b in ks), Fraction(0), x1}
        pts = sorted(c for c in cuts if ks[0] <= c <= ks[-1] and not 0 < c < x1)
        w = [self.w1(x) for x in pts]
        total = 2 * (self.F(x1) - Fraction(1, 2))
        for i, (a, b) in enumerate(zip(pts, pts[1:])):
            mass = self.F(b) - self.F(a)
            if mass and not (a == 0 and b == x1):
                total += mass * (w[i] + 4 * self.w1((a + b) / 2) + w[i + 1]) / 6
        return total

    def negative_half(self):
        """E[W1(X1) - 2; X1 <= 0]: the curve minus 2 against dF below 0, by
        Simpson's rule on ``value``'s pieces there, where it is quadratic."""
        ks = self.xs
        cuts = {*ks, *(2 * k for k in ks), *(a - b for a in ks for b in ks), Fraction(0)}
        pts = sorted(c for c in cuts if ks[0] <= c <= 0)
        return sum(((self.F(b) - self.F(a))
                    * (self.w1(a) + 4 * self.w1((a + b) / 2) + self.w1(b) - 12) / 6
                    for a, b in zip(pts, pts[1:])), Fraction(0))

    def threshold(self, near):
        """The root of W1 - 2 within 1e-12 of ``near``, to 1/16 of its float
        spacing: W1 - 2 is positive at the left end and not at the right."""
        lo, hi = Fraction(near) - Fraction(1e-12), Fraction(near) + Fraction(1e-12)
        assert self.w1_minus_2(lo) > 0 >= self.w1_minus_2(hi)
        width = Fraction(math.ulp(near)) / 16
        while hi - lo > width:
            mid = (lo + hi) / 2
            if self.w1_minus_2(mid) > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    def folded(self):
        """The folded knots k and G = 2 F - 1 there."""
        return [x for x, _ in self.pos], [2 * f - 1 for _, f in self.pos]

    def G(self, z):
        return 2 * self.F(z) - 1 if z > 0 else Fraction(0)

    def q(self):
        """(1/16) times the integral of (1 - G(z)) h(z) over (0, k_max), by
        Simpson's rule on the pieces between the knots and their sums."""
        k, g = self.folded()
        dens = [(g[i + 1] - g[i]) / (k[i + 1] - k[i]) for i in range(len(k) - 1)]

        def integrand(z):
            h = sum(d * (self.G(z - k[i]) - self.G(z - k[i + 1])) for i, d in enumerate(dens))
            return (1 - self.G(z)) * h

        top = k[-1]
        pts = sorted({a + b for a in k for b in k if a + b < top} | set(k))
        total = sum((hi - lo) * (integrand(lo) + 4 * integrand((lo + hi) / 2) + integrand(hi)) / 6
                    for lo, hi in zip(pts, pts[1:]))
        return total / 16

    def q_four_corners(self):
        """(1/16) sum over pairs of pieces of g_i g_j times the four-corner
        difference of Psi_2, the second antiderivative of 1 - G."""
        k, g = self.folded()
        dens = [(g[i + 1] - g[i]) / (k[i + 1] - k[i]) for i in range(len(k) - 1)]
        # Psi_1 and Psi_2 at the knots, by Taylor steps on each linear piece
        psi1, psi2 = [Fraction(0)], [Fraction(0)]
        for i, d in enumerate(dens):
            t, psi = k[i + 1] - k[i], 1 - g[i]
            psi2.append(psi2[-1] + psi1[-1] * t + psi * t * t / 2 - d * t ** 3 / 6)
            psi1.append(psi1[-1] + psi * t - d * t * t / 2)

        def psi_2(z):
            i = max(j for j in range(len(k)) if k[j] <= z)
            t = z - k[i]
            d = dens[i] if i < len(dens) else 0
            return psi2[i] + psi1[i] * t + (1 - g[i]) * t * t / 2 - d * t ** 3 / 6

        total = sum(di * dj * (psi_2(k[i + 1] + k[j + 1]) - psi_2(k[i] + k[j + 1])
                               - psi_2(k[i + 1] + k[j]) + psi_2(k[i] + k[j]))
                    for i, di in enumerate(dens) for j, dj in enumerate(dens))
        return total / 16


def ulps_off(x, exact):
    return abs(Fraction(x) - exact) / Fraction(math.ulp(x))


BUILTIN_TABLE = builtin_suite()["tabulated"]
UNIFORM6 = TabulatedCdf([[i / 6, 0.5 + 0.5 * i / 6] for i in range(7)])
TABLES = {"builtin": BUILTIN_TABLE, "uniform": Uniform(1), "uniform6": UNIFORM6,
          **template_tables()}


class TestOracle:
    """The oracle reproduces the known exact values, on the decimal and
    rational grids the laws are written from."""

    def test_q_of_the_uniform_is_one_96th(self):
        six = [(Fraction(i, 6), Fraction(1, 2) + Fraction(i, 12)) for i in range(7)]
        assert Table(six).q() == Fraction(1, 96) == Table.of(Uniform(1)).q()

    def test_q_of_the_interval_union_is_zero(self):
        assert Table.of(IntervalUnionUniform(1, 2)).q() == 0

    def test_p_of_the_builtin_table(self):
        decimal = [(Fraction(str(x)), Fraction(str(f))) for x, f in BUILTIN_TABLE.spec()["grid"]]
        assert Fraction(1, 48) - Table(decimal).q() == Fraction(333439, 32400000)

    @pytest.mark.parametrize("name", ["builtin", "seed1-knots6", "seed4-knots12"])
    def test_simpson_and_four_corners_agree(self, name):
        table = Table.of(TABLES[name])
        assert table.q() == table.q_four_corners()

    def test_value_of_the_uniform(self):
        # 11/4 - sqrt(2)/3, at a root within 1/16 ulp of 2 (sqrt(2) - 1)
        six = Table([(Fraction(i, 6), Fraction(1, 2) + Fraction(i, 12)) for i in range(7)])
        v = six.value(six.threshold(2.0 * (math.sqrt(2.0) - 1.0)))
        assert abs(v - Fraction(11.0 / 4.0 - math.sqrt(2.0) / 3.0)) <= Fraction(1e-15)

    def test_uniform_curve_is_its_closed_form(self):
        # 9/4 - x/4 - x^2/16 for x > 0
        table = Table.of(Uniform(1))
        for x in (Fraction(1, 3), Fraction(5, 7), Fraction(9, 10)):
            assert table.w1_minus_2(x) == Fraction(1, 4) - x / 4 - x * x / 16


def check_table(dist, ulps=2):
    """x1* inside its reported bound of the oracle root, and within ``ulps``
    of it; p and q inside their reported bound of the oracle's."""
    table = Table.of(dist)
    sol = solve_full_info(dist)
    root = table.threshold(sol.x1_star)
    assert abs(Fraction(sol.x1_star) - root) <= Fraction(sol.diagnostics["threshold_error_bound"])
    assert ulps_off(sol.x1_star, root) <= ulps
    pq = compute_pq(dist)
    q = table.q()
    assert abs(Fraction(pq.q) - q) <= Fraction(pq.error_bound)
    assert abs(Fraction(pq.p) - (Fraction(1, 48) - q)) <= Fraction(pq.error_bound)


@pytest.mark.parametrize("name", list(TABLES))
def test_threshold_and_pq_match_the_oracle(name):
    check_table(TABLES[name])


# V costs the oracle a third of a second per 12-knot table: one table per knot count.
@pytest.mark.parametrize("name", ["builtin", "uniform", "uniform6", "seed1-knots6",
                                  "seed1-knots9", "seed1-knots12"])
def test_value_matches_the_oracle(name):
    dist = TABLES[name]
    table = Table.of(dist)
    sol = solve_full_info(dist)
    v = table.value(table.threshold(sol.x1_star))
    assert abs(Fraction(sol.value) - v) <= Fraction(sol.diagnostics["quadrature_error_bound"])


@pytest.mark.parametrize("name", [*TABLES, "interval_union"])
def test_negative_half_is_13_48ths_plus_p(name):
    # the identity V = 109/48 + p + T rests on, exact on every table: the
    # oracle's own Simpson sum below 0 and its own q
    table = Table.of(TABLES.get(name) or IntervalUnionUniform(1, 2))
    assert table.negative_half() == Fraction(13, 48) + (Fraction(1, 48) - table.q())


#: A table whose curve falls slowly through 2 on a flat piece of F:
#: W1' = -0.062 at x1* = 1.90, where an ulp of x moves the curve by
#: 1.4e-17, about its rounding.  The quadratic's root is 2.49 ulps off,
#: fitted on the whole crossing piece as on its part in a scan's bracket.
SLOW_CROSSING = TabulatedCdf([[0.0, 0.5], [0.7338185758438632, 0.8813752643410016],
                              [1.1088185758438631, 0.8813752643410016],
                              [2.108818575843863, 0.8813752643410016],
                              [2.358818575843863, 1.0]])


def test_slow_crossing_is_inside_its_bound():
    check_table(SLOW_CROSSING, ulps=3)


@st.composite
def small_tables(draw):
    """Grids of 1-5 knots after the origin; a zero mass makes a flat piece,
    but not the first, which would leave no mass near the origin."""
    k = draw(st.integers(1, 5))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    mass = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 1.0)), min_size=k - 1,
                         max_size=k - 1))
    mass = [draw(st.floats(0.05, 1.0))] + mass
    x = np.cumsum(gaps)
    f = 0.5 + 0.5 * np.cumsum(mass) / sum(mass)
    f[-1] = 1.0
    return TabulatedCdf([[0.0, 0.5]] + [[float(a), float(b)] for a, b in zip(x, f)])


@settings(max_examples=25, deadline=None)
@given(small_tables())
def test_small_tables_match_the_oracle(dist):
    # Where W1 crosses 2 slowly (SLOW_CROSSING) the curve's rounding alone
    # moves its root by more than 2 ulps: the bound is what holds everywhere.
    check_table(dist, ulps=math.inf)
