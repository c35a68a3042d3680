"""Random piecewise-linear laws solved on the exact path and on adaptive quadrature.

A ``TabulatedCdf`` takes the exact piecewise-linear path.  ``Delegate``
has the same ``cdf``, ``ppf`` and break points but is not a
``TabulatedCdf``, so the same law also goes through adaptive quadrature;
the two must agree within the adaptive tolerances.  Uniform and
IntervalUnionUniform are tables too, so their closed forms anchor the
adaptive engine through the same wrapper.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankstop.distributions import (
    IntervalUnionUniform,
    Laplace,
    PowerFold,
    SymmetricDistribution,
    TabulatedCdf,
    Uniform,
)
from rankstop.fullinfo import (
    FULL_INNER_CFG,
    THRESHOLD_QUANTILE_BOUND,
    V_LOWER_BOUND,
    V_UPPER_BOUND,
    continuation_curve,
    solve_full_info,
)
from rankstop.relranks import compute_pq
from rankstop.walkcore import PQ_SUM

_SLACK = 1e-12


class Delegate(SymmetricDistribution):
    """A law that answers with a table's functions without being a TabulatedCdf."""

    def __init__(self, table: TabulatedCdf):
        self._table = table
        self.support = table.support

    def cdf(self, x):
        return self._table.cdf(x)

    def ppf(self, u):
        return self._table.ppf(u)

    def cdf_break_points(self):
        return self._table.cdf_break_points()


@st.composite
def tables(draw):
    """Grids of 1-8 knots after the origin; a zero mass makes a flat piece."""
    k = draw(st.integers(1, 8))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    mass = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 1.0)), min_size=k, max_size=k)
                .filter(lambda m: sum(m) > 0))
    x = np.cumsum(gaps)
    f = 0.5 + 0.5 * np.cumsum(mass) / sum(mass)
    f[-1] = 1.0
    return TabulatedCdf([[0.0, 0.5]] + [[float(a), float(b)] for a, b in zip(x, f)])


@settings(max_examples=25, deadline=None)
@given(tables())
def test_exact_path_agrees_with_quadrature(table):
    exact = solve_full_info(table)
    adaptive = solve_full_info(Delegate(table))
    assert exact.diagnostics["method"] == "exact_piecewise_linear"
    assert adaptive.diagnostics["method"] == "quadrature"
    outer = FULL_INNER_CFG.outer()
    v_tol = outer.abs_tol + outer.rel_tol * abs(adaptive.value) + _SLACK
    assert abs(exact.value - adaptive.value) <= v_tol
    # the adaptive threshold solves the exact curve within the inner tolerance
    residual = continuation_curve(table, [adaptive.x1_star])[0] - 2.0
    assert abs(residual) <= FULL_INNER_CFG.abs_tol + 2.0 * FULL_INNER_CFG.rel_tol + _SLACK
    # and both thresholds are within their bounds of the one root
    assert abs(exact.x1_star - adaptive.x1_star) <= (
        exact.diagnostics["threshold_error_bound"] + adaptive.diagnostics["threshold_error_bound"])
    assert V_LOWER_BOUND - _SLACK <= exact.value <= V_UPPER_BOUND + _SLACK
    assert exact.F_at_threshold >= THRESHOLD_QUANTILE_BOUND - _SLACK

    pq = compute_pq(table)
    pq_adaptive = compute_pq(Delegate(table))
    assert pq.method == "exact_piecewise_linear"
    assert abs(pq.p - pq_adaptive.p) <= pq_adaptive.error_bound + _SLACK
    assert pq.p > 0 and pq.q >= 0
    assert pq.error_bound > 0
    assert abs(Fraction(pq.p) + Fraction(pq.q) - PQ_SUM) <= Fraction(pq.error_bound)


def powerfold_p(delta):
    """1/48 - delta B(delta, delta)/96, the p of PowerFold(delta), with
    B(delta, delta) = Gamma(delta)^2 / Gamma(2 delta) from lgamma."""
    beta = math.exp(2.0 * math.lgamma(delta) - math.lgamma(2.0 * delta))
    return Fraction(1, 48) - Fraction(delta * beta / 96.0)


class TestClosedFormAnchors:
    """The paper's closed forms through adaptive quadrature, at the tolerances
    of the acceptance tests, each within the bound the solver reports."""

    def test_uniform(self):
        sol = solve_full_info(Delegate(Uniform(1)))
        assert sol.diagnostics["method"] == "quadrature"
        assert abs(sol.x1_star - (2.0 * math.sqrt(2.0) - 2.0)) <= 1e-9
        v_err = abs(sol.value - (11.0 / 4.0 - math.sqrt(2.0) / 3.0))
        assert v_err <= 1e-8
        assert v_err <= sol.diagnostics["quadrature_error_bound"]
        pq = compute_pq(Delegate(Uniform(1)))
        assert pq.method == "quadrature"
        assert abs(pq.p - 1 / 96) <= 1e-10
        assert abs(Fraction(pq.q) - Fraction(1, 96)) <= Fraction(pq.error_bound)

    def test_interval_union(self):
        sol = solve_full_info(Delegate(IntervalUnionUniform(1, 2)))
        assert sol.diagnostics["method"] == "quadrature"
        v_err = abs(sol.value - 55 / 24)
        assert v_err <= 1e-8
        assert v_err <= sol.diagnostics["quadrature_error_bound"]
        pq = compute_pq(Delegate(IntervalUnionUniform(1, 2)))
        assert pq.method == "quadrature"
        assert abs(pq.p - 1 / 48) <= 1e-10 and abs(pq.q) <= 1e-10

    # PowerFold(delta) has p = 1/48 - delta B(delta, delta)/96: the sum of two
    # folded steps has density delta^2 B(delta, delta) s^(2 delta - 1) on
    # [0, 1], and q = (1/16) E[1 - (|X1| + |X2|)^delta; |X1| + |X2| < 1].
    # For other delta, powerfold_p takes B(delta, delta) from lgamma.
    @pytest.mark.parametrize("dist, p_exact", [
        (Laplace(1), Fraction(1, 192)),
        (PowerFold(2), Fraction(5, 288)),  # derived in perfbench/references.py
        (PowerFold(0.5), Fraction((4.0 - math.pi) / 192.0)),
        (PowerFold(3), Fraction(19, 960)),
        (PowerFold(4), Fraction(23, 1120)),
        (PowerFold(0.1), powerfold_p(0.1)),
        (PowerFold(1.5), powerfold_p(1.5)),
        (PowerFold(2.5), powerfold_p(2.5)),
        (PowerFold(8), powerfold_p(8.0)),
    ], ids=["laplace", "powerfold2", "powerfold0.5", "powerfold3", "powerfold4",
            "powerfold0.1", "powerfold1.5", "powerfold2.5", "powerfold8"])
    def test_adaptive_p_within_bound(self, dist, p_exact):
        pq = compute_pq(dist)
        assert pq.method == "quadrature"
        assert abs(Fraction(pq.p) - p_exact) <= Fraction(pq.error_bound)
