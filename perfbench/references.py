"""Exact references for every op of the benchmark, and the checks that use them.

Closed forms are written here independently of the library and evaluated
in 50-digit decimal arithmetic, so |output - closed form| is the output's
own error, not a difference of two roundings.  Tolerances are tier-1's
(tests/test_acceptance.py); none is looser.

A check takes the parsed JSON payload of one op and returns a dict with
``failures`` (strings; empty when the op is correct), ``abs_err`` (one
entry per output that has a closed form) and, for Monte Carlo, ``z``.
"""

from __future__ import annotations

from decimal import Decimal, getcontext
from fractions import Fraction

getcontext().prec = 50

SQRT2 = Decimal(2).sqrt()
PQ_SUM = Fraction(1, 48)

#: Universal bounds: (109 - sqrt 2)/48 <= V <= 55/24 and F(x1*) >= 1/2 + sqrt(2)/4.
V_LOWER = (109 - SQRT2) / 48
V_UPPER = Fraction(55, 24)
F_THRESHOLD_LOWER = Decimal(1) / 2 + SQRT2 / 4
BOUND_TOL = 1e-9

#: Full-information closed forms: (reference, tolerance) per output field.
FULL_INFO = {
    "uniform": {"x1_star": (2 * (SQRT2 - 1), 1e-9),
                "value": (Decimal(11) / 4 - SQRT2 / 3, 1e-8)},
    "interval_union": {"value": (Fraction(55, 24), 1e-8)},
}
#: Laplace has no closed form for x1* or V; tier-1 pins them to these values.
FULL_INFO_APPROX = {
    "laplace": {"x1_star": (1.71, 5e-3), "value": (2.271, 1e-3)},
}

#: Exact p per law.  PowerFold(2) has folded CDF x^2 on (0, 1); with
#: u = s^2, v = t^2 the q integral is (1/16) * int_{s+t<1} (1 - (s+t)^2) 4st
#: ds dt = 1/288, so p = 1/48 - 1/288 = 5/288.
P_EXACT = {
    "uniform": (Fraction(1, 96), 1e-10),
    "laplace": (Fraction(1, 192), 1e-9),
    "powerfold": (Fraction(5, 288), 1e-9),
}

#: The custom rank table of the certify workload: never stop at 1; at 2 stop
#: exactly on a new maximum after a first step down.
CUSTOM_BITS = (0, 0, 0, 0, 0, 0, 1, 0, 0)

MC_Z_LIMIT = 4.0


def _dec(x) -> Decimal:
    if isinstance(x, Fraction):
        return Decimal(x.numerator) / Decimal(x.denominator)
    return Decimal(x)


def abs_err(output: float, exact) -> float:
    """|output - exact|, with the float output taken at its exact value."""
    return float(abs(Decimal(output) - _dec(exact)))


def optimal_rank_value(p: Fraction) -> Fraction:
    """min(55/24, 109/48 + 2p): the optimal three-step rank value."""
    return min(Fraction(55, 24), Fraction(109, 48) + 2 * p)


def rank_targets(p: Fraction) -> dict[str, Fraction]:
    """Exact expected rank of each simulated rule at a law's p.

    Each value is the exact enumeration over the 24-ordering table at p:
    rule a (stop on a new maximum at 1, at 2 unless at a new minimum)
    scores 109/48 + 2p, rule b (new maximum at 1 or 2) 55/24, the custom
    table 59/24 - 2p, stopping at the end the mean rank 5/2, and the
    two-step rule 15/8.
    """
    return {
        "thm4a": Fraction(109, 48) + 2 * p,
        "thm4b": Fraction(55, 24),
        "stop_at_n": Fraction(5, 2),
        "custom": Fraction(59, 24) - 2 * p,
        "thm1": Fraction(15, 8),
    }


def _result(failures, errs=(), **extra) -> dict:
    return {"failures": list(failures), "abs_err": list(errs), **extra}


def check_solve_full(law: str):
    """Check of ``solve --model full``; ``law`` keys the closed forms."""
    def check(out):
        failures, errs = [], []
        v, f_at, x1 = out["value"], out["F_at_threshold"], out["x1_star"]
        if not x1 > 0:
            failures.append(f"x1_star {x1} not positive")
        if not _dec(V_LOWER) - Decimal(BOUND_TOL) <= Decimal(v) <= _dec(V_UPPER) + Decimal(BOUND_TOL):
            failures.append(f"value {v} outside the universal bounds")
        if Decimal(f_at) < F_THRESHOLD_LOWER - Decimal(BOUND_TOL):
            failures.append(f"F(x1*) = {f_at} below 1/2 + sqrt(2)/4")
        for field, (exact, tol) in FULL_INFO.get(law, {}).items():
            err = abs_err(out[field], exact)
            errs.append(err)
            if err > tol:
                failures.append(f"{field} off its closed form by {err:.3g} > {tol}")
        for field, (ref, tol) in FULL_INFO_APPROX.get(law, {}).items():
            if abs(out[field] - ref) > tol:
                failures.append(f"{field} = {out[field]} not within {tol} of {ref}")
        return _result(failures, errs)
    return check


def check_solve_relranks(law: str):
    """Check of ``solve --model relranks``."""
    def check(out):
        failures, errs = [], []
        p, q, bound = out["p"], out["q"], out["error_bound"]
        if not (p > 0 and q >= 0):
            failures.append(f"p = {p}, q = {q} out of range")
        defect = abs(Decimal(p) + Decimal(q) - _dec(PQ_SUM))
        if defect > Decimal(bound):
            failures.append(f"|p + q - 1/48| = {float(defect):.3g} above the reported bound {bound}")
        value = optimal_rank_value(Fraction(p))
        if abs(Decimal(out["value"]) - _dec(value)) > Decimal("1e-12"):
            failures.append(f"value {out['value']} is not min(55/24, 109/48 + 2p)")
        branch = "a" if p <= q else "b"
        if out["branch"] != branch or out["rule"] != f"rank_rule_{branch}":
            failures.append(f"branch {out['branch']} / rule {out['rule']} for p={p}, q={q}")
        if law in P_EXACT:
            exact, tol = P_EXACT[law]
            err = abs_err(p, exact)
            errs.append(err)
            if err > tol:
                failures.append(f"p off {exact} by {err:.3g} > {tol}")
        return _result(failures, errs)
    return check


def check_simulate(target: Fraction, n_paths: int, seed: int):
    """Check of ``simulate``: the mean within 4 sigma of the exact target."""
    def check(out):
        failures = []
        if out["n_paths"] != n_paths or sum(out["stop_time_histogram"]) != n_paths:
            failures.append(f"path count {out['n_paths']} / histogram != {n_paths}")
        if out["manifest"]["seed"] != seed:
            failures.append(f"manifest seed {out['manifest']['seed']} != {seed}")
        se = out["std_error"]
        z = float((Decimal(out["mean_rank"]) - _dec(target)) / Decimal(se)) if se > 0 else float("inf")
        if not abs(z) <= MC_Z_LIMIT:
            failures.append(f"mean {out['mean_rank']} is {z:.2f} sigma from {target}")
        return _result(failures, z=z)
    return check


def check_enumerate(p: Fraction):
    """Check of ``enumerate --p``: the exact optimum and the optimal branch."""
    def check(out):
        failures = []
        exact = optimal_rank_value(p)
        if Fraction(out["optimal_value"]) != exact:
            failures.append(f"optimal value {out['optimal_value']} != {exact}")
        if out["policy_count"] != 512:
            failures.append(f"{out['policy_count']} policies enumerated, not 512")
        q = PQ_SUM - p
        named = out["named_rules_optimal"]
        if named["rank_rule_a"] != (p <= q) or named["rank_rule_b"] != (p >= q):
            failures.append(f"optimal named rules {named} wrong for p = {p}")
        return _result(failures, [abs_err(out["optimal_value_float"], exact)])
    return check
