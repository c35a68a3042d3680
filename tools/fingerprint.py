"""Print the bits of the solvers' results on a fixed set of 29 laws.

For each law one JSON line: x1*, V, F(x1*) and every ``diagnostics``
value of ``solve_full_info``; p, q, the bound and the panels of
``compute_pq``; ``solve_threshold``; and the SHA-256 of the float64
bytes of ``continuation_curve`` at 301 points, Q(u) for u evenly spaced
on [0.001, 0.999].  Floats are written in hex, so two trees that print
the same lines computed the same bits.

    PYTHONPATH=src python tools/fingerprint.py > a.jsonl
    PYTHONPATH=OTHER/src python tools/fingerprint.py > b.jsonl
    diff a.jsonl b.jsonl

``rankstop`` comes from the import path, so this one script fingerprints
any tree, an older one without it too.  Names on the command line
(``python tools/fingerprint.py laplace uniform6``) run only those laws.

The laws: ``builtin_suite()``, Laplace(3), PowerFold at 11 deltas, the
6-piece uniform table, the 6-, 9- and 12-knot tables of the benchmark's
``tabulated_knots`` workload at seeds 1 and 7, its knot template at 30,
60 and 120 knots (``default_rng(0)``), and random tables of 20 and 60
knots: knots sorted uniform on (0, 1), F sorted uniform on (1/2, 1) with
the last F set to 1, in that order from one ``default_rng(0)`` each.
The benchmark's tables come from ``perfbench/workloads.py``, which is
only imported.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import knot_grid, uniform_table  # noqa: E402

from rankstop.distributions import Laplace, PowerFold, TabulatedCdf, builtin_suite  # noqa: E402
from rankstop.fullinfo import continuation_curve, solve_full_info, solve_threshold  # noqa: E402
from rankstop.relranks import compute_pq  # noqa: E402

_DELTAS = (0.1, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 6, 8)
_CURVE_U = np.linspace(0.001, 0.999, 301)


def _random_table(k):
    rng = np.random.default_rng(0)
    x = np.sort(rng.uniform(0.0, 1.0, k))
    f = np.sort(rng.uniform(0.5, 1.0, k))
    f[-1] = 1.0
    return TabulatedCdf(np.column_stack([x, f]))


def laws():
    """The 29 laws by name."""
    out = dict(builtin_suite())
    out["laplace3"] = Laplace(3)
    out.update({f"powerfold{d}": PowerFold(d) for d in _DELTAS})
    out["uniform6"] = TabulatedCdf(uniform_table(6))
    for seed in (1, 7):
        rng = np.random.default_rng(seed)  # the three grids in turn, as the workload draws them
        for k in (6, 9, 12):
            out[f"seed{seed}-knots{k}"] = TabulatedCdf(knot_grid(rng, k))
    for k in (30, 60, 120):
        out[f"template{k}"] = TabulatedCdf(knot_grid(np.random.default_rng(0), k))
    for k in (20, 60):
        out[f"random{k}"] = _random_table(k)
    return out


def _bits(value):
    """``value`` with every float as its hex string."""
    if isinstance(value, dict):
        return {key: _bits(v) for key, v in value.items()}
    if isinstance(value, float):
        return value.hex()
    return value


def fingerprint(dist):
    sol = solve_full_info(dist)
    pq = compute_pq(dist)
    curve = continuation_curve(dist, dist.ppf(_CURVE_U))
    return _bits({
        "x1_star": sol.x1_star, "value": sol.value, "F_at_threshold": sol.F_at_threshold,
        "diagnostics": sol.diagnostics,
        "pq": {"p": pq.p, "q": pq.q, "error_bound": pq.error_bound, "panels": pq.panels},
        "solve_threshold": solve_threshold(dist),
        "curve_sha256": hashlib.sha256(np.ascontiguousarray(curve, dtype=float).tobytes()).hexdigest(),
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="laws to run (default: all 29)")
    args = parser.parse_args(argv)
    table = laws()
    unknown = [name for name in args.names if name not in table]
    if unknown:
        parser.error(f"unknown laws {unknown}; known: {', '.join(table)}")
    for name in args.names or table:
        print(json.dumps({"law": name, **fingerprint(table[name])}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
