"""The benchmark's workloads: seeded inputs, one op per rankstop CLI command.

Every op is the argv of one real ``rankstop`` command plus the check of
its JSON output.  ``build`` derives all inputs from the workload seed and
returns them with a JSON-ready record of what was generated; the program
only ever sees the generated argv.

Why these workloads:

* ``solve_builtin`` -- ``solve --model full|relranks`` on the five
  ``builtin_suite()`` laws.  Quadrature does all of the work; simulate and
  oracle do none.  The laws run from smooth (uniform) through kinked
  (tabulated, interval union) to singular at the origin (powerfold), so
  the refinement depth varies from op to op.
* ``tabulated_knots`` -- the same commands on piecewise-linear laws of 6,
  9 and 12 knots with seeded masses, plus uniform written as an evenly
  split 6-knot table, whose closed forms anchor the accuracy check.  Every
  knot adds break points, so the cost is breadth (many initial panels,
  many ``np.interp``/``searchsorted`` lookups) rather than depth.
* ``certify`` -- ``simulate`` of four rank rules on uniform, laplace and
  powerfold(2) plus the two-step rule, at 2^20 paths in four 2^18 chunks,
  and ``enumerate --p`` at exact p.  The Monte Carlo chunk kernel, policy
  evaluation and the enumeration oracle do the work; numerics does none.
  thm2 is left out because building it runs ``solve_threshold``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import references as ref

@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    check: Callable[[dict], dict]


def _spec(dist_spec: dict) -> str:
    return json.dumps(dist_spec, separators=(",", ":"))


def _solve_ops(label: str, spec: str, law: str) -> list[Op]:
    return [
        Op(f"solve.full.{label}", ("solve", "--dist", spec, "--model", "full"),
           ref.check_solve_full(law)),
        Op(f"solve.relranks.{label}", ("solve", "--dist", spec, "--model", "relranks"),
           ref.check_solve_relranks(law)),
    ]


def _solve_builtin(rng, tiny):
    from rankstop.distributions import builtin_suite

    suite = builtin_suite()
    laws = ("uniform", "interval_union") if tiny else tuple(suite)
    ops = [op for law in laws for op in _solve_ops(law, _spec(suite[law].spec()), law)]
    order = rng.permutation(len(ops))
    return [ops[i] for i in order], {"laws": list(laws), "order": [ops[i].name for i in order]}


#: Relative jitter of the mass between knots.
MASS_JITTER = 0.1
_GOLDEN = (5 ** 0.5 - 1) / 2


def knot_grid(rng, k: int) -> list[list[float]]:
    """A (x, F) grid on x >= 0 with k knots after the origin, F from 1/2 to 1.

    The seed draws the mass between knots.  The knots sit on a fixed,
    irregular template (unit steps shifted by golden-ratio offsets).  Runs
    with different seeds must cost the same to be comparable, and the
    panel count of a pass (standard deviation over mean, six seeds) was 9%
    when the seed also moved the knots by up to 30%, 5% on the template
    with masses jittered by 30%, and 1.5% with masses jittered by 10%.
    Moved knots put some knot differences almost on top of each other,
    which costs deep refinement.
    """
    i = np.arange(1, k + 1)
    t = i + 0.45 * ((i * _GOLDEN) % 1.0 - 0.5)
    x = t / t[-1]
    mass = 1.0 + MASS_JITTER * rng.uniform(-1.0, 1.0, k)
    f = 0.5 + 0.5 * np.cumsum(mass) / mass.sum()
    f[-1] = 1.0
    return [[0.0, 0.5]] + [[float(a), float(b)] for a, b in zip(x, f)]


def uniform_table(k: int) -> list[list[float]]:
    """Uniform(1) as a table with k equal pieces on x >= 0."""
    return [[i / k, 0.5 + 0.5 * i / k] for i in range(k + 1)]


def _tabulated_knots(rng, tiny):
    counts = (2, 3) if tiny else (6, 9, 12)
    anchor_k = 2 if tiny else 6
    grids = {f"knots{k}": knot_grid(rng, k) for k in counts}
    ops = []
    for label, grid in grids.items():
        ops += _solve_ops(label, _spec({"kind": "tabulated", "grid": grid}), label)
    anchor = {"kind": "tabulated", "grid": uniform_table(anchor_k)}
    ops += _solve_ops(f"uniform{anchor_k}", _spec(anchor), "uniform")
    return ops, {"grids": grids, "anchor": anchor}


_CERTIFY_LAWS = {
    "uniform": {"kind": "uniform", "a": 1.0},
    "laplace": {"kind": "laplace", "b": 1.0},
    "powerfold": {"kind": "powerfold", "delta": 2.0},
}
_POLICY_TOKENS = {
    "thm4a": "thm4a",
    "thm4b": "thm4b",
    "stop_at_n": "stop_at_n",
    "custom": _spec({"kind": "rank_table", "bits": list(ref.CUSTOM_BITS)}),
}
ENUMERATE_P = (Fraction(1, 192), Fraction(1, 96), Fraction(5, 288), Fraction(1, 100), Fraction(1, 60))


def _certify(rng, tiny):
    paths, chunk = (1 << 14, 1 << 12) if tiny else (1 << 20, 1 << 18)
    laws = ("uniform",) if tiny else tuple(_CERTIFY_LAWS)
    runs = [(law, pol) for law in laws for pol in _POLICY_TOKENS] + [("laplace", "thm1")]
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=len(runs))]
    ops = []
    for (law, pol), seed in zip(runs, seeds):
        target = ref.rank_targets(ref.P_EXACT[law][0])[pol]
        argv = ("simulate", "--dist", _spec(_CERTIFY_LAWS[law]),
                "--policy", _POLICY_TOKENS.get(pol, pol), "--paths", str(paths),
                "--chunk-size", str(chunk), "--workers", "1", "--seed", str(seed))
        ops.append(Op(f"simulate.{pol}.{law}", argv, ref.check_simulate(target, paths, seed)))
    enumerate_p = ENUMERATE_P[:2] if tiny else ENUMERATE_P
    for p in enumerate_p:
        ops.append(Op(f"enumerate.p={p}", ("enumerate", "--p", str(p)), ref.check_enumerate(p)))
    record = {"paths": paths, "chunk_size": chunk,
              "simulate_seeds": {op.name: s for op, s in zip(ops, seeds)},
              "enumerate_p": [str(p) for p in enumerate_p]}
    return ops, record


_BUILDERS = {"solve_builtin": _solve_builtin, "tabulated_knots": _tabulated_knots,
             "certify": _certify}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int, tiny: bool = False) -> tuple[list[Op], dict]:
    """The op list of one pass over ``workload`` and the record of its inputs."""
    ops, record = _BUILDERS[workload](np.random.default_rng(seed), tiny)
    return ops, {"workload": workload, "seed": seed, "tiny": tiny, **record,
                 "ops": [{"name": op.name, "argv": list(op.argv)} for op in ops]}
