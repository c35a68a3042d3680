"""Outside-in tracing of rankstop: spans recorded at module boundaries.

Nothing under ``src/`` knows about this module.  ``install`` replaces the
public names that one rankstop module looks up in another (and the
distribution methods, and every policy's ``batch_rule``) by wrappers that
open a span, call the original and close the span.  Each span has a name,
a start, an end, the enclosing recorded span and the id of the CLI op that
caused it.  A span's self time is its duration minus the time covered by
its child spans.

Spans are kept in memory.  The coarse ones (one per op, solver call,
integral, simulation, oracle call, rule call) are stored individually;
the hot leaves (distribution primitives, one integrand evaluation per
quadrature panel, root-function evaluations) run 10^4 to 10^6 times per
op, so only their count, total, self time and element count are kept.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

_clock = time.perf_counter


class Tracer:
    """Span stack plus per-op aggregates; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Stored spans: [name_id, start, end, parent_span_index, op_id].
        self.spans: list[list] = []
        # Open frames: [name_id, layer, start, child_time, span_index].
        self._stack: list[list] = []
        self._open_stored = -1
        self.op_id = -1
        # name -> [count, total_s, self_s, elements], for the current op.
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @property
    def current_layer(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def count(self, key: str, n: int = 1):
        self.counters[key] = self.counters.get(key, 0) + n

    def call(self, name: str, store: bool, fn, args, kwargs, elems: int = 0):
        """Run ``fn`` inside a span called ``name`` (layer = prefix before the dot)."""
        nid = self.name_id(name)
        layer = name.split(".", 1)[0]
        start = _clock()
        idx = -1
        if store:
            idx = len(self.spans)
            self.spans.append([nid, start, None, self._open_stored, self.op_id])
            self._open_stored = idx
        frame = [nid, layer, start, 0.0, idx]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][3] += dur
            if store:
                self.spans[idx][2] = end
                self._open_stored = self.spans[idx][3]
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0.0, 0.0, 0]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[3]
            st[3] += elems

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self.stats = {}
        self.counters = {}

    def dump(self) -> dict:
        return {"names": self.names, "fields": ["name", "start_s", "end_s", "parent", "op"],
                "spans": self.spans}


# Public names one rankstop module takes from another, as the CLI commands
# of the benchmark reach them: (module, attribute, span name).
_BOUNDARY = [
    ("rankstop.cli", "solve_full_info", "fullinfo.solve_full_info"),
    ("rankstop.cli", "solve_threshold", "fullinfo.solve_threshold"),
    ("rankstop.fullinfo", "solve_threshold", "fullinfo.solve_threshold"),
    ("rankstop.cli", "compute_pq", "relranks.compute_pq"),
    ("rankstop.cli", "optimal_rank_policy", "relranks.optimal_rank_policy"),
    ("rankstop.cli", "optimal_rank_value", "relranks.optimal_rank_value"),
    ("rankstop.cli", "rank_policy_a", "relranks.rank_policy_a"),
    ("rankstop.cli", "rank_policy_b", "relranks.rank_policy_b"),
    ("rankstop.cli", "two_step_policy", "walkcore.two_step_policy"),
    ("rankstop.cli", "stop_at_policy", "walkcore.stop_at_policy"),
    ("rankstop.cli", "chunk_partials", "simulate.chunk_partials"),
    ("rankstop.cli", "reduce_partials", "simulate.reduce_partials"),
    ("rankstop.cli", "enumerate_rank_policies", "oracle.enumerate_rank_policies"),
    ("rankstop.cli", "canonical_rules", "oracle.canonical_rules"),
    ("rankstop.oracle:EnumerationResult", "is_minimizer", "oracle.is_minimizer"),
    ("rankstop.oracle:RankPolicyTable", "describe", "oracle.describe"),
    ("rankstop.oracle:RankPolicyTable", "to_policy", "oracle.to_policy"),
]

_DIST_METHODS = ("cdf", "ppf", "folded_cdf", "folded_ppf", "quantile")


def _target(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _span(tracer: Tracer, name: str, fn, on_result=None):
    def wrapper(*args, **kwargs):
        result = tracer.call(name, True, fn, args, kwargs)
        if on_result is not None:
            on_result(result)
        return result
    return wrapper


def _dist_method(tracer: Tracer, name: str, fn):
    # Only calls that enter the layer are spans: folded_cdf calling cdf on
    # the same object is distributions work, not a second boundary crossing.
    stack = tracer._stack

    def wrapper(self, x, *args, **kwargs):
        if stack and stack[-1][1] == "distributions":
            return fn(self, x, *args, **kwargs)
        return tracer.call(name, False, fn, (self, x) + args, kwargs, elems=np.size(x))
    return wrapper


def _integrate_detailed(tracer: Tracer, fn):
    from rankstop.numerics import QuadratureError

    def wrapper(f, *args, **kwargs):
        caller = tracer.current_layer
        tracer.count(f"{caller}.integrals")
        integrand_name = f"{caller}.integrand"

        def integrand(u):
            return tracer.call(integrand_name, False, f, (u,), {})
        try:
            return tracer.call("numerics.integrate_detailed", True, fn, (integrand,) + args, kwargs)
        except QuadratureError:
            tracer.count("numerics.budget_hits")
            raise
    return wrapper


def _find_root(tracer: Tracer, fn):
    def wrapper(f, *args, **kwargs):
        root_fn_name = f"{tracer.current_layer}.root_fn"

        def root_fn(x):
            return tracer.call(root_fn_name, False, f, (x,), {})
        return tracer.call("numerics.find_root", True, fn, (root_fn,) + args, kwargs)
    return wrapper


def install(tracer: Tracer):
    """Wrap every boundary named above; the process stays traced until exit."""
    from rankstop import distributions, fullinfo, relranks, walkcore

    def on_chunks(parts):
        tracer.count("simulate.chunks", len(parts))
        tracer.count("simulate.paths", sum(p.n_paths for p in parts))

    def on_enumeration(res):
        tracer.count("oracle.policies_evaluated", res.policy_count)

    hooks = {"simulate.chunk_partials": on_chunks,
             "oracle.enumerate_rank_policies": on_enumeration}
    for path, attr, name in _BOUNDARY:
        owner = _target(path)
        setattr(owner, attr, _span(tracer, name, getattr(owner, attr), hooks.get(name)))

    for module in (fullinfo, relranks):
        module.integrate_detailed = _integrate_detailed(tracer, module.integrate_detailed)
    fullinfo.find_root = _find_root(tracer, fullinfo.find_root)

    for cls in vars(distributions).values():
        if isinstance(cls, type) and issubclass(cls, distributions.SymmetricDistribution):
            for meth in _DIST_METHODS:
                if meth in vars(cls):
                    setattr(cls, meth, _dist_method(tracer, f"distributions.{meth}",
                                                    vars(cls)[meth]))

    post_init = walkcore.StoppingPolicy.__post_init__

    def traced_post_init(policy):
        post_init(policy)
        rule = policy.batch_rule
        object.__setattr__(policy, "batch_rule",
                           lambda k, observed: tracer.call("walkcore.batch_rule", True, rule,
                                                           (k, observed), {}))
    walkcore.StoppingPolicy.__post_init__ = traced_post_init
