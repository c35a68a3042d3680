"""Optimal stopping of a symmetric random walk to minimize expected rank.

The package solves, exactly, the problem of stopping a walk with
continuous symmetric steps after at most three steps so that the expected
final rank of the stopped position (among all walk positions including
the origin) is minimal.  Two observation models are covered: full
information, where the decision maker sees the actual steps, and relative
ranks, where only the standings of the positions seen so far are
revealed.  Brute-force oracles (exhaustive policy enumeration, a
quantile-atom dynamic program) and a seeded Monte Carlo engine verify
every closed-form result.

The names below load on first access: ``import rankstop`` imports no
solver module, and ``rankstop.solve_full_info`` imports ``fullinfo`` and
what it needs, and no more.
"""

import importlib
import sys

__version__ = "0.1.0"


def _lazy_attributes(module_name: str, exports: dict[str, tuple[str, ...]]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for the module ``module_name``.

    ``exports`` maps a submodule of this package to the names the module
    takes from it.  A name is imported on its first access and then kept in
    the module's namespace, so later lookups, and any replacement set on
    the module, bypass ``__getattr__``.
    """
    source = {name: sub for sub, names in exports.items() for name in names}
    namespace = sys.modules[module_name].__dict__

    def __getattr__(name):
        sub = source.get(name)
        if sub is None:
            raise AttributeError(f"module {module_name!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{__name__}.{sub}"), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | source.keys())

    return __getattr__, __dir__


_EXPORTS = {
    "distributions": (
        "DistributionError", "SymmetricDistribution", "Uniform", "Laplace",
        "PowerFold", "IntervalUnionUniform", "TabulatedCdf", "from_spec",
        "builtin_suite",
    ),
    "numerics": (
        "QuadratureConfig", "RootConfig", "QuadratureError", "BracketError",
        "integrate_batch", "find_root",
    ),
    "walkcore": (
        "FULL_INFORMATION", "RELATIVE_RANKS", "WalkPath", "RankView",
        "compute_ranks", "StoppingPolicy", "RankPolicyTable", "run_policy",
        "monotone_transform", "stop_at_policy", "two_step_policy", "TieError",
        "PermutationTable", "permutation_table", "rank_policy_a", "rank_policy_b",
    ),
    "fullinfo": (
        "FullInfoSolution", "V_LOWER_BOUND", "V_UPPER_BOUND",
        "THRESHOLD_QUANTILE_BOUND", "stage2_value", "continuation_value",
        "continuation_curve", "solve_threshold",
        "solve_full_info", "stage2_stop_region", "full_info_policy",
        "lower_bound_check",
    ),
    "relranks": (
        "PQParams", "compute_pq", "shift_concentration_check", "optimal_rank_policy",
        "optimal_rank_value", "two_step_case_values",
    ),
    "oracle": (
        "enumerate_rank_policies", "GridDPResult",
        "grid_dp_full_info", "stage2_disagreement", "stage2_disagreement_csv",
    ),
    "simulate": (
        "SimConfig", "SimResult", "ChunkPartial", "chunk_partials",
        "reduce_partials", "estimate_expected_rank", "permutation_frequencies",
    ),
}

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]

__getattr__, __dir__ = _lazy_attributes(__name__, _EXPORTS)
