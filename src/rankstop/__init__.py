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
"""

__version__ = "0.1.0"

from .distributions import (
    DistributionError,
    IntervalUnionUniform,
    Laplace,
    PowerFold,
    SymmetricDistribution,
    TabulatedCdf,
    Uniform,
    builtin_suite,
    from_spec,
)
from .fullinfo import (
    FullInfoSolution,
    THRESHOLD_QUANTILE_BOUND,
    V_LOWER_BOUND,
    V_UPPER_BOUND,
    continuation_curve,
    continuation_value,
    full_info_policy,
    lower_bound_check,
    solve_full_info,
    solve_threshold,
    stage2_stop_region,
    stage2_value,
)
from .numerics import (
    BracketError,
    QuadratureConfig,
    QuadratureError,
    RootConfig,
    find_root,
    integrate_batch,
)
from .oracle import (
    GridDPResult,
    enumerate_rank_policies,
    grid_dp_full_info,
    stage2_disagreement,
    stage2_disagreement_csv,
)
from .relranks import (
    PQParams,
    PermutationTable,
    compute_pq,
    optimal_rank_policy,
    optimal_rank_value,
    permutation_table,
    rank_policy_a,
    rank_policy_b,
    shift_concentration_check,
    two_step_case_values,
)
from .simulate import (
    ChunkPartial,
    SimConfig,
    SimResult,
    chunk_partials,
    estimate_expected_rank,
    permutation_frequencies,
    reduce_partials,
)
from .walkcore import (
    FULL_INFORMATION,
    RELATIVE_RANKS,
    RankPolicyTable,
    RankView,
    StoppingPolicy,
    TieError,
    WalkPath,
    compute_ranks,
    monotone_transform,
    run_policy,
    stop_at_policy,
    two_step_policy,
)

__all__ = [
    "__version__",
    # distributions
    "DistributionError", "SymmetricDistribution", "Uniform", "Laplace",
    "PowerFold", "IntervalUnionUniform", "TabulatedCdf", "from_spec",
    "builtin_suite",
    # numerics
    "QuadratureConfig", "RootConfig", "QuadratureError", "BracketError",
    "integrate_batch", "find_root",
    # walkcore
    "FULL_INFORMATION", "RELATIVE_RANKS", "WalkPath", "RankView",
    "compute_ranks", "StoppingPolicy", "RankPolicyTable", "run_policy",
    "monotone_transform", "stop_at_policy", "two_step_policy", "TieError",
    # fullinfo
    "FullInfoSolution", "V_LOWER_BOUND", "V_UPPER_BOUND",
    "THRESHOLD_QUANTILE_BOUND", "stage2_value", "continuation_value",
    "continuation_curve", "solve_threshold",
    "solve_full_info", "stage2_stop_region", "full_info_policy",
    "lower_bound_check",
    # relranks
    "PQParams", "PermutationTable", "compute_pq", "permutation_table",
    "shift_concentration_check", "optimal_rank_policy", "optimal_rank_value",
    "rank_policy_a", "rank_policy_b", "two_step_case_values",
    # oracle
    "enumerate_rank_policies", "GridDPResult",
    "grid_dp_full_info", "stage2_disagreement", "stage2_disagreement_csv",
    # simulate
    "SimConfig", "SimResult", "ChunkPartial", "chunk_partials",
    "reduce_partials", "estimate_expected_rank", "permutation_frequencies",
]
