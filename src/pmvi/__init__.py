"""Pessimistic minimax value iteration for offline zero-sum Markov games.

The package covers the full pipeline: defining tabular games with an exact
linear factorization (:mod:`pmvi.games`), collecting offline trajectory
datasets (:mod:`pmvi.data`), the pessimistic/optimistic backward pass
(:mod:`pmvi.value_iteration`), exact equilibrium evaluation
(:mod:`pmvi.evaluation`), dataset-quality diagnostics
(:mod:`pmvi.uncertainty`), and the paired-game experiment showing that no
offline algorithm can do uniformly better (:mod:`pmvi.hard_instances`).
"""

from .data import (
    OfflineDataset,
    balanced_schedule,
    collect_behavior,
    collect_predetermined,
    count_stats,
    load_dataset,
    save_dataset,
    validate_dataset,
)
from .errors import ConfigError, InvariantError, PmviError, SolverError
from .evaluation import (
    EvaluationReport,
    NashValues,
    bellman_error_tables,
    best_response_value,
    exact_nash_values,
    expected_total,
    policy_value,
    sandwich_holds,
    suboptimality,
    theorem_bound_rhs,
    value_difference,
)
from .games import (
    PAYOFF_A,
    PAYOFF_B,
    PAYOFF_CYCLIC,
    PAYOFF_MIXED,
    MarkovPolicy,
    RegularityWarning,
    TabularLinearMG,
    bandit_game,
    bellman_apply,
    cyclic_bandit,
    game_from_dict,
    game_to_dict,
    load_game,
    mixed_bandit,
    one_hot_featurize,
    save_game,
    spurious_equilibrium_pair,
    three_state_game,
)
from .hard_instances import (
    LeCamPair,
    LowerBoundResult,
    build_game,
    dataset_kl,
    le_cam_pair,
    run_lower_bound_experiment,
)
from .matrix_nash import NashSolution, best_pure_response_gap, solve_zero_sum
from .uncertainty import (
    RUReport,
    bonus_value_dp,
    diagnose,
    expected_feature_outer,
    relative_uncertainty,
    well_explored_check,
)
from .value_iteration import (
    PmviConfig,
    PmviOutput,
    bonus_tables,
    default_beta,
    gram_matrices,
    output_to_dict,
    ridge_weights,
    run_pmvi,
)

__version__ = "0.1.0"

__all__ = [
    "PAYOFF_A",
    "PAYOFF_B",
    "PAYOFF_CYCLIC",
    "PAYOFF_MIXED",
    "ConfigError",
    "EvaluationReport",
    "InvariantError",
    "LeCamPair",
    "LowerBoundResult",
    "MarkovPolicy",
    "NashSolution",
    "NashValues",
    "OfflineDataset",
    "PmviConfig",
    "PmviError",
    "PmviOutput",
    "RegularityWarning",
    "RUReport",
    "SolverError",
    "TabularLinearMG",
    "balanced_schedule",
    "bandit_game",
    "bellman_apply",
    "bellman_error_tables",
    "best_pure_response_gap",
    "best_response_value",
    "bonus_tables",
    "bonus_value_dp",
    "build_game",
    "collect_behavior",
    "collect_predetermined",
    "count_stats",
    "cyclic_bandit",
    "dataset_kl",
    "default_beta",
    "diagnose",
    "exact_nash_values",
    "expected_feature_outer",
    "expected_total",
    "game_from_dict",
    "game_to_dict",
    "gram_matrices",
    "le_cam_pair",
    "load_dataset",
    "load_game",
    "mixed_bandit",
    "one_hot_featurize",
    "output_to_dict",
    "policy_value",
    "relative_uncertainty",
    "ridge_weights",
    "run_lower_bound_experiment",
    "run_pmvi",
    "sandwich_holds",
    "save_dataset",
    "save_game",
    "solve_zero_sum",
    "spurious_equilibrium_pair",
    "suboptimality",
    "theorem_bound_rhs",
    "three_state_game",
    "validate_dataset",
    "value_difference",
    "well_explored_check",
]
