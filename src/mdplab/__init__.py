"""Desk-scale laboratory for finite discounted MDPs.

Exact dynamic-programming solutions, tabular Q-learning with
visit-indexed learning-rate schedules, average-reward softmax policy
gradients with finite-difference verification, and weighted multilevel
reward composition with optimal-policy divergence analysis.
"""

from .gradient import (
    GradientReport,
    NonFiniteThetaError,
    ReducibleChainError,
    ascent_trace,
    average_reward,
    differential_q,
    gradient_ascent,
    gradient_check,
    policy_gradient_analytic,
    softmax_policy,
    stationary_distribution,
)
from .mdp import (
    GammaRangeError,
    GridMismatchError,
    Mdp,
    MissingEntryError,
    NonFiniteRewardError,
    Policy,
    QTable,
    RowSumError,
    SchemaError,
    SingularSystemError,
    UnknownActionError,
    UnknownStateError,
    ValidationError,
    ValueFunction,
    ValueOverflowError,
    evaluate,
    expectations,
    load_dynamics,
    load_json,
    load_mdp,
    make_mdp,
    mdp_to_dict,
    policy_evaluate,
    policy_probs,
    step,
    table_from_dict,
    validate_mdp,
    with_rewards,
)
from .qlearn import (
    Checkpoint,
    ConvergenceSummary,
    ConvergenceTrace,
    LearningRateSchedule,
    NegativeRateError,
    QLearnConfig,
    RateAtLeastOneError,
    ScheduleVerdict,
    TooFewCheckpointsError,
    classify_schedule,
    convergence_report,
    q_learning_run,
)
from .rewards import (
    DivergenceReport,
    NonMonotoneFilterError,
    RewardHierarchy,
    RewardLevel,
    UtilityFilter,
    compare_policies,
    compose_reward,
    hierarchy_from_dict,
    level_with_weight,
    sweep_weights,
)
from .solve import (
    DominanceReport,
    SolveResult,
    SweepLimitError,
    bellman_backup,
    policy_iteration,
    q_from_v,
    value_iteration,
    verify_deterministic_optimality,
)
from .worlds import (
    egoism_vs_humanity,
    opposed_reward_pair,
    random_mdp,
    stay_go_dynamics,
    stay_go_mdp,
)

__version__ = "0.1.0"
