"""Recourse generation for generalized linear models under bounded model shift."""

from .adversary import Neighborhood, best_response, corner_oracle, worst_case_shared_model
from .data import (
    DataError,
    Dataset,
    FoldPlan,
    NormStats,
    SyntheticSpec,
    apply_norm,
    compute_norm_stats,
    generate_synthetic,
    ingest_csv,
    kfold,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    OracleReport,
    StudyResult,
    generate_predictions,
    oracle_check,
    run_smoothness_study,
    run_tradeoff_study,
    run_validity_study,
)
from .glm import (
    CostSpec,
    DimensionMismatchError,
    LossKind,
    ModelParams,
    RecourseQuery,
    eval_loss,
    eval_total_cost,
    loss_derivative,
    score,
    sigmoid,
    sign,
    weighted_l1,
)
from .models import (
    BlackBoxScorer,
    GlmScorer,
    MlpScorer,
    MlpWeights,
    TrainingDataError,
    fit_logistic,
    mlp_forward,
    predict_label,
    train_logistic,
)
from .roar import RoarConfig, roar_recourse, roar_recourse_batch
from .solver import (
    GridSpec,
    RecoursePlan,
    TraceStep,
    consistent_recourse,
    minimax_oracle,
    optimal_robust_recourse,
    optimal_robust_recourse_batch,
    solve_coordinate_step,
)
from .surrogate import SurrogateConfig, fit_local_linear
from .tradeoff import (
    Frontier,
    TradeoffPoint,
    TradeoffQuery,
    blended_recourse,
    consistency,
    pareto_frontier,
    robustness,
    smoothness,
    validity,
)

__version__ = "0.1.0"
