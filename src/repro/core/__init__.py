"""The paper's primary contribution: features, predictors, evaluation, routing."""

from .abtest import ABTestConfig, ABTestResult, ABTestSimulator, GroupOutcome
from .answer_model import AnswerModel
from .batch_routing import BatchAssignment, route_batch, route_batch_greedy
from .coldstart import ColdStartBucket, cold_start_report
from .columnar import AnswerLog, EventStore
from .dtypes import ID_DTYPE, TIME_DTYPE, VALUE_DTYPE, IdOverflowError
from .explain import (
    FeatureContribution,
    PredictionExplanation,
    explain_prediction,
)
from .evaluation import (
    MetricSummary,
    PairDataset,
    Table1Result,
    TaskResult,
    build_extractor,
    build_pair_dataset,
    run_feature_importance,
    run_group_importance_by_history,
    run_table1,
    run_topic_sweep,
)
from .features import FeatureExtractor, QuestionInfo
from .featurespec import FEATURE_GROUPS, FEATURE_ORDER, FeatureSpec
from .online import replay
from .persistence import (
    CheckpointCorruptError,
    CheckpointLoadResult,
    WindowMismatchError,
    load_checkpoint,
    load_predictor,
    save_predictor,
    write_checkpoint,
)
from .pipeline import ForumPredictor, Prediction, PredictorConfig
from .resilience import (
    DegradationRecord,
    DegradationReport,
    FaultInjector,
    FaultPlan,
    FaultRecord,
    NonFiniteFeatureError,
    ResilienceConfig,
    StreamGuard,
)
from .retrieval import (
    CandidateRetriever,
    RetrievalConfig,
    candidate_recall,
    reciprocal_rank_fusion,
)
from .routing import (
    QuestionRouter,
    RoutingResult,
    UserLoadTracker,
    finish_recommendation,
    solve_routing_lp,
)
from .serving import (
    AdmissionConfig,
    BatchPolicy,
    CostModel,
    RecommendationService,
    RouteResponse,
    ServiceConfig,
    ServingCore,
    SubmitResult,
    VirtualClock,
    run_load,
)
from .serving.service import OnlineConfig, OnlineReport
from .state import ForumState, FrozenState
from .timing_model import TimingModel
from .tradeoff import (
    FrontierPoint,
    TradeoffFrontier,
    pareto_front,
    sweep_tradeoff,
)
from .topic_context import TopicModelContext
from .vote_model import VoteModel

__all__ = [
    "ABTestConfig",
    "ABTestResult",
    "ABTestSimulator",
    "GroupOutcome",
    "load_predictor",
    "save_predictor",
    "WindowMismatchError",
    "CheckpointCorruptError",
    "CheckpointLoadResult",
    "load_checkpoint",
    "write_checkpoint",
    "OnlineConfig",
    "OnlineReport",
    "replay",
    "DegradationRecord",
    "DegradationReport",
    "FaultInjector",
    "FaultPlan",
    "FaultRecord",
    "NonFiniteFeatureError",
    "ResilienceConfig",
    "StreamGuard",
    "AnswerModel",
    "BatchAssignment",
    "route_batch",
    "route_batch_greedy",
    "ColdStartBucket",
    "cold_start_report",
    "FeatureContribution",
    "PredictionExplanation",
    "explain_prediction",
    "MetricSummary",
    "PairDataset",
    "Table1Result",
    "TaskResult",
    "build_extractor",
    "build_pair_dataset",
    "run_feature_importance",
    "run_group_importance_by_history",
    "run_table1",
    "run_topic_sweep",
    "FeatureExtractor",
    "QuestionInfo",
    "FEATURE_GROUPS",
    "FEATURE_ORDER",
    "FeatureSpec",
    "ForumPredictor",
    "Prediction",
    "PredictorConfig",
    "CandidateRetriever",
    "RetrievalConfig",
    "candidate_recall",
    "reciprocal_rank_fusion",
    "QuestionRouter",
    "RoutingResult",
    "UserLoadTracker",
    "finish_recommendation",
    "solve_routing_lp",
    "AnswerLog",
    "EventStore",
    "ID_DTYPE",
    "TIME_DTYPE",
    "VALUE_DTYPE",
    "IdOverflowError",
    "AdmissionConfig",
    "BatchPolicy",
    "CostModel",
    "RecommendationService",
    "RouteResponse",
    "ServiceConfig",
    "ServingCore",
    "SubmitResult",
    "VirtualClock",
    "run_load",
    "ForumState",
    "FrozenState",
    "TimingModel",
    "FrontierPoint",
    "TradeoffFrontier",
    "pareto_front",
    "sweep_tradeoff",
    "TopicModelContext",
    "VoteModel",
]
