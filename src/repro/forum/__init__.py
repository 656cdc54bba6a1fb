"""Forum substrate: data model, preprocessing, synthetic generator, stats."""

from .dataset import AnswerRecord, ForumDataset, PreprocessReport
from .generator import ForumConfig, SyntheticForum, generate_forum
from .io import load_dataset, save_dataset
from .models import HOURS_PER_DAY, Post, Thread
from .stackexchange import load_api_json, load_posts_xml
from .streaming import (
    ScaleIngestReport,
    StreamChunk,
    UserGroundTruth,
    ingest_stream,
    sample_users,
    stream_forum_chunks,
)
from .repair import (
    RepairReport,
    VoteSpamWave,
    apply_vote_spam,
    repair_dataset,
    strip_vote_spam,
)
from .traffic import (
    TrafficConfig,
    TrafficRequest,
    derive_rng,
    generate_traffic,
    scenario_seed_sequence,
)
from .validation import ValidationIssue, ValidationReport, validate_dataset
from .stats import (
    DatasetSummary,
    GraphSummary,
    answer_activity_cdf,
    ecdf,
    median_response_time_by_activity,
    summarize_dataset,
    summarize_graphs,
    vote_time_correlation,
)

__all__ = [
    "AnswerRecord",
    "ForumDataset",
    "PreprocessReport",
    "ForumConfig",
    "SyntheticForum",
    "generate_forum",
    "load_dataset",
    "save_dataset",
    "load_api_json",
    "load_posts_xml",
    "ScaleIngestReport",
    "StreamChunk",
    "UserGroundTruth",
    "ingest_stream",
    "sample_users",
    "stream_forum_chunks",
    "ValidationIssue",
    "ValidationReport",
    "validate_dataset",
    "RepairReport",
    "repair_dataset",
    "VoteSpamWave",
    "apply_vote_spam",
    "strip_vote_spam",
    "TrafficConfig",
    "TrafficRequest",
    "generate_traffic",
    "derive_rng",
    "scenario_seed_sequence",
    "HOURS_PER_DAY",
    "Post",
    "Thread",
    "DatasetSummary",
    "GraphSummary",
    "answer_activity_cdf",
    "ecdf",
    "median_response_time_by_activity",
    "summarize_dataset",
    "summarize_graphs",
    "vote_time_correlation",
]
