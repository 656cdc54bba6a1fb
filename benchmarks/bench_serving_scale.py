"""Single-process serving at forum scale: ingest, throughput, RSS.

One measurement, recorded in ``BENCH_serving_scale.json``:

* **Serving at 100k users** (``@slow``) — streams a 100k-user forum
  into columnar stores, freezes it into a servable state without ever
  materializing post objects, grafts fitted model heads on top, and
  serves seeded traffic through the async front-end: ingest seconds,
  wall-clock throughput and the peak-RSS high-water mark.  No latency
  is recorded: the run charges no simulated cost (``cost=None``), so
  every query's virtual latency is just the batcher's ``max_wait_s``.
  ``benchmarks/e2e`` measures serving latency in wall-clock time.
"""

import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from _meta import record_bench
from repro import perf
from repro.core import ForumPredictor, OnlineConfig, PredictorConfig
from repro.core.features import FeatureExtractor
from repro.core.serving import (
    BatchPolicy,
    RecommendationService,
    ServiceConfig,
    ServingCore,
    run_load,
)
from repro.core.state import frozen_from_columns
from repro.forum import ForumConfig, ForumDataset
from repro.forum.streaming import ingest_stream
from repro.forum.traffic import TrafficConfig, generate_traffic

RESULT_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_serving_scale.json"
)

SEED = 23
ONLINE_CONFIG = OnlineConfig(
    refit_interval_hours=168.0,
    window_hours=336.0,
    warmup_hours=168.0,
    epsilon=0.25,
)

SCALE_FORUM = ForumConfig(
    n_users=100_000, n_questions=120_000, activity_tail=1.3
)
SCALE_ROSTER = 1500  # most-active answerers serving as the on-call set
SCALE_HEADS = PredictorConfig(
    n_topics=SCALE_FORUM.n_topics,
    vote_epochs=30,
    timing_epochs=30,
    betweenness_sample_size=100,
)


def _graft_predictor(frozen, heads_dataset) -> ForumPredictor:
    """Fitted model heads serving a columnar frozen state.

    The scale path fits nothing at 100k users: topics and the three
    heads come from the (small) object forum, and the extractor is
    re-bound onto the streamed state's tables — exactly what a
    production system does when training and serving state diverge.
    """
    predictor = ForumPredictor(SCALE_HEADS).fit(heads_dataset)
    extractor = FeatureExtractor.__new__(FeatureExtractor)
    extractor._bind(frozen, predictor.topics, ForumDataset([]))
    predictor.extractor = extractor
    predictor._horizon_reference = max(
        frozen.duration_hours, heads_dataset.duration_hours
    )
    return predictor


@pytest.mark.slow
def test_serving_100k_users(dataset):
    """Single-process serving on a streamed 100k-user forum."""
    with perf.use_registry():
        start = time.perf_counter()
        log, questions, report = ingest_stream(
            SCALE_FORUM, seed=0, chunk_questions=20_000
        )
        ingest_s = time.perf_counter() - start
    assert report.n_users >= 100_000
    frozen = frozen_from_columns(log, questions)
    predictor = _graft_predictor(frozen, dataset)

    # The on-call roster: the streamed forum's most active answerers.
    users = log.column("user")
    uniq, counts = np.unique(users, return_counts=True)
    roster = uniq[np.argsort(-counts, kind="stable")][:SCALE_ROSTER]
    roster = np.sort(roster).tolist()

    traffic = generate_traffic(
        dataset,
        TrafficConfig(
            n_askers=200, n_events=40, duration_s=30.0, seed=SEED + 1
        ),
    )
    core = ServingCore.from_artifacts(
        predictor,
        roster,
        online_config=replace(ONLINE_CONFIG, warmup_hours=0.0),
    )
    service = RecommendationService(
        core,
        ServiceConfig(
            batch=BatchPolicy(max_batch=8, max_wait_s=0.01), cost=None
        ),
    )
    load = run_load(service, traffic, settle_s=1.0)
    ok = load.query_statuses.get("ok", 0)
    assert ok > 0
    cores = os.cpu_count() or 1

    payload = {
        "forum": {
            "n_users": SCALE_FORUM.n_users,
            "n_questions": SCALE_FORUM.n_questions,
        },
        "n_answers": report.n_answers,
        "ingest_seconds": round(ingest_s, 2),
        "roster_size": len(roster),
        "n_queries": sum(1 for r in traffic if r.kind == "query"),
        "cpu_count": cores,
        "wall_s": round(load.wall_s, 3),
        "requests_per_wall_s": round(load.requests_per_wall_s, 2),
        "ok": ok,
        "peak_rss_bytes": perf.peak_rss_bytes(),
    }
    record_bench(RESULT_PATH, "serving_100k", payload, seed=SEED)
    print(
        f"\nServing at 100k users ({cores} cores): "
        f"{load.requests_per_wall_s:.1f} req/s over {load.wall_s:.2f}s wall"
    )
