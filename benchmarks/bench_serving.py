"""Concurrent serving-stack load: queueing behaviour under bursty traffic.

Warms one :class:`ServingCore` on the benchmark forum, then drives
seeded bursty traffic through the async
:class:`RecommendationService` under the virtual clock.  Every latency
on the virtual axis is a :class:`CostModel` charge, a deterministic
queueing model rather than a measurement, so the records name those
blocks ``simulated_*``; ``*_wall`` blocks and ``requests_per_wall_s``
are measured.  ``benchmarks/e2e`` measures serving latency in
wall-clock time.

* ``load`` — 1,000 concurrent askers (plus interleaved event
  submissions) over a 60-virtual-second schedule; records simulated
  p50/p95/p99 query latency and sustained requests/sec on the wall
  axis.
* ``bit_identity`` — the serving-stack contract: micro-batched routing
  must reproduce one-at-a-time routing response for response, and a
  repeated run must reproduce itself everywhere but wall-clock.
* ``overload`` — a deliberately undersized admission queue against the
  same burst; load shedding must engage (rejections > 0) while every
  admitted query is still served.
* ``full_load`` (``@slow``) — a 5,000-asker run for the full lane.

All sections land in ``BENCH_serving.json`` under the shared
``benchmarks/_meta.py`` header.
"""

from pathlib import Path

import pytest

from _meta import record_bench

from repro.core import OnlineConfig
from repro.core.serving import (
    AdmissionConfig,
    BatchPolicy,
    CostModel,
    RecommendationService,
    ServiceConfig,
    ServingCore,
    run_load,
)
from repro.forum.traffic import TrafficConfig, generate_traffic

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

ONLINE_CONFIG = OnlineConfig(
    refit_interval_hours=168.0,
    window_hours=336.0,
    warmup_hours=168.0,
    epsilon=0.25,
)

SEED = 17
N_ASKERS = 1000
N_EVENTS = 200
DURATION_S = 60.0
# Simulated-latency ceiling for the fast-lane smoke: with the default
# cost model a 1k-asker burst must drain without queueing past this.
P99_CEILING_MS = 5000.0


@pytest.fixture(scope="module")
def warm_core(dataset, config):
    core = ServingCore(config, ONLINE_CONFIG)
    RecommendationService(core).warm(dataset)
    assert core.warmed, "benchmark forum failed to warm the serving core"
    return core


def make_service(core, **overrides):
    return RecommendationService(core, ServiceConfig(**overrides))


def latency_block(metrics, key):
    block = metrics[key]
    return {
        stat: block[stat]
        for stat in ("count", "p50_ms", "p95_ms", "p99_ms", "mean_ms")
        if stat in block
    }


def test_serving_load(warm_core, dataset):
    traffic = generate_traffic(
        dataset,
        TrafficConfig(
            n_askers=N_ASKERS,
            n_events=N_EVENTS,
            duration_s=DURATION_S,
            seed=SEED,
        ),
    )
    service = make_service(warm_core)
    report = run_load(service, traffic)
    metrics = report.metrics
    latency = metrics["query_latency"]

    # Smoke criteria: the stack sustained real throughput and bounded
    # virtual tail latency on the full 1k-asker burst.
    assert report.n_queries == N_ASKERS
    assert report.requests_per_wall_s > 0
    assert latency["count"] == metrics["queries"]["admitted"]
    assert latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]
    assert latency["p99_ms"] < P99_CEILING_MS
    served = sum(report.query_statuses.values())
    assert served == report.n_queries
    assert report.query_statuses.get("ok", 0) > 0.9 * N_ASKERS

    record_bench(
        RESULT_PATH,
        "load",
        {
            "n_askers": N_ASKERS,
            "n_events": N_EVENTS,
            "duration_virtual_s": DURATION_S,
            "traffic_seed": SEED,
            "simulated_query_latency": latency_block(
                metrics, "query_latency"
            ),
            "simulated_event_latency": latency_block(
                metrics, "event_latency"
            ),
            "wall_s": round(report.wall_s, 4),
            "requests_per_wall_s": round(report.requests_per_wall_s, 2),
            "query_statuses": dict(report.query_statuses),
            "event_statuses": dict(report.event_statuses),
            "rejected": report.n_rejected,
            "degraded": report.n_degraded,
            "batches": metrics["queries"]["batches"],
            "mean_batch_size": metrics["queries"]["mean_batch_size"],
            "degradation": metrics["degradation"],
        },
        seed=SEED,
    )


def test_serving_bit_identity(warm_core, dataset):
    traffic = generate_traffic(
        dataset,
        TrafficConfig(
            n_askers=300, n_events=0, duration_s=20.0, seed=SEED + 1
        ),
    )

    def run(max_batch):
        service = make_service(
            warm_core,
            batch=BatchPolicy(max_batch=max_batch, max_wait_s=0.002),
        )
        return run_load(service, traffic)

    sequential = run(max_batch=1)
    batched = run(max_batch=8)
    repeated = run(max_batch=8)

    # Batched == sequential, response for response.
    for a, b in zip(sequential.responses, batched.responses):
        assert a.status == b.status
        assert a.ranked == b.ranked
        assert a.routed == b.routed
        assert a.score == b.score
    # Batched == itself, everywhere but the wall clock.
    first, second = batched.summary(), repeated.summary()
    for key in ("wall_s", "requests_per_wall_s"):
        first.pop(key), second.pop(key)
    assert first == second

    record_bench(
        RESULT_PATH,
        "bit_identity",
        {
            "n_queries": len(traffic),
            "batched_equals_sequential": True,
            "repeat_run_identical": True,
            "sequential_batches": sequential.metrics["queries"]["batches"],
            "batched_batches": batched.metrics["queries"]["batches"],
            "mean_batch_size": batched.metrics["queries"]["mean_batch_size"],
        },
        seed=SEED + 1,
    )


def test_serving_overload_sheds(warm_core, dataset):
    traffic = generate_traffic(
        dataset,
        TrafficConfig(
            n_askers=400,
            n_events=0,
            duration_s=10.0,
            burst_fraction=0.9,
            n_bursts=2,
            seed=SEED + 2,
        ),
    )
    service = make_service(
        warm_core,
        admission=AdmissionConfig(max_pending_queries=32),
        batch=BatchPolicy(max_batch=4, max_wait_s=0.001),
        cost=CostModel(query_batch_s=0.01, query_s=0.02),
    )
    report = run_load(service, traffic)
    rejected = report.query_statuses.get("rejected", 0)
    served = sum(
        count
        for status, count in report.query_statuses.items()
        if status != "rejected"
    )
    assert rejected > 0, "a 90%-bursty 400-wide load must overflow depth 32"
    assert served > 0
    assert rejected + served == len(traffic)

    record_bench(
        RESULT_PATH,
        "overload",
        {
            "n_queries": len(traffic),
            "max_pending_queries": 32,
            "rejected": rejected,
            "served": served,
            "simulated_query_latency": latency_block(
                report.metrics, "query_latency"
            ),
        },
        seed=SEED + 2,
    )


def test_serving_phase_breakdown(warm_core, dataset):
    """Where a query's latency goes: admission / batch wait / predict / LP.

    A bursty 300-asker run against a deliberately shallow *blocking*
    admission queue, so every phase of the pipeline actually shows up:
    submitters wait for admission, admitted queries wait for their
    micro-batch, the batch is featurized and scored (``online.rank``),
    and the LP routing tail runs per query (``online.route``).  The
    stage timers already exist in the hot path; this section just reads
    them back as a per-phase budget.
    """
    from repro import perf

    traffic = generate_traffic(
        dataset,
        TrafficConfig(
            n_askers=300,
            n_events=0,
            duration_s=8.0,
            burst_fraction=0.9,
            n_bursts=2,
            seed=SEED + 4,
        ),
    )
    service = make_service(
        warm_core,
        admission=AdmissionConfig(
            max_pending_queries=16, query_overflow="block"
        ),
        batch=BatchPolicy(max_batch=8, max_wait_s=0.005),
        cost=CostModel(query_batch_s=0.01, query_s=0.02),
    )
    with perf.use_registry() as registry:
        report = run_load(service, traffic)
    metrics = report.metrics

    admission = registry.histogram("serving.admission_wait")
    assert admission.count > 0, "blocking queue depth 16 must backpressure"
    rank = registry.stage("online.rank")
    route = registry.stage("online.route")
    assert rank.calls > 0 and route.calls > 0
    assert metrics["batch_wait"]["count"] > 0
    assert report.query_statuses.get("ok", 0) > 0

    def stage_block(stat):
        return {
            "calls": stat.calls,
            "total_s": round(stat.total_seconds, 6),
            "mean_ms": round(
                (stat.total_seconds / stat.calls) * 1e3, 4
            )
            if stat.calls
            else 0.0,
        }

    record_bench(
        RESULT_PATH,
        "phase_breakdown",
        {
            "n_queries": len(traffic),
            "simulated_admission_wait": {
                "count": admission.count,
                "p50_ms": round(admission.percentile(50) * 1e3, 4),
                "p99_ms": round(admission.percentile(99) * 1e3, 4),
                "mean_ms": round(admission.mean * 1e3, 4),
            },
            "simulated_batch_wait": latency_block(metrics, "batch_wait"),
            "predict_wall": stage_block(rank),
            "lp_route_wall": stage_block(route),
            "simulated_query_latency": latency_block(
                metrics, "query_latency"
            ),
        },
        seed=SEED + 4,
    )


@pytest.mark.slow
def test_serving_load_full(warm_core, dataset):
    traffic = generate_traffic(
        dataset,
        TrafficConfig(
            n_askers=5000,
            n_events=500,
            duration_s=120.0,
            seed=SEED + 3,
        ),
    )
    service = make_service(warm_core)
    report = run_load(service, traffic)
    metrics = report.metrics
    latency = metrics["query_latency"]
    assert report.requests_per_wall_s > 0
    assert latency["count"] == metrics["queries"]["admitted"]

    record_bench(
        RESULT_PATH,
        "full_load",
        {
            "n_askers": 5000,
            "n_events": 500,
            "duration_virtual_s": 120.0,
            "simulated_query_latency": latency_block(
                metrics, "query_latency"
            ),
            "simulated_event_latency": latency_block(
                metrics, "event_latency"
            ),
            "wall_s": round(report.wall_s, 4),
            "requests_per_wall_s": round(report.requests_per_wall_s, 2),
            "rejected": report.n_rejected,
            "degraded": report.n_degraded,
            "mean_batch_size": metrics["queries"]["mean_batch_size"],
        },
        seed=SEED + 3,
    )
