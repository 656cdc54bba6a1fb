"""The three traffic mixes of the end-to-end benchmark.

Every workload builds a synthetic forum, warms fresh
:class:`RecommendationService` instances on its history (the timed
``setup_s``), then drives requests through the last one on a real-time
asyncio loop with ``ServiceConfig(cost=None)``: no virtual clock and no
cost model, so every latency below is measured on the wall clock.

* ``dense_steady`` — forum L, dense routing, paced queries at
  moderate load.  Featurization and the three model heads do almost
  all of the query work.
* ``two_stage_burst`` — forum L with two-stage retrieval, whose pool
  holds well under half of the candidates, and queries arriving in
  clumps that the micro-batcher coalesces, at a load far below
  capacity, so the retrieval generators and fused batch scoring sit on
  the measured path.
* ``refit_churn`` — forum M on a 24-hour refit grid.  The rest of the
  forum streams through the service in compressed forum time: each
  question is routed at its due time and its answered thread is
  submitted as an event after the response, so appends and refits
  stall the queries sharing the one serving loop.

The forum is built from ``FORUM_SEED``, the same for every run; the run
seed draws the traffic (arrival times and the order questions are
asked in).  So every seed does the same work and the spread between
runs is timing noise, not a difference between forums.

A run is many short cycles of an open-loop segment and a closed-loop
segment (plus, for the query workloads, an ingest segment), so every
metric samples the whole run.  Load comes from one process and one
event loop.  Open-loop latency is timed from each request's *due* time,
so a stalled loop is charged to every request it delays; how late the
generator itself ran is reported as a diagnostic.

Every interval is timed on the wall clock and then scaled to a fixed
CPU speed by :class:`hostspeed.SpeedProbe`, which samples the speed of
the core throughout the run; the unscaled figures are diagnostics.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import itertools
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import perf
from repro.core import OnlineConfig, PredictorConfig
from repro.core.retrieval import RetrievalConfig
from repro.core.serving import (
    RecommendationService,
    RouteResponse,
    ServiceConfig,
    ServingCore,
)
from repro.core.serving.service import OnlineReport
from repro.forum.dataset import ForumDataset
from repro.forum.generator import ForumConfig, generate_forum
from repro.forum.models import Thread
from repro.forum.traffic import derive_rng
from repro.ml.ranking import mean_reciprocal_rank

from hostspeed import SpeedProbe

__all__ = ["SCALES", "WORKLOADS", "Result", "run_workload"]

QUERY_SLO_S = 0.1
N_CLIENTS = 8
FLOAT_REL_TOL = 1e-9
SERVED_QUERY_STATUSES = ("ok", "no_recommendation", "no_candidates")

PREDICTOR = PredictorConfig(betweenness_sample_size=200)
# Seed of both synthetic forums.  It is fixed, so every run seed does
# the same work; the run seed draws only the traffic.
FORUM_SEED = 0

# Forum L runs on the default refit grid (every 120 h over a 480 h
# window).  Its history ends at 300 h, so each warm-up refits at 120
# and 240 h, and the next grid point (360 h) lies past every held-out
# question: no refit runs while the query path is timed.
L_HISTORY_END_H = 300.0
DENSE = OnlineConfig(epsilon=0.25)
TWO_STAGE = OnlineConfig(epsilon=0.25, retrieval=RetrievalConfig())
# Forum M refits every 24 h over a one-week window; its history ends on
# the 240 h grid point and the rest of the forum is the stream.
M_HISTORY_END_H = 240.0
CHURN = OnlineConfig(
    epsilon=0.25,
    retrieval=RetrievalConfig(),
    refit_interval_hours=24.0,
    window_hours=168.0,
    warmup_hours=168.0,
)

# A run alternates short phases, so every metric samples the whole run
# and a slow spell of a shared machine (one lasts seconds) holds only
# part of any metric's samples.  The forum-L workloads repeat a
# cycle of about CYCLE_S seconds, split by QUERY_PHASES into open-loop
# queries, closed-loop queries and an open-loop ingest.  refit_churn
# repeats one refit interval of forum time streamed open-loop, then one
# streamed as fast as the clients go; its open intervals fill
# CHURN_OPEN_SHARE of --seconds.  Both phases stream whole intervals, so
# every run stalls on the same number of refits.
CYCLE_S = 2.0
QUERY_PHASES = {"open": 0.45, "closed": 0.25, "ingest": 0.3}
CHURN_OPEN_SHARE = 0.7

# Fixed arrival rates (requests per wall second), so the offered load
# does not depend on how fast the code under test is.  Open-loop
# arrivals are paced: one per 1/rate slot, at a seeded uniform time
# within its slot.  Unlike a Poisson process, paced arrivals rarely
# queue behind each other, so how many requests wait for another is
# nearly the same for every seed.  two_stage_burst's queries arrive in
# clumps of CLUMP_SIZE within CLUMP_SPREAD_S, well inside the batcher's
# wait window, so they coalesce into one batch; clump starts are paced.
# Load stays far below capacity, so a slow spell of the machine does
# not build a queue.  The ingest segments of a run submit every
# held-out thread once, so every run ingests the same threads.
DENSE_QPS = 20.0
CLUMPS_PER_S = 8.0
CLUMP_SIZE = 4
CLUMP_SPREAD_S = 0.001
# refit_churn's questions arrive at their forum times, compressed
# linearly, each shifted by a seeded uniform delay of at most this.
CHURN_JITTER_S = 0.01


@dataclass(frozen=True)
class Scale:
    """Forum sizes and set-up repeats of one benchmark scale."""

    forum_l: ForumConfig
    forum_m: ForumConfig
    # Warm-ups timed per untraced run; setup_s is their median.
    setups: int
    # Forum hours streamed per wall second in refit_churn's open loop.
    churn_hours_per_s: float


# Forum L spreads its answers over many users with a flat activity
# tail, so it has more than twice as many answer candidates as the
# two-stage pool holds (RetrievalConfig.pool_size) while staying cheap
# to warm.
SCALES = {
    "full": Scale(
        forum_l=ForumConfig(n_users=8000, n_questions=3000, activity_tail=0.5),
        forum_m=ForumConfig(n_users=1500, n_questions=2400, activity_tail=1.4),
        setups=3,
        churn_hours_per_s=6.0,
    ),
    "smoke": Scale(
        forum_l=ForumConfig(n_users=700, n_questions=900, activity_tail=1.4),
        forum_m=ForumConfig(n_users=700, n_questions=900, activity_tail=1.4),
        setups=1,
        churn_hours_per_s=24.0,
    ),
}


@dataclass
class Request:
    """One request sent during a timed phase, and what came back."""

    phase: str  # "open" | "closed" | "ingest"
    cycle: int
    kind: str  # "query" | "event"
    source: int  # index of the source thread in the workload's list
    due: float
    sent: float = float("nan")
    done: float = float("nan")
    response: object = None
    error: str = ""

    @property
    def failed(self) -> bool:
        """Raised, or refused by admission control."""
        return bool(self.error) or self.response.status == "rejected"


@dataclass
class Result:
    """Everything one workload run measured and checked."""

    metrics: dict[str, float]
    diagnostics: dict[str, object]
    checks: list[tuple[str, bool, str]]
    attempted: int
    failed: int
    service: RecommendationService
    # Questions the tracing overhead measurement may route again.
    questions: list[Thread] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


# -- forum and set-up ---------------------------------------------------------


def build_forum(config: ForumConfig, seed: int) -> list[Thread]:
    """The preprocessed forum, in question-time order."""
    dataset, _ = generate_forum(config, seed=seed).dataset.preprocess()
    return sorted(dataset, key=lambda t: t.created_at)


# (start, end) of a timed stretch, on time.monotonic(), the clock of
# the asyncio loop and of the speed probe.
Interval = tuple[float, float]


def _timed(fn: Callable, sink: list[Interval]) -> Callable:
    def timed(*args, **kwargs):
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append((start, time.monotonic()))

    return timed


def warm_service(
    history: list[Thread],
    online: OnlineConfig,
    setups: int,
    refits: list[Interval],
) -> tuple[RecommendationService, list[Interval]]:
    """Warm ``setups`` fresh services on ``history``; keep the last.

    Every refit goes through the public ``ServingCore.refit_hook``,
    wrapped here to record its interval into ``refits``; each warm-up's
    bootstrap refit is left out.
    """
    dataset = ForumDataset(history)
    warmups: list[Interval] = []
    service = None
    for _ in range(setups):
        if service is not None:
            service.core.close()
            service = None
        # Every warm-up starts from the same heap: the previous service
        # is collected before the clock starts, not during the next one.
        gc.collect()
        service, interval = _warm_once(dataset, online, refits)
        warmups.append(interval)
    if not service.core.warmed:
        raise RuntimeError("history too short to warm the service")
    return service, warmups


def _warm_once(dataset, online, refits):
    core = ServingCore(PREDICTOR, online)
    core.refit_hook = _timed(core.refit_hook, refits)
    service = RecommendationService(core, ServiceConfig(cost=None))
    first = len(refits)
    start = time.monotonic()
    service.warm(dataset)
    interval = (start, time.monotonic())
    # The bootstrap refit also fits topics and builds the state; only
    # the periodic refits that follow it count towards refit_p50_s.
    del refits[first]
    return service, interval


class Reasker:
    """Question-only copies of threads under fresh thread and post ids.

    A re-asked question keeps its asker, body, votes and timestamp, so
    it routes exactly like its source; the fresh ids keep every query a
    distinct ``(user, thread)`` key.
    """

    def __init__(self, threads: list[Thread]):
        self.next_thread = max(t.thread_id for t in threads) + 1
        self.next_post = max(p.post_id for t in threads for p in t.posts) + 1

    def __call__(self, thread: Thread) -> Thread:
        question = dataclasses.replace(
            thread.question,
            post_id=self.next_post,
            thread_id=self.next_thread,
        )
        self.next_thread += 1
        self.next_post += 1
        return Thread(question)


# -- arrival schedules --------------------------------------------------------


def paced_offsets(
    rng: np.random.Generator, count: int, duration: float
) -> np.ndarray:
    """``count`` sorted arrival offsets over ``[0, duration)``: one in
    each of ``count`` equal slots, uniform within it."""
    slot = duration / max(count, 1)
    return (np.arange(count) + rng.uniform(0.0, 1.0, count)) * slot


def rate_offsets(
    rng: np.random.Generator, rate: float, duration: float
) -> np.ndarray:
    """Paced arrivals at ``rate`` per second over ``[0, duration)``."""
    return paced_offsets(rng, max(1, round(rate * duration)), duration)


def clump_offsets(rng: np.random.Generator, duration: float) -> np.ndarray:
    """``CLUMP_SIZE`` arrivals within ``CLUMP_SPREAD_S`` of each clump
    start; clump starts are paced at ``CLUMPS_PER_S``."""
    starts = rate_offsets(rng, CLUMPS_PER_S, duration)
    jitter = rng.uniform(0.0, CLUMP_SPREAD_S, (len(starts), CLUMP_SIZE))
    return np.sort((starts[:, None] + jitter).ravel())


# -- asyncio load generators --------------------------------------------------


async def _call(request: Request, send, payload) -> None:
    loop = asyncio.get_running_loop()
    request.sent = loop.time()
    try:
        request.response = await send(payload)
    except Exception:  # noqa: BLE001 — one failed request must not end the run
        request.error = traceback.format_exc(limit=4)
    request.done = loop.time()


async def open_loop(offsets: np.ndarray, fire) -> None:
    """Call ``fire(i, due)`` as its own task at each due time; wait for all.

    One generator coroutine sleeps until each due time, so a loop stall
    makes it late and every request it delays is charged from its due
    time, not from when it was finally sent.
    """
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    tasks = []
    for i, offset in enumerate(offsets):
        due = t0 + float(offset)
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(fire(i, due)))
    await asyncio.gather(*tasks)


async def closed_loop(duration: float, step) -> None:
    """``N_CLIENTS`` clients each await ``step()`` back to back until
    ``duration`` has passed or ``step`` returns False."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + duration

    async def client():
        while loop.time() < deadline and await step():
            pass

    await asyncio.gather(*(client() for _ in range(N_CLIENTS)))


# -- metrics ------------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def _p99(values) -> float:
    return float(np.percentile(values, 99)) if values else float("nan")


def _batcher_totals(service: RecommendationService) -> np.ndarray:
    """(queries admitted, batches dispatched) so far."""
    queries = service.metrics()["queries"]
    return np.array([queries["admitted"], queries["batches"]])


def _mean_batch(totals: np.ndarray) -> float:
    return float(totals[0] / totals[1]) if totals[1] else float("nan")


def _timings(
    span: Callable[[float, float], float],
    requests: list[Request],
    warmups: list[Interval],
    refits: list[Interval],
    steps: list[Interval],
) -> dict[str, float]:
    """The timing metrics of one run, each interval measured by ``span``.

    ``steps`` are the closed-loop client steps.  Closed-loop throughput
    follows Little's law: ``N_CLIENTS`` over the median step.
    """
    open_queries = [
        r for r in requests if r.phase == "open" and r.kind == "query"
    ]
    latencies = [span(r.due, r.done) for r in open_queries if not r.failed]
    event_latencies = [
        span(r.due, r.done)
        for r in requests
        if r.kind == "event" and r.phase != "closed" and not r.failed
    ]
    return {
        "setup_s": _median([span(*i) for i in warmups]),
        "query_p50_ms": _median(latencies) * 1e3,
        "query_slo_frac": (
            sum(1 for lat in latencies if lat <= QUERY_SLO_S)
            / max(1, len(open_queries))
        ),
        "saturation_qps": N_CLIENTS / _median([span(*i) for i in steps]),
        "refit_p50_s": _median([span(*i) for i in refits]),
        "event_p50_ms": _median(event_latencies) * 1e3,
        "query_p99_ms": _p99(latencies) * 1e3,
        "query_p99_samples": len(latencies),
        "event_p99_ms": _p99(event_latencies) * 1e3,
    }


def _measure(
    probe: SpeedProbe,
    requests: list[Request],
    warmups: list[Interval],
    refits: list[Interval],
    steps: list[Interval],
) -> tuple[dict, dict]:
    """End-to-end metrics scaled to the reference speed, and diagnostics
    that include the same figures unscaled."""
    timings = _timings(probe.scaled, requests, warmups, refits, steps)
    unscaled = _timings(lambda a, b: b - a, requests, warmups, refits, steps)
    metrics = {
        name: timings.pop(name)
        for name in (
            "setup_s", "query_p50_ms", "query_slo_frac", "saturation_qps",
            "refit_p50_s", "event_p50_ms",
        )
    }
    late = [r.sent - r.due for r in requests if r.phase != "closed"]
    statuses: dict[str, int] = {}
    for r in requests:
        key = f"{r.kind}:{'error' if r.error else r.response.status}"
        statuses[key] = statuses.get(key, 0) + 1
    errors = [r.error for r in requests if r.error]
    timed = [r for r in requests if r.phase == "open" and not r.failed]
    diagnostics = {
        **timings,
        "generator_late_p99_ms": _p99(late) * 1e3,
        "statuses": statuses,
        "unscaled": unscaled,
        "speed_setup": _median([probe.speed(*i) for i in warmups]),
        "speed_open": _median([probe.speed(r.due, r.done) for r in timed]),
        "probe_samples": probe.samples(),
        "setup_runs_s": [b - a for a, b in warmups],
        "refit_runs_s": [b - a for a, b in refits],
    }
    if errors:
        diagnostics["first_error"] = errors[0]
    return metrics, diagnostics


def _quality(pairs: list[tuple[Thread, RouteResponse]]) -> dict:
    """MRR@5 of true answerers in ``ranked`` and mean LP objective."""
    rankings = [(r.ranked, set(t.answerers)) for t, r in pairs]
    scores = [r.score for _, r in pairs if r.score is not None]
    return {
        "mrr5": mean_reciprocal_rank(rankings) if rankings else float("nan"),
        "lp_objective_mean": float(np.mean(scores)) if scores else float("nan"),
    }


def _close(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=FLOAT_REL_TOL, abs_tol=FLOAT_REL_TOL)


def _same_route(a: RouteResponse, b: RouteResponse) -> bool:
    """Same status, ranking and routed users; floats equal to 1e-9.

    Batched scoring stacks several questions' rows into one matrix, and
    the heads' BLAS products then differ from one-question scoring in
    the last bits, so scores are compared to a relative tolerance.
    """
    return (
        a.status == b.status
        and a.ranked == b.ranked
        and [u for u, _ in a.routed] == [u for u, _ in b.routed]
        and all(_close(p, q) for (_, p), (_, q) in zip(a.routed, b.routed))
        and _close(a.score, b.score)
    )


def grid_crossings(next_refit: float, interval: float, times) -> int:
    """Refits the fixed grid owes a stream that reaches ``times``."""
    count = 0
    for t in sorted(times):
        if t >= next_refit:
            count += 1
            while next_refit <= t:
                next_refit += interval
    return count


def pool_fraction(core: ServingCore, questions: list[Thread]) -> float:
    """Mean share of a question's candidates that the heads score.

    The useful-work ratio of two-stage retrieval (1 for dense routing),
    from the public query preparation step on the core's final state.
    """
    shares = []
    for thread in questions:
        prepared, _ = core.prepare_query(
            thread, thread.created_at, OnlineReport()
        )
        if prepared is not None:
            shares.append(
                len(prepared.rank_candidates) / len(prepared.candidates)
            )
    return statistics.fmean(shares) if shares else float("nan")


def _result(metrics, diagnostics, checks, requests, service, questions):
    metrics["peak_rss_mb"] = perf.peak_rss_bytes() / 2**20
    diagnostics["pool_frac"] = pool_fraction(service.core, questions)
    diagnostics["rejected"] = sum(
        1 for r in requests if not r.error and r.response.status == "rejected"
    )
    return Result(
        metrics=metrics,
        diagnostics=diagnostics,
        checks=checks,
        attempted=len(requests),
        failed=sum(1 for r in requests if r.failed),
        service=service,
        questions=questions,
    )


# -- workloads ----------------------------------------------------------------


def _query_workload(
    name: str,
    online: OnlineConfig,
    offsets_fn: Callable[[np.random.Generator, float], np.ndarray],
    seed: int,
    seconds: float,
    scale: Scale,
    setups: int,
    speed: SpeedProbe,
) -> Result:
    """dense_steady and two_stage_burst: cycles of open-loop queries,
    closed-loop queries and an ingest of held-out threads as events."""
    forum = build_forum(scale.forum_l, FORUM_SEED)
    history = [t for t in forum if t.created_at < L_HISTORY_END_H]
    refits: list[Interval] = []
    service, warmups = warm_service(history, online, setups, refits)
    core = service.core
    # Held-out answered questions that no refit grid point separates
    # from the history: routing them never triggers a refit.
    held = [
        t for t in forum
        if L_HISTORY_END_H <= t.created_at < core.next_refit
    ]
    if not held:
        raise RuntimeError("no held-out questions before the next refit")
    rng = derive_rng(seed, f"e2e/{name}")
    n_cycles = max(1, round(seconds / CYCLE_S))
    segment_s = {k: v * seconds / n_cycles for k, v in QUERY_PHASES.items()}
    reask = Reasker(forum)
    # Queries cycle through the held-out questions in a seeded order.
    rotation = itertools.cycle(rng.permutation(len(held)).tolist())
    # Every held-out thread is ingested once, in time order, spread
    # evenly over the cycles' ingest segments.
    ingest_parts = np.array_split(np.arange(len(held)), n_cycles)
    requests: list[Request] = []
    refits_before = service.report.n_refits
    # replays[c][i]: held[i] routed alone, with the state cycle c saw.
    replays: list[dict[int, RouteResponse]] = []
    open_batching = np.zeros(2, dtype=np.int64)

    async def query(phase: str, cycle: int, due: float):
        source = next(rotation)
        request = Request(phase, cycle, "query", source, due)
        requests.append(request)
        await _call(request, service.route_question, reask(held[source]))

    async def main():
        nonlocal open_batching
        loop = asyncio.get_running_loop()
        await service.start()
        try:
            for cycle in range(n_cycles):
                offsets = offsets_fn(rng, segment_s["open"])
                before = _batcher_totals(service)
                await open_loop(
                    offsets, lambda i, due: query("open", cycle, due)
                )
                open_batching += _batcher_totals(service) - before

                async def closed_step():
                    await query("closed", cycle, loop.time())
                    return True

                await closed_loop(segment_s["closed"], closed_step)
                # Sequential reference for the correctness gate, taken
                # before this cycle's ingest moves the state and the
                # load tracker the LP reads: every question the cycle
                # asked (the first cycle: every held-out question, which
                # also gives the routing quality).
                asked = (
                    range(len(held)) if cycle == 0 else sorted(
                        {r.source for r in requests
                         if r.cycle == cycle and r.kind == "query"}
                    )
                )
                report = OnlineReport()
                replays.append(
                    {
                        i: core.route(
                            reask(held[i]), held[i].created_at, report
                        )
                        for i in asked
                    }
                )
                part = ingest_parts[cycle]

                async def ingest(i: int, due: float):
                    source = int(part[i])
                    request = Request("ingest", cycle, "event", source, due)
                    requests.append(request)
                    await _call(request, service.submit_event, held[source])

                await open_loop(
                    paced_offsets(rng, len(part), segment_s["ingest"]), ingest
                )
        finally:
            await service.stop()

    gc.collect()
    asyncio.run(main())
    speed.stop()

    queries = [r for r in requests if r.kind == "query" and not r.failed]
    metrics, diagnostics = _measure(
        speed, requests, warmups, refits,
        [(r.due, r.done) for r in queries if r.phase == "closed"],
    )
    mismatched = [
        r for r in queries
        if not _same_route(r.response, replays[r.cycle][r.source])
    ]
    events = [r for r in requests if r.kind == "event" and not r.failed]
    not_admitted = [r for r in events if r.response.status != "admitted"]
    timed_refits = service.report.n_refits - refits_before
    checks = [
        (
            "served responses equal sequential ServingCore.route",
            not mismatched,
            f"{len(mismatched)} of {len(queries)} differ",
        ),
        ("no refit while timing", timed_refits == 0, f"{timed_refits} refits"),
        (
            "every ingested event admitted",
            not not_admitted,
            f"{len(not_admitted)} of {len(events)} not admitted",
        ),
    ]
    diagnostics.update(
        _quality([(held[i], response) for i, response in replays[0].items()])
    )
    diagnostics.update(
        candidates=len(core._candidates),
        history_threads=len(history),
        held_out=len(held),
        n_refits=service.report.n_refits,
        mean_batch_size=service.metrics()["queries"]["mean_batch_size"],
        open_batch_size=_mean_batch(open_batching),
    )
    questions = [reask(t) for t in held]
    return _result(metrics, diagnostics, checks, requests, service, questions)


def dense_steady(seed, seconds, scale, setups, speed) -> Result:
    return _query_workload(
        "dense_steady",
        DENSE,
        lambda rng, s: rate_offsets(rng, DENSE_QPS, s),
        seed, seconds, scale, setups, speed,
    )


def two_stage_burst(seed, seconds, scale, setups, speed) -> Result:
    return _query_workload(
        "two_stage_burst", TWO_STAGE, clump_offsets,
        seed, seconds, scale, setups, speed,
    )


def refit_churn(seed, seconds, scale, setups, speed) -> Result:
    """Stream the rest of forum M: route each question, then ingest it."""
    forum = build_forum(scale.forum_m, FORUM_SEED)
    history = [t for t in forum if t.created_at < M_HISTORY_END_H]
    stream = [t for t in forum if t.created_at >= M_HISTORY_END_H]
    refits: list[Interval] = []
    service, warmups = warm_service(history, CHURN, setups, refits)
    core = service.core
    # The stream starts on a grid point (M_HISTORY_END_H) and every
    # segment streams one refit interval of forum time, open-loop and
    # closed-loop in turn.
    interval_h = CHURN.refit_interval_hours
    interval_s = interval_h / scale.churn_hours_per_s
    n_cycles = max(1, round(CHURN_OPEN_SHARE * seconds / interval_s))
    hours = np.array([t.created_at for t in stream])
    bounds = []  # (phase, first index, end index, forum hour it starts at)
    for k in range(2 * n_cycles):
        start_h = M_HISTORY_END_H + k * interval_h
        first, end = np.searchsorted(hours, [start_h, start_h + interval_h])
        phase = "closed" if k % 2 else "open"
        bounds.append((phase, int(first), int(end), start_h))
    rng = derive_rng(seed, "e2e/refit_churn")
    refits_before = service.report.n_refits
    grid_before = core.next_refit
    requests: list[Request] = []
    open_batching = np.zeros(2, dtype=np.int64)

    async def route_then_ingest(phase: str, cycle: int, i: int, due: float):
        thread = stream[i]
        query = Request(phase, cycle, "query", i, due)
        requests.append(query)
        await _call(query, service.route_question, Thread(thread.question))
        event = Request(
            phase, cycle, "event", i, asyncio.get_running_loop().time()
        )
        requests.append(event)
        await _call(event, service.submit_event, thread)

    async def main():
        nonlocal open_batching
        loop = asyncio.get_running_loop()
        await service.start()
        try:
            for k, (phase, first, end, start_h) in enumerate(bounds):
                cycle = k // 2
                if phase == "open":
                    # The interval's questions, in forum order, at their
                    # compressed forum times plus a seeded jitter.
                    offsets = np.sort(
                        (hours[first:end] - start_h) / scale.churn_hours_per_s
                        + rng.uniform(0.0, CHURN_JITTER_S, end - first)
                    )
                    before = _batcher_totals(service)
                    await open_loop(
                        offsets,
                        lambda i, due: route_then_ingest(
                            "open", cycle, first + i, due
                        ),
                    )
                    open_batching += _batcher_totals(service) - before
                    continue
                if end == first:  # the stream ran out
                    continue
                position = iter(range(first, end))

                async def closed_step():
                    i = next(position, None)
                    if i is None:
                        return False
                    await route_then_ingest("closed", cycle, i, loop.time())
                    return True

                await closed_loop(math.inf, closed_step)
        finally:
            await service.stop()

    gc.collect()
    asyncio.run(main())
    speed.stop()

    served = [r for r in requests if not r.failed]
    queries = [r for r in served if r.kind == "query"]
    events = [r for r in served if r.kind == "event"]
    # A closed-loop step routes a question, then ingests its thread.
    ingested = {r.source: r.done for r in events if r.phase == "closed"}
    metrics, diagnostics = _measure(
        speed, requests, warmups, refits,
        [
            (r.due, ingested[r.source])
            for r in queries
            if r.phase == "closed" and r.source in ingested
        ],
    )
    bad_queries = [
        r for r in queries if r.response.status not in SERVED_QUERY_STATUSES
    ]
    not_admitted = [r for r in events if r.response.status != "admitted"]
    expected = grid_crossings(
        grid_before,
        interval_h,
        [stream[r.source].created_at for r in served],
    )
    timed_refits = service.report.n_refits - refits_before
    checks = [
        (
            "every event admitted",
            not not_admitted,
            f"{len(not_admitted)} of {len(events)} not admitted",
        ),
        (
            "one refit per grid crossing",
            timed_refits == expected,
            f"{timed_refits} refits, {expected} grid crossings",
        ),
        (
            "every query served",
            not bad_queries,
            f"{len(bad_queries)} of {len(queries)} with another status",
        ),
    ]
    diagnostics.update(
        _quality([(stream[r.source], r.response) for r in queries])
    )
    diagnostics.update(
        candidates=len(core._candidates),
        history_threads=len(history),
        streamed=len({r.source for r in served}),
        stream_available=len(stream),
        n_refits_timed=timed_refits,
        mean_batch_size=service.metrics()["queries"]["mean_batch_size"],
        open_batch_size=_mean_batch(open_batching),
    )
    # Routing a question already streamed triggers no refit: route()
    # never consults the grid.
    questions = [Thread(stream[r.source].question) for r in queries[:200]]
    return _result(metrics, diagnostics, checks, requests, service, questions)


WORKLOADS = {
    "dense_steady": dense_steady,
    "two_stage_burst": two_stage_burst,
    "refit_churn": refit_churn,
}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    scale: str,
    setups: int | None = None,
) -> Result:
    """Run one workload; ``setups`` defaults to the scale's count.

    The speed probe samples from before the first warm-up until the
    workload stops it, after its timed segments.
    """
    spec = SCALES[scale]
    with SpeedProbe() as speed:
        return WORKLOADS[name](
            seed, seconds, spec, spec.setups if setups is None else setups,
            speed,
        )
