"""Tests for repro.core.serving — the layered async serving stack.

The equivalence classes at the heart of this file pin the refactor's
contract: the async service drives the exact engine the chronological
replay drives, so a zero-concurrency replay through the service
reproduces :func:`repro.core.online.replay` bit for bit, and a batched run
reproduces a sequential one response for response, bit for bit, from a
120-user forum up to several hundred candidates per question.
"""

import asyncio
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.online import replay
from repro.core.pipeline import ForumPredictor, PredictorConfig
from repro.core.resilience import DegradationReport, ResilienceConfig
from repro.core.retrieval import RetrievalConfig
from repro.core.serving import (
    AdmissionConfig,
    BatchPolicy,
    CostModel,
    IngestGate,
    MicroBatcher,
    RecommendationService,
    ServiceConfig,
    ServingCore,
    VirtualClock,
    run_load,
)
from repro.core.serving.service import OnlineConfig, OnlineReport
from repro.forum.dataset import ForumDataset
from repro.forum.generator import ForumConfig, generate_forum
from repro.forum.models import Post, Thread
from repro.forum.traffic import TrafficConfig, generate_traffic

from ..online_oracle import RebuildCore

FAST_PREDICTOR = PredictorConfig(
    n_topics=2, vote_epochs=30, timing_epochs=30, betweenness_sample_size=50
)
FAST_ONLINE = OnlineConfig(
    refit_interval_hours=96.0, window_hours=360.0, warmup_hours=96.0
)


@pytest.fixture(scope="module")
def stream_dataset():
    forum = generate_forum(
        ForumConfig(n_users=120, n_questions=140, activity_tail=1.4), seed=3
    )
    clean, _ = forum.dataset.preprocess()
    return clean


@pytest.fixture(scope="module")
def plain_report(stream_dataset):
    return replay(ServingCore(FAST_PREDICTOR, FAST_ONLINE), stream_dataset)


@pytest.fixture(scope="module")
def warm_core(stream_dataset):
    """One ServingCore warmed on the full history, shared read-mostly."""
    core = ServingCore(FAST_PREDICTOR, FAST_ONLINE)
    RecommendationService(core).warm(stream_dataset)
    return core


def make_question(tid, author, ts, body="<p>common0 common1</p>"):
    return Thread(
        Post(
            post_id=900000 + tid,
            thread_id=tid,
            author=author,
            timestamp=ts,
            votes=0,
            body=body,
            is_question=True,
        )
    )


class TestVirtualClock:
    def test_sleeps_advance_virtual_not_real_time(self):
        clock = VirtualClock()
        order = []

        async def sleeper(name, delay):
            await asyncio.sleep(delay)
            order.append((name, clock.now()))

        async def main():
            await asyncio.gather(
                sleeper("slow", 30.0), sleeper("fast", 1.0)
            )

        clock.run(main())
        assert [name for name, _ in order] == ["fast", "slow"]
        assert order[0][1] == pytest.approx(1.0)
        assert clock.now() == pytest.approx(30.0)

    def test_loop_time_is_the_virtual_clock(self):
        clock = VirtualClock(start=100.0)

        async def main():
            loop = asyncio.get_running_loop()
            start = loop.time()
            await asyncio.sleep(2.5)
            return start, loop.time()

        start, end = clock.run(main())
        assert start == pytest.approx(100.0)
        assert end == pytest.approx(102.5)

    def test_deadlock_detected(self):
        clock = VirtualClock()

        async def main():
            await asyncio.get_running_loop().create_future()  # never set

        with pytest.raises(RuntimeError, match="deadlock"):
            clock.run(main())


class TestIngestGate:
    def test_reject_policy_sheds_when_full(self):
        gate = IngestGate(
            AdmissionConfig(max_pending_queries=2, query_overflow="reject")
        )

        async def main():
            outcomes = [await gate.offer_query(i) for i in range(5)]
            return outcomes

        outcomes = VirtualClock().run(main())
        assert outcomes == [True, True, False, False, False]
        assert gate.n_queries_admitted == 2
        assert gate.n_queries_rejected == 3
        assert gate.pending_queries == 2

    def test_block_policy_waits_for_drain(self):
        gate = IngestGate(
            AdmissionConfig(max_pending_events=1, event_overflow="block")
        )

        async def consumer():
            await asyncio.sleep(1.0)
            return await gate.events.get()

        async def main():
            drain = asyncio.get_running_loop().create_task(consumer())
            await gate.offer_event("a")
            await gate.offer_event("b")  # blocks until the drain
            return await drain

        assert VirtualClock().run(main()) == "a"
        assert gate.n_events_admitted == 2
        assert gate.n_events_rejected == 0

    def test_block_policy_under_concurrent_submitters(self):
        """Many blocked submitters drain in order, none lost, wait timed.

        Ten submitters race a queue of depth 2 while a slow consumer
        drains one item per virtual second: every submission must be
        admitted eventually (backpressure preserves work), arrive in
        submission order (single-consumer FIFO), and the queue-full
        waits must land in the ``serving.admission_wait`` histogram.
        """
        from repro import perf

        gate = IngestGate(
            AdmissionConfig(max_pending_queries=2, query_overflow="block")
        )
        n = 10
        drained = []

        async def submitter(i):
            await asyncio.sleep(0.001 * i)  # fixed submission order
            assert await gate.offer_query(i)

        async def consumer():
            while len(drained) < n:
                drained.append(await gate.queries.get())
                await asyncio.sleep(1.0)  # slow drain forces blocking

        async def main():
            await asyncio.gather(
                consumer(), *(submitter(i) for i in range(n))
            )

        with perf.use_registry() as registry:
            VirtualClock().run(main())
        assert drained == list(range(n))
        assert gate.n_queries_admitted == n
        assert gate.n_queries_rejected == 0
        waits = registry.histogram("serving.admission_wait")
        assert waits.count >= n - gate.config.max_pending_queries - 1
        assert waits.percentile(99) > 0

    def test_closed_gate_raises(self):
        from repro.core.serving import AdmissionError

        gate = IngestGate()
        gate.close()

        async def main():
            await gate.offer_event("x")

        with pytest.raises(AdmissionError):
            VirtualClock().run(main())

    def test_config_validated(self):
        with pytest.raises(ValueError, match="bounds"):
            AdmissionConfig(max_pending_events=0)
        with pytest.raises(ValueError, match="overflow"):
            AdmissionConfig(query_overflow="spill")


class TestMicroBatcher:
    def test_burst_coalesces_up_to_max_batch(self):
        sizes = []
        batcher = MicroBatcher(
            BatchPolicy(max_batch=4, max_wait_s=0.01),
            lambda items: (sizes.append(len(items)), items)[1],
        )

        async def main():
            batcher.start()
            results = await asyncio.gather(
                *(batcher.submit(i) for i in range(10))
            )
            await batcher.stop()
            return results

        results = VirtualClock().run(main())
        assert results == list(range(10))  # result matched to payload
        assert max(sizes) <= 4
        assert sum(sizes) == 10
        assert batcher.n_batches == len(sizes)

    def test_lone_item_dispatches_after_max_wait(self):
        clock = VirtualClock()
        dispatched_at = []
        batcher = MicroBatcher(
            BatchPolicy(max_batch=64, max_wait_s=0.5),
            lambda items: (dispatched_at.append(clock.now()), items)[1],
        )

        async def main():
            batcher.start()
            result = await batcher.submit("only")
            await batcher.stop()
            return result

        assert clock.run(main()) == "only"
        # The single item waited out the full window, no longer.
        assert dispatched_at[0] == pytest.approx(0.5)

    def test_handler_exception_fails_the_batch(self):
        def boom(items):
            raise RuntimeError("handler broke")

        batcher = MicroBatcher(BatchPolicy(max_batch=2, max_wait_s=0.0), boom)

        async def main():
            batcher.start()
            try:
                await batcher.submit("x")
            finally:
                await batcher.stop()

        with pytest.raises(RuntimeError, match="handler broke"):
            VirtualClock().run(main())

    def test_cost_charges_virtual_service_time(self):
        clock = VirtualClock()
        batcher = MicroBatcher(
            BatchPolicy(max_batch=8, max_wait_s=0.0),
            lambda items: items,
            cost=lambda n: 0.125 * n,
        )

        async def main():
            batcher.start()
            await asyncio.gather(*(batcher.submit(i) for i in range(4)))
            await batcher.stop()

        clock.run(main())
        assert clock.now() >= 0.125  # at least one batch was charged

    def test_policy_validated(self):
        with pytest.raises(ValueError, match="max_batch"):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError, match="max_wait_s"):
            BatchPolicy(max_wait_s=-1.0)


class TestServiceReplayEquivalence:
    """Zero-concurrency service replay == chronological replay, bit for bit."""

    @pytest.fixture(scope="class")
    def service_replay(self, stream_dataset):
        core = ServingCore(FAST_PREDICTOR, FAST_ONLINE)
        service = RecommendationService(
            core, ServiceConfig(cost=None)
        )

        async def replay():
            await service.start()
            responses = []
            for thread in stream_dataset:
                responses.append(await service.route_question(thread))
                await service.submit_event(thread)
            await service.stop()
            return responses

        responses = VirtualClock().run(replay())
        return service, responses

    def test_counters_identical(self, service_replay, plain_report):
        service, _ = service_replay
        report = service.report
        assert report.n_questions_seen == plain_report.n_questions_seen
        assert report.n_routed == plain_report.n_routed
        assert report.n_refits == plain_report.n_refits
        assert report.n_refits >= 2

    def test_rankings_and_scores_bit_identical(
        self, service_replay, plain_report
    ):
        service, _ = service_replay
        report = service.report
        assert len(report.rankings) == len(plain_report.rankings)
        for (ranked, actual), (ranked_p, actual_p) in zip(
            report.rankings, plain_report.rankings
        ):
            assert ranked == ranked_p
            assert actual == actual_p
        assert report.routed_scores == plain_report.routed_scores

    def test_admitted_history_released(self, service_replay):
        """Once a refit has built the state, every later event lives in
        the state alone; the reports above still equal the plain one."""
        service, _ = service_replay
        assert service.report.n_refits >= 2
        assert service.core.accepted == []

    def test_clean_stream_suffers_no_degradation(self, service_replay):
        service, responses = service_replay
        assert service.degradation.ok
        assert all(not r.degraded for r in responses)

    def test_every_query_got_a_response(self, service_replay, stream_dataset):
        _, responses = service_replay
        assert len(responses) == len(stream_dataset)
        statuses = {r.status for r in responses}
        assert statuses <= {"ok", "not_ready", "no_recommendation",
                            "no_candidates"}
        assert sum(r.status == "ok" for r in responses) > 0


class TestAdmittedHistory:
    """``accepted`` holds events only while a bootstrap refit may read it."""

    def test_kept_until_the_state_exists(self, stream_dataset):
        core = ServingCore(FAST_PREDICTOR, FAST_ONLINE)
        service = RecommendationService(core)
        threads = stream_dataset.threads
        early = sum(t.created_at < FAST_ONLINE.warmup_hours for t in threads)
        service.warm(ForumDataset(threads[:early]))
        assert not core.warmed
        assert core.accepted == threads[:early]
        service.warm(ForumDataset(threads[early:]))
        assert core.warmed
        assert core.accepted == []

    def test_prefitted_core_keeps_none(self, warm_core, stream_dataset):
        core = ServingCore.from_artifacts(
            warm_core._predictor, warm_core._candidates
        )
        RecommendationService(core).warm(
            ForumDataset(stream_dataset.threads[-10:])
        )
        assert core.next_refit == math.inf
        assert core.accepted == []


class TestBatchedEqualsSequential:
    """On a small forum, micro-batched routing is exactly sequential."""

    @pytest.fixture(scope="class")
    def traffic(self, stream_dataset):
        return generate_traffic(
            stream_dataset,
            TrafficConfig(
                n_askers=40, n_events=0, duration_s=10.0, seed=5
            ),
        )

    def run_queries(self, core, traffic, max_batch):
        service = RecommendationService(
            core,
            ServiceConfig(
                batch=BatchPolicy(max_batch=max_batch, max_wait_s=0.05),
                cost=None,
            ),
        )
        return service, run_load(service, traffic, settle_s=1.0)

    def test_responses_identical(self, warm_core, traffic):
        # Queries leave the engine state untouched, so the same core
        # can serve both runs and stay comparable.
        _, sequential = self.run_queries(warm_core, traffic, max_batch=1)
        service_b, batched = self.run_queries(warm_core, traffic, max_batch=8)
        assert service_b._batcher.mean_batch_size > 1.0  # really batched
        assert len(sequential.responses) == len(batched.responses)
        for a, b in zip(sequential.responses, batched.responses):
            assert a.status == b.status
            assert a.ranked == b.ranked
            assert a.routed == b.routed
            assert a.score == b.score


def exact_routing_case(n_users, n_questions, n_queries=64):
    """A prefitted core over a generated forum plus ``n_queries`` fresh
    questions asked at one instant (re-asks of the latest threads)."""
    forum = generate_forum(
        ForumConfig(
            n_users=n_users, n_questions=n_questions, activity_tail=1.4
        ),
        seed=3,
    )
    clean, _ = forum.dataset.preprocess()
    predictor = ForumPredictor(FAST_PREDICTOR).fit(clean)
    core = ServingCore.from_artifacts(
        predictor,
        clean.answerers,
        online_config=OnlineConfig(warmup_hours=0.0),
    )
    threads = list(clean)
    now = threads[-1].created_at + 1.0
    questions = [
        make_question(
            830000 + i, threads[-1 - i].asker, now,
            body=threads[-1 - i].question.body,
        )
        for i in range(n_queries)
    ]
    return core, questions


def assert_batches_of_8_equal_sequential(core, questions):
    now = questions[0].created_at
    single = [core.route(q, now, OnlineReport()) for q in questions]
    batched = []
    for start in range(0, len(questions), 8):
        batched.extend(
            core.process_query_batch(
                questions[start : start + 8], OnlineReport()
            )
        )
    assert sum(r.ok for r in single) > len(questions) // 2
    assert_responses_identical(single, batched)


class TestBatchedRoutingContract:
    """Fused batches equal one-at-a-time routing bit for bit.

    Stacking the candidates of 8 questions changes the row count of
    every head's products.  The heads' tiled inference forward makes a
    row's scores independent of that count, so scores, routing
    probabilities, rankings and routed users are all exactly equal.
    """

    @pytest.fixture(scope="class")
    def core_and_questions(self):
        return exact_routing_case(300, 300)

    def test_batches_equal_sequential(self, core_and_questions):
        core, questions = core_and_questions
        assert len(core._candidates) >= 100
        assert_batches_of_8_equal_sequential(core, questions)

    def test_several_hundred_candidates(self):
        # Large enough that untiled products switch BLAS kernels with
        # the stacked row count: 8 x ~340 rows against ~340 alone.
        core, questions = exact_routing_case(900, 700)
        assert len(core._candidates) >= 300
        assert_batches_of_8_equal_sequential(core, questions)


class TestResponsesHoldBuiltinInts:
    """Candidates travel as int64 arrays down to the feature kernel;
    every response still holds builtin ints and serializes to JSON."""

    @pytest.fixture(scope="class")
    def case(self, stream_dataset):
        predictor = ForumPredictor(FAST_PREDICTOR).fit(stream_dataset)
        small_pool = RetrievalConfig(
            topic_top_k=8, recency_top_k=8, mf_top_k=8, pool_size=8
        )
        cores = {
            name: ServingCore.from_artifacts(
                predictor,
                stream_dataset.answerers,
                online_config=OnlineConfig(
                    warmup_hours=0.0, retrieval=retrieval
                ),
            )
            for name, retrieval in (("dense", None), ("two_stage", small_pool))
        }
        last = stream_dataset.threads[-1]
        question = make_question(
            860000, last.asker, last.created_at + 1.0,
            body=last.question.body,
        )
        return cores, question

    @staticmethod
    def route(core, question):
        response = core.route(question, question.created_at, OnlineReport())
        assert response.ok
        assert response.ranked
        assert all(type(u) is int for u in response.ranked)
        assert all(type(u) is int for u, _ in response.routed)
        json.dumps(asdict(response))
        return response

    def test_dense_path(self, case):
        cores, question = case
        assert not self.route(cores["dense"], question).degraded

    def test_two_stage_path(self, case):
        cores, question = case
        core = cores["two_stage"]
        pool = core._router.candidate_pool(question, core._candidates)
        assert 0 < pool.size < core._candidates.size
        assert not self.route(core, question).degraded

    def test_dense_fallback_path(self, case, monkeypatch):
        """A pool of one ineligible user: the router retries densely."""
        cores, question = case
        core = cores["two_stage"]
        candidates = core._candidates[core._candidates != question.asker]
        answer = core._predictor.predict_batch(
            [(int(u), question) for u in candidates]
        )["answer"]
        assert answer.min() < core.online_config.epsilon
        worst = candidates[[int(np.argmin(answer))]]
        monkeypatch.setattr(
            core._router.retriever, "pool", lambda thread, users: worst
        )
        response = self.route(core, question)
        assert response.degraded  # the dense fallback produced it
        assert response.ranked == worst.tolist()


class TestSegmentInference:
    """A batch infers each refit segment's questions in one pass and
    still routes exactly as one query at a time, across a refit."""

    @staticmethod
    def crossing_batch(core, dataset, base):
        """Three questions before the next refit grid point, three after."""
        before, after = core.next_refit - 1.0, core.next_refit + 0.5
        threads = dataset.threads[-6:]
        return [
            make_question(
                base + i, t.asker, before if i < 3 else after,
                body=t.question.body,
            )
            for i, t in enumerate(threads)
        ]

    @staticmethod
    def route(core, questions):
        return core.process_query_batch(
            questions, OnlineReport(), DegradationReport(), ResilienceConfig()
        )

    def test_one_transform_per_segment(self, stream_dataset, transform_sizes):
        """One pass per segment; between them the refit settles the posts
        the state queued since its last settle, in one pass of its own."""
        core = make_warm_core(stream_dataset)
        questions = self.crossing_batch(core, stream_dataset, 840000)
        epoch = core.refit_epoch
        queued = core._state._pending_docs
        assert queued > 0
        transform_sizes.clear()
        responses = self.route(core, questions)
        assert core.refit_epoch == epoch + 1
        assert all(r.ok for r in responses)
        assert transform_sizes == [3, queued, 3]

    @pytest.mark.parametrize(
        "strategy, warm_start", [("incremental", True), ("rebuild", False)]
    )
    def test_batch_across_refit_equals_one_at_a_time(
        self, stream_dataset, strategy, warm_start
    ):
        cores = []
        for _ in range(2):
            if strategy == "rebuild":
                core = RebuildCore(
                    FAST_PREDICTOR, FAST_ONLINE, warm_start=warm_start
                )
            else:
                core = ServingCore(FAST_PREDICTOR, FAST_ONLINE)
            RecommendationService(core).warm(stream_dataset)
            cores.append(core)
        batched_core, single_core = cores
        epoch = batched_core.refit_epoch
        questions = self.crossing_batch(batched_core, stream_dataset, 850000)
        batched = self.route(batched_core, questions)
        single = [self.route(single_core, [q])[0] for q in questions]
        assert batched_core.refit_epoch == single_core.refit_epoch == epoch + 1
        assert sum(r.ok for r in single) >= 4
        assert_responses_identical(single, batched)


class TestAdmissionUnderLoad:
    def fire_burst(self, core, n, max_pending):
        service = RecommendationService(
            core,
            ServiceConfig(
                admission=AdmissionConfig(
                    max_pending_queries=max_pending,
                    query_overflow="reject",
                ),
                batch=BatchPolicy(max_batch=4, max_wait_s=0.001),
                cost=CostModel(query_batch_s=0.01, query_s=0.02),
            ),
        )
        t0 = core.next_refit - 1.0
        questions = [make_question(700000 + i, 0, t0) for i in range(n)]

        async def main():
            await service.start()
            results = await asyncio.gather(
                *(service.route_question(q) for q in questions)
            )
            await service.stop()
            return results

        return service, VirtualClock().run(main())

    def test_bounded_queue_rejects_excess_burst(self, warm_core):
        service, responses = self.fire_burst(warm_core, 32, max_pending=4)
        rejected = [r for r in responses if r.status == "rejected"]
        served = [r for r in responses if r.status != "rejected"]
        assert rejected, "a 32-wide burst must overflow a 4-deep queue"
        assert served, "admitted queries must still be served"
        assert len(rejected) + len(served) == 32
        assert service.gate.n_queries_rejected == len(rejected)
        # Shed responses return immediately and say why.
        assert all(r.detail == "query queue full" for r in rejected)
        assert all(r.latency_s == 0.0 for r in rejected)

    def test_rejection_pattern_is_deterministic(self, warm_core):
        _, first = self.fire_burst(warm_core, 32, max_pending=4)
        _, second = self.fire_burst(warm_core, 32, max_pending=4)
        assert [r.status for r in first] == [r.status for r in second]
        assert [r.latency_s for r in first] == [r.latency_s for r in second]


class TestFaultyEventsDegradeNotDrop:
    @pytest.fixture()
    def cold_service(self):
        core = ServingCore(FAST_PREDICTOR, FAST_ONLINE, ResilienceConfig())
        return RecommendationService(core, ServiceConfig(cost=None))

    def submit_all(self, service, threads):
        async def main():
            await service.start()
            results = [await service.submit_event(t) for t in threads]
            await service.stop()
            return results

        return VirtualClock().run(main())

    def test_guard_faults_surface_as_degraded_responses(self, cold_service):
        clean = make_question(1, 7, 10.0)
        duplicate = make_question(1, 7, 11.0)  # same thread id
        late = make_question(2, 8, 5.0)  # behind the stream clock
        poisoned = make_question(3, 9, float("nan"))
        results = self.submit_all(
            cold_service, [clean, duplicate, late, poisoned]
        )
        assert [r.status for r in results] == [
            "admitted", "dropped", "repaired", "quarantined",
        ]
        # Every submitter heard back — degraded, never silence.
        assert [r.degraded for r in results] == [False, True, True, True]
        assert "dropped:duplicate_thread" in results[1].actions
        assert "repaired:late_arrival_clamped" in results[2].actions
        assert any(a.startswith("quarantined") for a in results[3].actions)
        assert all(math.isfinite(r.latency_s) for r in results)
        # And the degradation ledger agrees with the responses.
        report = cold_service.degradation
        assert report.count("dropped:duplicate_thread") == 1
        assert report.count("quarantined:") == 1


class TestHealthAndMetrics:
    def test_cold_service_reports_warming(self):
        service = RecommendationService(
            ServingCore(FAST_PREDICTOR, FAST_ONLINE)
        )
        health = service.health()
        assert health["status"] == "warming"
        assert health["warmed"] is False

    def test_warm_service_reports_ok_and_metrics_shape(self, warm_core):
        service = RecommendationService(warm_core, ServiceConfig())
        assert service.health()["status"] == "ok"
        traffic = generate_traffic(
            warm_core._last_good,
            TrafficConfig(n_askers=20, n_events=5, duration_s=5.0, seed=2),
        )
        report = run_load(service, traffic)
        metrics = report.metrics
        assert metrics["queries"]["admitted"] == 20
        assert metrics["events"]["admitted"] == 5
        assert metrics["query_latency"]["count"] == 20
        for key in ("p50_ms", "p95_ms", "p99_ms"):
            assert metrics["query_latency"][key] >= 0.0
        assert (
            metrics["query_latency"]["p50_ms"]
            <= metrics["query_latency"]["p99_ms"]
        )
        assert "batch_wait" in metrics
        assert metrics["engine"]["refit_epoch"] == warm_core.refit_epoch
        assert report.requests_per_wall_s > 0


class TestLoadRunDeterminism:
    def test_same_seed_same_everything_but_wall_clock(self, stream_dataset):
        cfg = TrafficConfig(
            n_askers=60, n_events=15, duration_s=10.0, seed=11
        )

        def one_run():
            core = ServingCore(FAST_PREDICTOR, FAST_ONLINE)
            service = RecommendationService(core, ServiceConfig())
            service.warm(stream_dataset)
            return run_load(service, generate_traffic(stream_dataset, cfg))

        first, second = one_run(), one_run()
        a, b = first.summary(), second.summary()
        for key in ("wall_s", "requests_per_wall_s"):
            a.pop(key), b.pop(key)
        assert a == b
        for ra, rb in zip(first.responses, second.responses):
            assert ra.status == rb.status
            assert ra.latency_s == rb.latency_s


def make_warm_core(dataset) -> ServingCore:
    """A freshly warmed core, owned by the calling test."""
    core = ServingCore(FAST_PREDICTOR, FAST_ONLINE)
    RecommendationService(core).warm(dataset)
    return core


def assert_responses_identical(expected, got):
    assert len(expected) == len(got)
    for a, b in zip(expected, got):
        assert a.status == b.status
        assert a.degraded == b.degraded
        assert a.ranked == b.ranked
        assert a.routed == b.routed
        assert a.score == b.score
