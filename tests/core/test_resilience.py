"""Tests for repro.core.resilience — fault injection and degradation.

The differential harness at the bottom is the heart of this file: the
same dataset is replayed clean, through the zero-fault resilient path
(which must be bit-identical to the plain replay), and through each
fault class in isolation, reconciling what the injector recorded against
what the hardened replay did about it.
"""

import math

import numpy as np
import pytest

from repro.core.online import replay
from repro.core.pipeline import PredictorConfig
from repro.core.resilience import (
    FAULT_KINDS,
    DegradationReport,
    FaultInjector,
    FaultPlan,
    NonFiniteFeatureError,
    ResilienceConfig,
    StreamGuard,
)
from repro.core.serving import ServingCore
from repro.core.serving.service import OnlineConfig
from repro.forum.dataset import ForumDataset
from repro.forum.generator import ForumConfig, generate_forum
from repro.forum.models import Post, Thread

# A deliberately small stream: the differential harness replays it many
# times, so it must stay cheap while still spanning several refits.
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


def run_resilient(dataset, plan=None, resilience=None):
    core = ServingCore(
        FAST_PREDICTOR, FAST_ONLINE, resilience or ResilienceConfig()
    )
    return replay(core, dataset, plan)


def post(pid, tid, author, ts, votes=0, body="<p>x</p>", question=False):
    return Post(
        post_id=pid,
        thread_id=tid,
        author=author,
        timestamp=ts,
        votes=votes,
        body=body,
        is_question=question,
    )


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError, match="duplicate_rate"):
            FaultPlan(duplicate_rate=1.5)
        with pytest.raises(ValueError, match="max_delay_slots"):
            FaultPlan(max_delay_slots=0)

    def test_is_zero(self):
        assert FaultPlan().is_zero
        assert not FaultPlan(truncate_rate=0.1).is_zero


class TestFaultInjector:
    def test_zero_plan_is_identity(self, stream_dataset):
        injector = FaultInjector(FaultPlan(seed=4))
        stream = injector.perturb(stream_dataset)
        # The identical objects in the identical order, nothing recorded.
        assert all(a is b for a, b in zip(stream, stream_dataset))
        assert len(stream) == len(stream_dataset)
        assert injector.records == []

    def test_deterministic_under_fixed_seed(self, stream_dataset):
        plan = FaultPlan(
            seed=11,
            out_of_order_rate=0.2,
            duplicate_rate=0.1,
            missing_field_rate=0.1,
            clock_skew_rate=0.1,
            truncate_rate=0.1,
        )
        a, b = FaultInjector(plan), FaultInjector(plan)
        stream_a, stream_b = a.perturb(stream_dataset), b.perturb(stream_dataset)
        assert a.records == b.records
        assert [t.thread_id for t in stream_a] == [t.thread_id for t in stream_b]
        assert [len(t.answers) for t in stream_a] == [
            len(t.answers) for t in stream_b
        ]

    def test_different_seeds_differ(self, stream_dataset):
        plan = FaultPlan(seed=1, duplicate_rate=0.3, out_of_order_rate=0.3)
        other = FaultPlan(seed=2, duplicate_rate=0.3, out_of_order_rate=0.3)
        assert (
            FaultInjector(plan).perturb(stream_dataset)
            != FaultInjector(other).perturb(stream_dataset)
        )

    def test_event_count_conservation(self, stream_dataset):
        injector = FaultInjector(FaultPlan(seed=7, duplicate_rate=0.25))
        stream = injector.perturb(stream_dataset)
        duplicates = injector.injected_counts().get("duplicate", 0)
        assert duplicates > 0
        assert len(stream) == len(stream_dataset) + duplicates

    def test_input_threads_never_mutated(self, stream_dataset):
        before = [
            (t.thread_id, t.created_at, len(t.answers))
            for t in stream_dataset
        ]
        FaultInjector(
            FaultPlan(
                seed=5,
                truncate_rate=0.5,
                clock_skew_rate=0.5,
                missing_field_rate=0.5,
            )
        ).perturb(stream_dataset)
        after = [
            (t.thread_id, t.created_at, len(t.answers))
            for t in stream_dataset
        ]
        assert before == after

    def test_every_class_injectable(self, stream_dataset):
        plan = FaultPlan(
            seed=0,
            out_of_order_rate=0.3,
            duplicate_rate=0.3,
            missing_field_rate=0.3,
            clock_skew_rate=0.3,
            truncate_rate=0.3,
        )
        injector = FaultInjector(plan)
        injector.perturb(stream_dataset)
        counts = injector.injected_counts()
        for kind in FAULT_KINDS:
            assert counts.get(kind, 0) > 0, kind


class TestStreamGuard:
    def test_clean_event_passes_through_as_same_object(self):
        guard = StreamGuard()
        thread = Thread(
            question=post(0, 0, 1, 5.0, question=True),
            answers=[post(1, 0, 2, 6.0)],
        )
        assert guard.admit(thread) is thread
        assert guard.report.ok
        assert guard.n_admitted == 1

    def test_nonfinite_question_time_quarantined(self):
        guard = StreamGuard()
        thread = Thread(
            question=post(0, 0, 1, float("nan"), question=True)
        )
        assert guard.admit(thread) is None
        assert guard.quarantine == [thread]
        assert guard.report.count("quarantined") == 1

    def test_quarantine_bounded(self):
        guard = StreamGuard(ResilienceConfig(quarantine_limit=2))
        for i in range(5):
            guard.admit(
                Thread(question=post(i, i, 1, float("nan"), question=True))
            )
        assert len(guard.quarantine) == 2
        assert guard.report.count("quarantined") == 5

    def test_duplicate_thread_dropped(self):
        guard = StreamGuard()
        thread = Thread(question=post(0, 0, 1, 5.0, question=True))
        assert guard.admit(thread) is thread
        again = Thread(question=post(9, 0, 1, 6.0, question=True))
        assert guard.admit(again) is None
        assert guard.report.count("dropped:duplicate_thread") == 1

    def test_late_arrival_clamped_preserving_response_times(self):
        guard = StreamGuard()
        guard.admit(Thread(question=post(0, 0, 1, 10.0, question=True)))
        late = Thread(
            question=post(10, 1, 2, 7.0, question=True),
            answers=[post(11, 1, 3, 9.0)],
        )
        admitted = guard.admit(late)
        assert admitted is not None
        assert admitted.created_at == 10.0  # clamped onto the stream clock
        assert admitted.answers[0].timestamp - admitted.created_at == (
            pytest.approx(2.0)
        )
        assert guard.report.count("repaired:late_arrival_clamped") == 1
        assert guard.last_created == 10.0

    def test_early_and_self_answers_dropped(self):
        guard = StreamGuard()
        thread = Thread(
            question=post(0, 0, 1, 10.0, question=True),
            answers=[
                post(1, 0, 2, 8.0),  # predates the question
                post(2, 0, 1, 12.0),  # self-answer
                post(3, 0, 3, 11.0),  # fine
            ],
        )
        admitted = guard.admit(thread)
        assert [a.post_id for a in admitted.answers] == [3]
        assert guard.report.count("repaired:early_answer_dropped") == 1
        assert guard.report.count("repaired:self_answer_dropped") == 1

    def test_nonfinite_fields_repaired(self):
        guard = StreamGuard()
        thread = Thread(
            question=post(0, 0, 1, 10.0, votes=float("nan"), question=True),
            answers=[
                post(1, 0, 2, float("nan")),
                post(2, 0, 3, 11.0, votes=float("inf")),
            ],
        )
        admitted = guard.admit(thread)
        assert admitted.question.votes == 0
        assert [a.post_id for a in admitted.answers] == [2]
        assert admitted.answers[0].votes == 0
        assert guard.report.count("repaired:votes_coerced") == 2
        assert guard.report.count("repaired:answer_nonfinite_time_dropped") == 1
        for p in admitted.posts:
            assert math.isfinite(p.timestamp)
            assert math.isfinite(float(p.votes))

    def test_admitted_timestamps_monotone(self, stream_dataset):
        plan = FaultPlan(seed=9, out_of_order_rate=0.4, clock_skew_rate=0.2)
        stream = FaultInjector(plan).perturb(stream_dataset)
        guard = StreamGuard()
        last = float("-inf")
        for event in stream:
            admitted = guard.admit(event)
            if admitted is None:
                continue
            assert admitted.created_at >= last
            last = admitted.created_at


class TestDegradationReport:
    def test_counts_and_summary(self):
        report = DegradationReport()
        report.add(0, 1, "repaired:late_arrival_clamped")
        report.add(1, 2, "dropped:duplicate_thread")
        report.add(2, 3, "repaired:votes_coerced")
        assert report.count("repaired") == 2
        assert report.summary()["dropped:duplicate_thread"] == 1
        assert not report.ok

    def test_value_equality(self):
        a, b = DegradationReport(), DegradationReport()
        a.add(0, 1, "repaired:x", "d")
        b.add(0, 1, "repaired:x", "d")
        assert a == b
        b.add(1, 2, "dropped:y")
        assert a != b


class TestDifferentialHarness:
    """Clean run vs faulted runs: bounded deltas, full accounting."""

    def test_zero_fault_resilient_is_bit_identical(
        self, stream_dataset, plain_report
    ):
        resilient = run_resilient(stream_dataset)
        assert resilient.n_refits == plain_report.n_refits
        assert resilient.n_questions_seen == plain_report.n_questions_seen
        assert resilient.n_routed == plain_report.n_routed
        assert resilient.rankings == plain_report.rankings
        assert resilient.routed_scores == plain_report.routed_scores
        assert resilient.degradation is not None
        assert resilient.degradation.ok

    def test_zero_fault_plan_matches_no_injector(
        self, stream_dataset, plain_report
    ):
        with_plan = run_resilient(stream_dataset, plan=FaultPlan(seed=123))
        assert with_plan.rankings == plain_report.rankings
        assert with_plan.routed_scores == plain_report.routed_scores
        assert with_plan.degradation.ok

    def test_faulted_replay_deterministic(self, stream_dataset):
        plan = FaultPlan(
            seed=11,
            out_of_order_rate=0.1,
            duplicate_rate=0.05,
            missing_field_rate=0.05,
            clock_skew_rate=0.05,
            truncate_rate=0.05,
        )
        a = run_resilient(stream_dataset, plan=plan)
        b = run_resilient(stream_dataset, plan=plan)
        assert a.n_refits == b.n_refits
        assert a.n_questions_seen == b.n_questions_seen
        assert a.rankings == b.rankings
        assert a.routed_scores == b.routed_scores
        assert a.degradation == b.degradation

    @pytest.mark.parametrize(
        "kind,plan",
        [
            ("duplicate", FaultPlan(seed=21, duplicate_rate=0.15)),
            ("out_of_order", FaultPlan(seed=22, out_of_order_rate=0.2)),
            ("missing_field", FaultPlan(seed=23, missing_field_rate=0.2)),
            ("clock_skew", FaultPlan(seed=24, clock_skew_rate=0.2)),
            ("truncated", FaultPlan(seed=25, truncate_rate=0.2)),
        ],
    )
    def test_fault_class_bounded_and_accounted(
        self, stream_dataset, plain_report, kind, plan
    ):
        injector = FaultInjector(plan)
        stream = injector.perturb(stream_dataset)
        injected = injector.injected_counts().get(kind, 0)
        assert injected > 0, f"plan injected no {kind} faults"
        report = run_resilient(stream_dataset, plan=plan)
        degradation = report.degradation
        # No faulted run may raise or emit non-finite predictions.
        assert all(np.isfinite(report.routed_scores))
        # The question stream can only shrink by what was dropped or
        # quarantined; duplicates never inflate it past the clean run.
        not_admitted = degradation.count("quarantined") + degradation.count(
            "dropped"
        )
        assert (
            report.n_questions_seen
            >= plain_report.n_questions_seen - not_admitted
        )
        assert report.n_questions_seen <= plain_report.n_questions_seen
        # Every injected fault shows up in the degradation ledger.
        if kind == "duplicate":
            assert degradation.count("dropped:duplicate_thread") == injected
        elif kind == "out_of_order":
            # Delayed events regress the clock only when another event
            # overtook them; each such regression is clamped.
            assert degradation.count("repaired:late_arrival_clamped") <= (
                injected
            )
            assert degradation.count("quarantined") == 0
        elif kind == "missing_field":
            handled = (
                degradation.count("quarantined:nonfinite_question_time")
                + degradation.count("repaired:answer_nonfinite_time_dropped")
                + degradation.count("repaired:votes_coerced")
                + degradation.count("tolerated:empty_body")
            )
            assert handled == injected
        elif kind == "clock_skew":
            # Skewed answers land before their question and are dropped.
            assert degradation.count("repaired:early_answer_dropped") > 0
        elif kind == "truncated":
            # Truncation is silent at ingestion (a shorter thread is
            # still well-formed); the replay must simply survive it.
            assert degradation.count("quarantined") == 0


class TestRefitRecovery:
    def test_transient_failure_retried(self, stream_dataset):
        core = ServingCore(
            FAST_PREDICTOR, FAST_ONLINE, ResilienceConfig(max_refit_retries=2)
        )
        inner = core.refit_hook
        calls = {"n": 0, "failed": False}

        def flaky(dataset, now):
            calls["n"] += 1
            if calls["n"] == 3 and not calls["failed"]:
                calls["failed"] = True
                raise RuntimeError("transient worker death")
            return inner(dataset, now)

        core.refit_hook = flaky
        report = replay(core, stream_dataset)
        summary = report.degradation.summary()
        assert summary.get("refit:retry") == 1
        assert "refit:fallback" not in summary
        assert all(np.isfinite(report.routed_scores))

    def test_persistent_failure_falls_back_with_backoff(self, stream_dataset):
        core = ServingCore(
            FAST_PREDICTOR, FAST_ONLINE, ResilienceConfig(max_refit_retries=1)
        )
        inner = core.refit_hook
        calls = {"n": 0}

        def poisoned(dataset, now):
            calls["n"] += 1
            if calls["n"] >= 3:  # every refit after the second one dies
                raise NonFiniteFeatureError("poisoned window")
            return inner(dataset, now)

        core.refit_hook = poisoned
        report = replay(core, stream_dataset)
        summary = report.degradation.summary()
        assert summary.get("refit:fallback", 0) >= 1
        assert summary.get("refit:backoff_skipped", 0) >= 1
        # Serving never stopped: routing continued on the snapshot model.
        assert report.n_routed > 0
        assert all(np.isfinite(report.routed_scores))

    def test_nonfinite_features_rejected_by_pipeline(self, stream_dataset):
        from repro.core.pipeline import ForumPredictor

        threads = list(stream_dataset.threads[:40])
        victim = threads[5]
        threads[5] = Thread(
            question=post(
                victim.question.post_id,
                victim.thread_id,
                victim.asker,
                victim.created_at,
                votes=float("nan"),
                question=True,
            ),
            answers=list(victim.answers),
        )
        with pytest.raises(NonFiniteFeatureError, match="non-finite"):
            ForumPredictor(FAST_PREDICTOR).fit(ForumDataset(threads))
