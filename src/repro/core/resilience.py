"""Fault injection and graceful degradation for the online serving loop.

The deployment story of the paper assumes a clean, chronologically
ordered event stream.  Production traffic is not like that: events
arrive late, duplicated, truncated, or with missing fields, and a refit
can die halfway through.  This module makes that messiness first-class:

* :class:`FaultPlan` / :class:`FaultInjector` — a deterministic, seeded
  perturbation of a :class:`~repro.forum.dataset.ForumDataset` thread
  stream.  Every fault drawn is recorded as a :class:`FaultRecord`, so
  tests can reconcile what went in against what the consumers did.
* :class:`StreamGuard` — the per-event ingestion gate of the online
  loop: unparseable events are quarantined (bounded queue), repairable
  ones are repaired in place (late arrivals clamped onto the stream
  clock, non-finite fields dropped or coerced, duplicates deduplicated,
  answers whose author is no valid id dropped),
  and every action lands in a :class:`DegradationReport`.
* :class:`ResilienceConfig` — knobs for the guard plus the bounded
  retry-with-backoff / snapshot-fallback policy the serving core wraps
  around its ``refit_hook``.

Determinism contract: with a fixed ``FaultPlan(seed=s)`` the perturbed
stream, every guard decision and therefore the whole faulted replay are
bit-reproducible; a zero-rate plan returns the input threads untouched
(the same objects, in the same order).

Fault taxonomy (see ``docs/architecture.md`` for the degradation
semantics of each class):

==================  ==================================================
kind                injected defect
==================  ==================================================
``out_of_order``    the event is delayed by 1..``max_delay_slots``
                    stream positions, so its question timestamp
                    regresses behind the stream clock
``duplicate``       the whole thread is re-emitted a few slots later
                    (duplicate thread and post ids)
``missing_field``   one field is blanked: question timestamp -> NaN
                    (unparseable), answer timestamp -> NaN, answer
                    votes -> NaN, or question body -> ""
``clock_skew``      all answer timestamps of the thread shift earlier
                    by ~``clock_skew_hours``, pushing some before the
                    question itself
``truncated``      	the tail of the thread's answer list is lost
==================  ==================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .. import perf
from ..forum.dataset import ForumDataset
from ..forum.models import Post, Thread
from .dtypes import IdOverflowError, check_id

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultRecord",
    "FaultInjector",
    "ResilienceConfig",
    "DegradationRecord",
    "DegradationReport",
    "StreamGuard",
    "NonFiniteFeatureError",
]

FAULT_KINDS = (
    "out_of_order",
    "duplicate",
    "missing_field",
    "clock_skew",
    "truncated",
)


class NonFiniteFeatureError(ValueError):
    """A feature matrix contains NaN/inf values; training must not proceed.

    Raised by :meth:`~repro.core.pipeline.ForumPredictor.fit_models`
    before any model sees the matrix, so a poisoned refit fails loudly
    at the start instead of silently corrupting predictions.  The
    resilient online loop catches it and falls back to the last good
    snapshot.
    """


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of which faults to inject at which rates.

    All rates are independent per-thread Bernoulli probabilities in
    ``[0, 1]``; a thread can draw several faults at once.  A plan with
    every rate zero (:attr:`is_zero`) is the identity — the injector
    then emits the input stream untouched without consuming randomness.
    """

    seed: int = 0
    out_of_order_rate: float = 0.0
    duplicate_rate: float = 0.0
    missing_field_rate: float = 0.0
    clock_skew_rate: float = 0.0
    truncate_rate: float = 0.0
    clock_skew_hours: float = 6.0
    max_delay_slots: int = 3

    def __post_init__(self):
        for name in (
            "out_of_order_rate",
            "duplicate_rate",
            "missing_field_rate",
            "clock_skew_rate",
            "truncate_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.clock_skew_hours <= 0:
            raise ValueError("clock_skew_hours must be positive")
        if self.max_delay_slots < 1:
            raise ValueError("max_delay_slots must be >= 1")

    @property
    def is_zero(self) -> bool:
        """True when no fault class has a positive rate."""
        return (
            self.out_of_order_rate == 0.0
            and self.duplicate_rate == 0.0
            and self.missing_field_rate == 0.0
            and self.clock_skew_rate == 0.0
            and self.truncate_rate == 0.0
        )


@dataclass(frozen=True)
class FaultRecord:
    """One fault the injector actually applied."""

    kind: str
    thread_id: int
    detail: str


class FaultInjector:
    """Applies a :class:`FaultPlan` to a dataset's thread stream.

    Draw order is fixed per thread (truncate, clock skew, missing
    field, duplicate, out-of-order) with one draw per configured fault
    class, so a given ``(plan, dataset)`` pair always produces the same
    stream and the same :attr:`records`.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.records: list[FaultRecord] = []

    def injected_counts(self) -> dict[str, int]:
        """Number of faults applied, keyed by fault kind."""
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.kind] = counts.get(record.kind, 0) + 1
        return counts

    def perturb(self, dataset: ForumDataset) -> list[Thread]:
        """Faulted copy of the dataset's chronological thread stream.

        Returns a new list; input threads are never mutated (faulted
        threads are rebuilt via ``dataclasses.replace``).  With a
        zero-rate plan the result is ``list(dataset)`` — the identical
        objects in the identical order.
        """
        self.records = []
        if self.plan.is_zero:
            return list(dataset)
        plan = self.plan
        rng = np.random.default_rng(plan.seed)
        # Each event gets an emission slot; faults can push it later.
        scheduled: list[tuple[int, int, Thread]] = []
        seq = 0
        for i, thread in enumerate(dataset):
            t = thread
            if plan.truncate_rate and t.answers:
                if rng.random() < plan.truncate_rate:
                    keep = int(rng.integers(0, len(t.answers)))
                    self._record(
                        "truncated",
                        t.thread_id,
                        f"lost {len(t.answers) - keep} of {len(t.answers)} answers",
                    )
                    t = Thread(question=t.question, answers=list(t.answers[:keep]))
            if plan.clock_skew_rate and t.answers:
                if rng.random() < plan.clock_skew_rate:
                    skew = plan.clock_skew_hours * (0.5 + rng.random())
                    self._record(
                        "clock_skew", t.thread_id, f"answers shifted -{skew:.3f}h"
                    )
                    t = Thread(
                        question=t.question,
                        answers=[
                            replace(a, timestamp=max(0.0, a.timestamp - skew))
                            for a in t.answers
                        ],
                    )
            if plan.missing_field_rate and rng.random() < plan.missing_field_rate:
                t = self._blank_field(t, rng)
            delay = 0
            emit_duplicate = (
                plan.duplicate_rate and rng.random() < plan.duplicate_rate
            )
            if plan.out_of_order_rate and rng.random() < plan.out_of_order_rate:
                delay = 1 + int(rng.integers(plan.max_delay_slots))
                self._record(
                    "out_of_order", t.thread_id, f"delayed {delay} slots"
                )
            scheduled.append((i + delay, seq, t))
            seq += 1
            if emit_duplicate:
                dup_delay = 1 + int(rng.integers(plan.max_delay_slots))
                self._record(
                    "duplicate", t.thread_id, f"re-emitted {dup_delay} slots later"
                )
                scheduled.append((i + dup_delay, seq, t))
                seq += 1
        scheduled.sort(key=lambda item: (item[0], item[1]))
        perf.incr("resilience.faults_injected", len(self.records))
        return [t for _, _, t in scheduled]

    def _record(self, kind: str, thread_id: int, detail: str) -> None:
        self.records.append(FaultRecord(kind, thread_id, detail))

    def _blank_field(self, t: Thread, rng: np.random.Generator) -> Thread:
        variant = int(rng.integers(4))
        if variant in (1, 2) and not t.answers:
            variant = 3
        if variant == 0:
            self._record("missing_field", t.thread_id, "question timestamp -> NaN")
            return Thread(
                question=replace(t.question, timestamp=float("nan")),
                answers=list(t.answers),
            )
        if variant == 1:
            idx = int(rng.integers(len(t.answers)))
            victim = t.answers[idx]
            self._record(
                "missing_field",
                t.thread_id,
                f"answer {victim.post_id} timestamp -> NaN",
            )
            answers = list(t.answers)
            answers[idx] = replace(victim, timestamp=float("nan"))
            return Thread(question=t.question, answers=answers)
        if variant == 2:
            idx = int(rng.integers(len(t.answers)))
            victim = t.answers[idx]
            self._record(
                "missing_field",
                t.thread_id,
                f"answer {victim.post_id} votes -> NaN",
            )
            answers = list(t.answers)
            answers[idx] = replace(victim, votes=float("nan"))
            return Thread(question=t.question, answers=answers)
        self._record("missing_field", t.thread_id, "question body -> empty")
        return Thread(
            question=replace(t.question, body=""), answers=list(t.answers)
        )


@dataclass(frozen=True)
class ResilienceConfig:
    """Degradation policy of the online loop's ingestion and refit path.

    ``quarantine_limit`` bounds how many unparseable events the guard
    retains for inspection (beyond it they are counted but not kept).
    ``max_refit_retries`` bounds the in-step retries around a raising
    refit before the loop falls back to the last good snapshot; after a
    fallback, refit attempts are skipped for ``backoff_base ** (n-1)``
    grid intervals (capped at ``max_backoff_intervals``) where ``n``
    counts consecutive failed refit steps — the replay-time analogue of
    retry-with-backoff.
    """

    quarantine_limit: int = 64
    max_refit_retries: int = 2
    backoff_base: int = 2
    max_backoff_intervals: int = 8

    def __post_init__(self):
        if self.quarantine_limit < 1:
            raise ValueError("quarantine_limit must be >= 1")
        if self.max_refit_retries < 0:
            raise ValueError("max_refit_retries must be >= 0")
        if self.backoff_base < 1:
            raise ValueError("backoff_base must be >= 1")
        if self.max_backoff_intervals < 1:
            raise ValueError("max_backoff_intervals must be >= 1")


@dataclass(frozen=True)
class DegradationRecord:
    """One degradation decision: what happened to which event.

    ``action`` is ``"<category>:<rule>"`` where the category is one of
    ``quarantined``, ``dropped``, ``repaired``, ``tolerated``,
    ``masked`` or ``refit``.  ``seq`` is the event's position in the
    (possibly faulted) stream; refit-level records use ``seq == -1``.
    """

    seq: int
    thread_id: int
    action: str
    detail: str = ""


@dataclass
class DegradationReport:
    """Everything the resilient loop dropped, repaired or retried.

    Comparable by value: two replays of the same faulted stream must
    produce equal reports, which the differential tests assert.
    """

    records: list[DegradationRecord] = field(default_factory=list)

    def add(self, seq: int, thread_id: int, action: str, detail: str = "") -> None:
        self.records.append(DegradationRecord(seq, thread_id, action, detail))
        perf.incr("resilience." + action.replace(":", "."))

    def count(self, prefix: str) -> int:
        """Records whose action starts with ``prefix`` (e.g. ``"repaired"``)."""
        return sum(1 for r in self.records if r.action.startswith(prefix))

    def summary(self) -> dict[str, int]:
        """Record counts keyed by full action string."""
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.action] = counts.get(record.action, 0) + 1
        return counts

    @property
    def ok(self) -> bool:
        return not self.records


class StreamGuard:
    """Per-event validate/repair/quarantine gate for thread streams.

    Maintains the invariants downstream consumers rely on: admitted
    question timestamps never decrease (late arrivals are clamped onto
    the stream clock, preserving response times), thread and post ids
    are unique, timestamps and votes are finite, and answers never
    predate their question.  Unrepairable events (a question that
    cannot be placed on the clock) are quarantined.

    Events that need no repair pass through as the same object, so a
    clean stream is admitted bit-identically at negligible cost.
    """

    def __init__(
        self,
        config: ResilienceConfig | None = None,
        report: DegradationReport | None = None,
    ):
        self.config = config or ResilienceConfig()
        self.report = report if report is not None else DegradationReport()
        self.quarantine: list[Thread] = []
        self.n_admitted = 0
        self._seen_threads: set[int] = set()
        self._seen_posts: set[int] = set()
        self._last_created = float("-inf")
        self._seq = -1

    @property
    def last_created(self) -> float:
        """Stream clock: question timestamp of the last admitted event."""
        return self._last_created

    def admit(self, thread: Thread) -> Thread | None:
        """Admit, repair or reject one event; None means not admitted.

        Every decision is appended to :attr:`report`; the returned
        thread (when not None) satisfies all stream invariants and is
        safe to append to a :class:`~repro.core.state.ForumState`.
        """
        self._seq += 1
        seq = self._seq
        question = thread.question
        if not math.isfinite(question.timestamp):
            self._quarantine(
                seq,
                thread,
                "quarantined:nonfinite_question_time",
                f"question {question.post_id} timestamp is not finite",
            )
            return None
        if thread.thread_id in self._seen_threads:
            self.report.add(
                seq,
                thread.thread_id,
                "dropped:duplicate_thread",
                f"thread {thread.thread_id} already admitted",
            )
            return None
        if question.post_id in self._seen_posts:
            self.report.add(
                seq,
                thread.thread_id,
                "dropped:duplicate_question_post",
                f"question post {question.post_id} already admitted",
            )
            return None
        shift = 0.0
        if question.timestamp < self._last_created:
            shift = self._last_created - question.timestamp
            self.report.add(
                seq,
                thread.thread_id,
                "repaired:late_arrival_clamped",
                f"arrived {shift:.3f}h behind the stream clock",
            )
        if not question.body.strip():
            self.report.add(
                seq,
                thread.thread_id,
                "tolerated:empty_body",
                f"question {question.post_id} has no body text",
            )
        changed = shift != 0.0
        # Where the rounding of ``timestamp + shift`` lands one ulp
        # behind the stream clock, the clamp holds the clock itself.
        start = max(question.timestamp + shift, self._last_created)
        if not math.isfinite(float(question.votes)):
            self.report.add(
                seq,
                thread.thread_id,
                "repaired:votes_coerced",
                f"question {question.post_id} votes -> 0",
            )
            question = replace(question, votes=0)
            changed = True
        kept: list[Post] = []
        local_posts = {question.post_id}
        for answer in thread.answers:
            if answer.post_id in self._seen_posts or answer.post_id in local_posts:
                self.report.add(
                    seq,
                    thread.thread_id,
                    "repaired:duplicate_post_dropped",
                    f"answer post {answer.post_id} already admitted",
                )
                changed = True
                continue
            if not math.isfinite(answer.timestamp):
                self.report.add(
                    seq,
                    thread.thread_id,
                    "repaired:answer_nonfinite_time_dropped",
                    f"answer {answer.post_id} timestamp is not finite",
                )
                changed = True
                continue
            if answer.timestamp < question.timestamp:
                self.report.add(
                    seq,
                    thread.thread_id,
                    "repaired:early_answer_dropped",
                    f"answer {answer.post_id} predates its question",
                )
                changed = True
                continue
            try:
                check_id(answer.author, "answer author")
            except IdOverflowError as err:
                self.report.add(
                    seq,
                    thread.thread_id,
                    "repaired:answer_invalid_author_dropped",
                    f"answer {answer.post_id}: {err}",
                )
                changed = True
                continue
            if answer.author == question.author:
                self.report.add(
                    seq,
                    thread.thread_id,
                    "repaired:self_answer_dropped",
                    f"user {answer.author} answered their own question",
                )
                changed = True
                continue
            fixed = answer
            if not math.isfinite(float(answer.votes)):
                self.report.add(
                    seq,
                    thread.thread_id,
                    "repaired:votes_coerced",
                    f"answer {answer.post_id} votes -> 0",
                )
                fixed = replace(fixed, votes=0)
                changed = True
            if shift:
                fixed = replace(
                    fixed, timestamp=max(fixed.timestamp + shift, start)
                )
            local_posts.add(answer.post_id)
            kept.append(fixed)
        if changed:
            admitted = Thread(
                question=(
                    replace(question, timestamp=start) if shift else question
                ),
                answers=kept,
            )
        else:
            admitted = thread
        self._seen_threads.add(thread.thread_id)
        self._seen_posts.update(local_posts)
        self._last_created = admitted.created_at
        self.n_admitted += 1
        perf.incr("resilience.events_admitted")
        return admitted

    def _quarantine(
        self, seq: int, thread: Thread, action: str, detail: str
    ) -> None:
        if len(self.quarantine) < self.config.quarantine_limit:
            self.quarantine.append(thread)
        else:
            detail += " (quarantine full, event not retained)"
        self.report.add(seq, thread.thread_id, action, detail)
