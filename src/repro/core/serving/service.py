"""Service core and async facade of the recommendation engine.

Two classes split the engine from its drivers:

* :class:`ServingCore` — the synchronous engine: fixed-grid refits
  (plain and recovery-wrapped), candidate preparation, fused
  rank+route, and window-state bookkeeping.  The chronological
  :func:`~repro.core.online.replay` drives it one thread at a time, so
  the replay CLI, the scenario runner and the service all exercise the
  same code.
* :class:`RecommendationService` — the asyncio facade: bounded-queue
  admission (:mod:`~repro.core.serving.ingest`), StreamGuard-guarded
  event ingestion, micro-batched query routing
  (:mod:`~repro.core.serving.batcher`), and health/metrics endpoints
  with latency percentiles from :class:`repro.perf.LatencyHistogram`.

The engine-side config (:class:`OnlineConfig`) and the replay report
(:class:`OnlineReport`) live here; :mod:`repro.core` re-exports them.

Determinism: the service mutates one :class:`ServingCore` from a
single-threaded event loop, the StreamGuard consumes events in queue
order, and all waiting runs on simulated time, so a seeded traffic
schedule replays to identical responses, admissions and latency
percentiles on every run.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field

import numpy as np

from ... import perf
from ...forum.dataset import ForumDataset
from ...forum.models import Thread
from ...ml.ranking import mean_reciprocal_rank, ndcg_at_k, precision_at_k
from ..features import PairBlocks
from ..pipeline import ForumPredictor, PredictorConfig
from ..resilience import (
    DegradationReport,
    ResilienceConfig,
    StreamGuard,
)
from ..retrieval import CandidateRetriever, RetrievalConfig
from ..routing import QuestionRouter, UserLoadTracker
from ..state import ForumState
from .batcher import BatchPolicy, MicroBatcher
from .ingest import AdmissionConfig, IngestGate

__all__ = [
    "OnlineConfig",
    "OnlineReport",
    "ServingCore",
    "CostModel",
    "ServiceConfig",
    "SubmitResult",
    "RouteResponse",
    "RecommendationService",
]

# A refit window must hold at least this many threads and answers for
# the models to be trainable at all.
_MIN_THREADS = 10
_MIN_ANSWERS = 10


@dataclass(frozen=True)
class OnlineConfig:
    """Deployment-loop parameters."""

    refit_interval_hours: float = 120.0
    window_hours: float = 480.0  # sliding feature/training window
    warmup_hours: float = 120.0  # history required before routing starts
    epsilon: float = 0.3
    tradeoff: float = 0.2
    default_capacity: float = 5.0
    top_k: int = 5
    # Two-stage candidate retrieval for the routing/ranking hot path;
    # None keeps the dense score-every-candidate behaviour.
    retrieval: RetrievalConfig | None = None
    # Window of the per-user answer-load counter that every LP enforces
    # as remaining capacity.
    load_window_hours: float = 24.0

    def __post_init__(self):
        if self.refit_interval_hours <= 0 or self.window_hours <= 0:
            raise ValueError("intervals must be positive")
        if self.warmup_hours < 0:
            raise ValueError("warmup_hours must be non-negative")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.load_window_hours <= 0:
            raise ValueError("load_window_hours must be positive")


@dataclass
class OnlineReport:
    """Outcome of one simulated deployment.

    ``rankings`` orders candidates by predicted answer probability (the
    task-(i) model) and is scored against who actually answered;
    ``routed_scores`` records the LP objective of each routed pick.
    """

    n_questions_seen: int = 0
    n_routed: int = 0
    n_refits: int = 0
    rankings: list[tuple[list[int], set[int]]] = field(default_factory=list)
    routed_scores: list[float] = field(default_factory=list)
    # Populated only by resilient runs: what was dropped/repaired/retried.
    degradation: DegradationReport | None = None

    @property
    def hit_rate_at_1(self) -> float:
        if not self.rankings:
            return float("nan")
        return float(
            np.mean([precision_at_k(r, rel, 1) for r, rel in self.rankings])
        )

    def precision_at(self, k: int) -> float:
        if not self.rankings:
            return float("nan")
        return float(
            np.mean([precision_at_k(r, rel, k) for r, rel in self.rankings])
        )

    @property
    def mrr(self) -> float:
        if not self.rankings:
            return float("nan")
        return mean_reciprocal_rank(self.rankings)

    def ndcg_at(self, k: int) -> float:
        if not self.rankings:
            return float("nan")
        return float(
            np.mean([ndcg_at_k(r, rel, k) for r, rel in self.rankings])
        )


@dataclass
class _PreparedQuery:
    """One query after candidate preparation, ready for fused scoring."""

    thread: Thread
    now: float
    candidates: np.ndarray
    pool: np.ndarray | None
    rank_candidates: np.ndarray


@dataclass
class RouteResponse:
    """Answer of the service to one routed question."""

    question_id: int
    # "ok" | "no_recommendation" | "not_ready" | "no_candidates"
    # | "rejected" — every query gets a response; "rejected" is the
    # admission-control shed path, the rest came out of the engine.
    status: str
    ranked: list[int] = field(default_factory=list)
    routed: list[tuple[int, float]] = field(default_factory=list)
    score: float | None = None
    degraded: bool = False
    detail: str = ""
    arrival_s: float = float("nan")
    completed_s: float = float("nan")

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def latency_s(self) -> float:
        return self.completed_s - self.arrival_s


@dataclass
class SubmitResult:
    """Answer of the service to one event submission.

    StreamGuard faults surface here as *degraded* responses — the
    submitter always hears back what happened to its event ("repaired",
    "quarantined", "dropped"), never silence.
    """

    thread_id: int
    # "admitted" | "repaired" | "quarantined" | "dropped" | "rejected"
    status: str
    degraded: bool = False
    actions: tuple[str, ...] = ()
    detail: str = ""
    arrival_s: float = float("nan")
    completed_s: float = float("nan")

    @property
    def ok(self) -> bool:
        return self.status in ("admitted", "repaired")

    @property
    def latency_s(self) -> float:
        return self.completed_s - self.arrival_s


class ServingCore:
    """Synchronous refit/route/state engine behind every serving surface.

    Owns the predictor, the live window state, the router (plus
    retriever and load tracker) and the fixed refit grid.
    :func:`~repro.core.online.replay` drives it one thread at a time;
    the async service drives it from its ingestion worker and
    micro-batcher.  All methods are synchronous and must be called from
    one thread (or one event loop) at a time.

    Refits are incremental: the first feasible one fits topics and
    bootstraps a long-lived :class:`~repro.core.state.ForumState` from
    the window; every later one evicts expired threads from that state
    and warm-starts the task models on it.  The training window of a
    refit at ``now`` is ``[now - window_hours, now)``.  It is
    end-exclusive by construction: every event runs the grid check
    before it is observed, so a thread created exactly at ``now`` enters
    the state after the refit and trains the next one.
    """

    def __init__(
        self,
        predictor_config: PredictorConfig | None = None,
        online_config: OnlineConfig | None = None,
        resilience_config: ResilienceConfig | None = None,
    ):
        self.predictor_config = predictor_config or PredictorConfig()
        self.online_config = online_config or OnlineConfig()
        self.resilience_config = resilience_config
        self._predictor: ForumPredictor | None = None
        self._state: ForumState | None = None
        self._router: QuestionRouter | None = None
        # Sorted, distinct int64 ids; rebound once per refit epoch.
        self._candidates = np.empty(0, dtype=np.int64)
        # Shared across refits: the retriever persists so its indices
        # refresh (and MF warm-starts) instead of rebuilding, and the
        # load tracker accumulates the replayed answer events.
        self._retriever: CandidateRetriever | None = None
        self._load = UserLoadTracker(self.online_config.load_window_hours)
        # Resilient-path bookkeeping: the last window that refit cleanly
        # (the fallback snapshot) and the consecutive-failure count that
        # drives the schedule-level backoff.
        self._last_good: ForumDataset | None = None
        self._refit_failures = 0
        # Fixed refit grid, anchored to the stream clock.
        self.next_refit = self.online_config.warmup_hours
        self._skip_refits = 0
        # Admitted events, in admission order; the bootstrap window of
        # event-driven (service / guarded-replay) refits.  Kept only
        # while no state exists: released by the first refit that
        # builds one, which is from then on the window's only source.
        self.accepted: list[Thread] = []
        self.guard: StreamGuard | None = None
        # The refit entry point recovery wraps; tests may swap it to
        # inject refit failures.
        self.refit_hook = self.refit
        # Counts router binds: every query until the next bind is scored
        # against the frozen state of the current epoch.
        self.refit_epoch = 0

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def from_artifacts(
        cls,
        predictor: ForumPredictor,
        candidates,
        *,
        online_config: OnlineConfig | None = None,
        resilience_config: ResilienceConfig | None = None,
    ) -> "ServingCore":
        """A core serving a prefitted predictor, warmed immediately.

        Binds the router without replaying the training window and
        parks the refit grid at infinity — the scale path fits offline
        and serves frozen.
        """
        if predictor.extractor is None:
            raise RuntimeError("predictor is not fitted")
        core = cls(predictor.config, online_config, resilience_config)
        core._predictor = predictor
        core._bind_router(candidates)
        core.next_refit = float("inf")
        return core

    def close(self) -> None:
        """No-op: the core owns no resource that needs releasing.

        The predictor, state and router are plain in-process objects;
        the method stays so callers can retire a core uniformly.
        """

    # -- readiness -----------------------------------------------------------

    @property
    def warmed(self) -> bool:
        """True once a router has been bound by a successful refit."""
        return self._router is not None

    def attach_guard(
        self, config: ResilienceConfig, report: DegradationReport
    ) -> StreamGuard:
        """Create (or replace) the ingestion StreamGuard."""
        self.guard = StreamGuard(config, report)
        return self.guard

    # -- refitting -----------------------------------------------------------

    def _feasible(self, n_threads: int, n_answers: int) -> bool:
        return n_threads >= _MIN_THREADS and n_answers >= _MIN_ANSWERS

    def refit(self, dataset: ForumDataset | None, now: float) -> bool:
        """Refit on the window ending at ``now``; False when infeasible.

        ``dataset`` is read only by the bootstrap refit, while no state
        exists; later refits may pass ``None``.
        """
        cfg = self.online_config
        if self._predictor is None:
            self._predictor = ForumPredictor(self.predictor_config)
        predictor = self._predictor
        start = max(0.0, now - cfg.window_hours)
        if self._state is None:
            # First feasible refit: fit topics once, then bootstrap the
            # long-lived state from the current window.
            window = dataset.threads_in_window(start, now)
            if not self._feasible(len(window), window.num_answers):
                return False
            with perf.timer("online.refit"):
                predictor.fit_topics(window)
                self._state = predictor.build_state(window)
                predictor.refit_from_state(self._state)
            candidates = self._state.answerers
        else:
            self._state.evict(start)
            if not self._feasible(len(self._state), self._state.num_answers):
                return False
            with perf.timer("online.refit"):
                predictor.refit_from_state(self._state)
            candidates = self._state.answerers
        self._bind_router(candidates)
        return True

    def _bind_router(self, candidates) -> None:
        cfg = self.online_config
        self._router = QuestionRouter(
            self._predictor,
            epsilon=cfg.epsilon,
            default_capacity=cfg.default_capacity,
            load_window_hours=cfg.load_window_hours,
            retriever=self._bind_retriever(),
            load_tracker=self._load,
        )
        self._candidates = np.unique(np.fromiter(candidates, dtype=np.int64))
        self.refit_epoch += 1

    def _bind_retriever(self) -> CandidateRetriever | None:
        """Build or refresh the candidate indices after a refit.

        The retriever outlives individual refits: the topic index is
        diffed row-wise against the new frozen tables, the MF embedding
        warm-starts from its previous factors, and (once a state exists)
        the recency index rides the state's append/evict events.
        """
        cfg = self.online_config
        if cfg.retrieval is None or cfg.retrieval.mode != "two_stage":
            return None
        if self._retriever is None:
            self._retriever = CandidateRetriever(
                cfg.retrieval, self._predictor.topics
            )
        else:
            self._retriever.topics = self._predictor.topics
        if self._state is not None:
            self._retriever.attach(self._state)
        else:
            self._retriever.detach()
        extractor = self._predictor.extractor
        self._retriever.refresh(extractor.frozen, extractor.window)
        return self._retriever

    def maybe_refit(
        self, dataset: ForumDataset, now: float, report: OnlineReport
    ) -> None:
        """Fixed-grid refit check of the plain replay path.

        Advances on the grid, catching up over gaps, so the cadence
        never drifts with arrival times.
        """
        cfg = self.online_config
        if now >= self.next_refit:
            if self.refit_hook(dataset, now):
                report.n_refits += 1
            while self.next_refit <= now:
                self.next_refit += cfg.refit_interval_hours

    def maybe_refit_resilient(
        self,
        now: float,
        report: OnlineReport,
        degradation: DegradationReport,
        res: ResilienceConfig,
    ) -> None:
        """Grid check with bounded retry, fallback and backoff.

        Until a state exists, the bootstrap window is built from
        :attr:`accepted` when a refit is actually attempted; the
        end-exclusive window slice excludes an event sitting exactly at
        ``now``, exactly as the plain path excludes it from the full
        dataset.
        """
        cfg = self.online_config
        if now >= self.next_refit:
            if self._skip_refits > 0:
                self._skip_refits -= 1
                degradation.add(
                    -1, -1, "refit:backoff_skipped",
                    f"{self._skip_refits} grid intervals of backoff remain",
                )
            else:
                history = (
                    ForumDataset(self.accepted) if self._state is None else None
                )
                ok = self.refit_with_recovery(history, now, degradation, res)
                if ok:
                    report.n_refits += 1
                elif self._refit_failures > 0:
                    self._skip_refits = min(
                        res.backoff_base ** (self._refit_failures - 1),
                        res.max_backoff_intervals,
                    )
            while self.next_refit <= now:
                self.next_refit += cfg.refit_interval_hours

    def refit_with_recovery(
        self,
        window_dataset: ForumDataset | None,
        now: float,
        degradation: DegradationReport,
        res: ResilienceConfig,
    ) -> bool:
        """Bounded retry around :meth:`refit`; snapshot fallback on failure.

        Retries cover transient faults (worker death, allocation
        failure); a deterministic poison — e.g.
        :class:`~repro.core.resilience.NonFiniteFeatureError` from a
        corrupt window — fails every attempt and lands in the fallback,
        which restores the last cleanly fitted window and retrains on
        it.  Threads admitted after that snapshot are dropped from the
        training window (they remain routed); serving never stops.
        """
        prior_state = self._state
        attempts = 0
        while True:
            try:
                ok = self.refit_hook(window_dataset, now)
            except Exception as exc:  # noqa: BLE001 — recovery boundary
                attempts += 1
                self._state = prior_state
                perf.incr("resilience.refit_retries")
                degradation.add(
                    -1, -1, "refit:retry",
                    f"attempt {attempts}: {type(exc).__name__}: {exc}"[:200],
                )
                if attempts <= res.max_refit_retries:
                    continue
                self._refit_failures += 1
                self._fallback_to_snapshot(degradation, exc)
                return False
            break
        if ok:
            self._refit_failures = 0
            if self._state is not None:
                # Snapshot the window that just fitted cleanly.  The
                # state now holds every thread a later window can
                # need, so the admitted history is released.
                self._last_good = self._state.to_dataset()
                self.accepted.clear()
        return ok

    def _fallback_to_snapshot(
        self, degradation: DegradationReport, exc: Exception
    ) -> None:
        """Restore the last-good window and retrain, keeping serving up."""
        if self._last_good is None or self._predictor is None:
            # Nothing fitted cleanly yet: flush the poisoned bootstrap
            # state and let a later grid point try again once the
            # window has slid past the corrupt threads.
            self._state = None
            degradation.add(
                -1, -1, "refit:fallback_unavailable",
                f"{type(exc).__name__} before any successful refit",
            )
            return
        perf.incr("resilience.refit_fallbacks")
        degradation.add(
            -1, -1, "refit:fallback",
            f"{type(exc).__name__}: restored last-good window of "
            f"{len(self._last_good)} threads",
        )
        try:
            self._state = ForumState.from_dataset(
                self._last_good, self._predictor.topics
            )
            self._predictor.refit_from_state(self._state)
            self._bind_router(self._state.answerers)
        except Exception as inner:  # noqa: BLE001 — keep stale router
            degradation.add(
                -1, -1, "refit:fallback_unavailable",
                f"snapshot retrain failed ({type(inner).__name__}); "
                "continuing with the previous router",
            )

    # -- state bookkeeping ---------------------------------------------------

    def keep_admitted(self, thread: Thread) -> None:
        """Keep an admitted thread for the bootstrap window.

        Only while a bootstrap refit can still read it: no state exists
        yet and the grid is live (a :meth:`from_artifacts` core parks it
        at infinity).  After that the state is the window's one source,
        and :attr:`accepted` stays empty.
        """
        if self._state is None and math.isfinite(self.next_refit):
            self.accepted.append(thread)

    def observe(self, thread: Thread) -> None:
        """Fold a routed thread into the live window (plain path)."""
        self._load.observe_thread(thread)
        if self._state is not None:
            self._state.append(thread)

    def observe_admitted(
        self, thread: Thread, degradation: DegradationReport
    ) -> None:
        """Fold an admitted thread in, tolerating stale clocks."""
        self._load.observe_thread(thread)
        if self._state is not None:
            if thread.created_at >= self._state.last_created:
                self._state.append(thread)
            else:  # unreachable once admitted; belt and braces
                seq = self.guard._seq if self.guard is not None else -1
                degradation.add(
                    seq, thread.thread_id, "dropped:stale_event",
                    "behind the live state clock after admission",
                )

    # -- routing -------------------------------------------------------------

    def prepare_query(
        self, thread: Thread, now: float, report: OnlineReport
    ) -> tuple[_PreparedQuery | None, str]:
        """Candidate/pool preparation for one query.

        Returns ``(None, status)`` when the query cannot be scored:
        before warmup or the first refit (``"not_ready"``), with nobody
        to recommend (``"no_candidates"``), or with an empty retrieval
        pool and dense fallback disabled (``"no_candidates"``).
        """
        cfg = self.online_config
        if self._router is None or now < cfg.warmup_hours:
            return None, "not_ready"
        report.n_questions_seen += 1
        candidates = self._candidates[self._candidates != thread.asker]
        if not candidates.size:
            return None, "no_candidates"
        # Two-stage retrieval: one pool per question, shared by the
        # ranking and the LP; dense mode scores every candidate.
        pool = None
        rank_candidates = candidates
        if self._router.retriever is not None:
            pool = self._router.candidate_pool(thread, candidates)
            if pool.size:
                rank_candidates = pool
            elif not self._router.retriever.config.dense_fallback:
                return None, "no_candidates"
            # Empty pool with fallback enabled: rank densely here and
            # let recommend() take its own dense retry on the same pool.
        return (
            _PreparedQuery(thread, now, candidates, pool, rank_candidates),
            "ok",
        )

    def predict_prepared(
        self, prepared_list: list[_PreparedQuery]
    ) -> list[dict[str, np.ndarray]]:
        """Model predictions for a refit segment of prepared queries.

        The single scoring path behind :meth:`route` and the fused
        batch flush: one ``feature_matrix`` call featurizes every query
        of the segment, and the model heads run once over the stacked
        rows.

        The answer head scores every row; the vote and timing heads
        score only rows with ``answer >= epsilon`` (the router's), and
        hold NaN elsewhere.  That covers every set the LP is handed: a
        dense candidate list, a two-stage pool, and the dense fallback
        after an empty pool all read ``v_hat`` and ``r_hat`` only at
        eligible rows of the set scored here; the retry after an
        infeasible nonempty pool recomputes through ``predict_batch``.
        Every head is row-invariant, so batched equals sequential, bit
        for bit.
        """
        predictor = self._router.predictor
        threads = [p.thread for p in prepared_list]
        sizes = np.array([p.rank_candidates.size for p in prepared_list])
        blocks = PairBlocks(
            np.concatenate([p.rank_candidates for p in prepared_list]),
            threads,
            sizes,
        )
        horizons = np.repeat(predictor._horizons(threads), sizes)
        with perf.timer("online.rank"):
            x = predictor.extractor.feature_matrix(blocks)
            predictions = predictor.predict_matrix(
                x, horizons, epsilon=self._router.epsilon
            )
        results = []
        start = 0
        for size in sizes.tolist():
            results.append({
                key: values[start : start + size]
                for key, values in predictions.items()
            })
            start += size
        return results

    def finish_query(
        self,
        prepared: _PreparedQuery,
        predictions: dict[str, np.ndarray],
        report: OnlineReport,
        degradation: DegradationReport | None = None,
    ) -> RouteResponse:
        """Ranking + Sec.-V LP from already-computed predictions."""
        cfg = self.online_config
        thread = prepared.thread
        scores = predictions["answer"]
        degraded = False
        if degradation is not None:
            bad = ~np.isfinite(scores)
            if bad.any():
                degradation.add(
                    -1, thread.thread_id, "masked:nonfinite_score",
                    f"{int(bad.sum())} of {len(scores)} candidate scores",
                )
                # Mask for the ranking only; the LP receives the raw
                # predictions, exactly as when it recomputes them.
                scores = np.where(bad, -np.inf, scores)
                degraded = True
        order = np.argsort(-scores, kind="stable")
        ranked = prepared.rank_candidates[order[: cfg.top_k]].tolist()
        actual = set(thread.answerers)
        if actual:
            report.rankings.append((ranked, actual))
        # Routing pick: the Sec.-V LP over the eligible set (the pool,
        # when two-stage retrieval already narrowed it), reusing the
        # fused predictions instead of re-scoring the same pairs.
        result = self._router.recommend(
            thread,
            prepared.candidates,
            tradeoff=cfg.tradeoff,
            pool=prepared.pool,
            predictions=predictions,
        )
        # The router's own clock, blind to whatever wraps ``recommend``.
        perf.get_registry().add_time(
            "online.route", self._router.last_recommend_s
        )
        if result is None:
            return RouteResponse(
                thread.thread_id,
                "no_recommendation",
                ranked=ranked,
                degraded=degraded,
            )
        top_user = result.ranked_users()[0][0]
        idx = int(np.flatnonzero(result.users == top_user)[0])
        score = float(result.scores[idx])
        if degradation is not None and not math.isfinite(score):
            degradation.add(
                -1, thread.thread_id, "masked:nonfinite_score",
                "routing objective not finite; pick not recorded",
            )
            return RouteResponse(
                thread.thread_id,
                "no_recommendation",
                ranked=ranked,
                degraded=True,
                detail="routing objective not finite",
            )
        report.n_routed += 1
        report.routed_scores.append(score)
        return RouteResponse(
            thread.thread_id,
            "ok",
            ranked=ranked,
            routed=result.ranked_users(),
            score=score,
            degraded=degraded or result.dense_fallback,
        )

    def route(
        self,
        thread: Thread,
        now: float,
        report: OnlineReport,
        degradation: DegradationReport | None = None,
    ) -> RouteResponse:
        """Rank + route one question against the current model."""
        prepared, status = self.prepare_query(thread, now, report)
        if prepared is None:
            return RouteResponse(thread.thread_id, status)
        # Who-will-answer ranking: candidates by predicted a_uq
        # (batch-featurized across the whole candidate set).
        predictions = self.predict_prepared([prepared])[0]
        perf.incr("online.candidate_pairs", len(prepared.rank_candidates))
        return self.finish_query(prepared, predictions, report, degradation)

    def process_query_batch(
        self,
        threads: list[Thread],
        report: OnlineReport,
        degradation: DegradationReport | None = None,
        res: ResilienceConfig | None = None,
    ) -> list[RouteResponse]:
        """Route a coalesced batch of queries with fused scoring.

        Queries are processed in arrival order.  Within a *segment* —
        a maximal run of queries with no refit grid point between them
        — candidate featurization and model scoring fuse into one
        ``predict_batch`` call across every (candidate, question) pair
        of the segment; a due refit flushes the open segment first, so
        every query is scored by the same model as when routed one at a
        time.  The contract against one-at-a-time routing: batched
        equals sequential, bit for bit — every model head runs its
        products on fixed 64-row tiles, so a row's scores do not depend
        on the rows stacked with it.  Each segment's question topics
        ``d(q)`` are inferred in one pass before its first query is
        prepared (retrieval reads them first); inference is
        batch-invariant, so they are bit-identical to one-at-a-time
        routing.
        """
        responses: list[RouteResponse | None] = [None] * len(threads)
        segment: list[tuple[int, _PreparedQuery]] = []
        inferred = 0  # queries before this index have their d(q)

        def flush() -> None:
            if not segment:
                return
            prepared_list = [prepared for _, prepared in segment]
            predictions = self.predict_prepared(prepared_list)
            perf.incr(
                "online.candidate_pairs",
                sum(len(p.rank_candidates) for p in prepared_list),
            )
            perf.incr("serving.fused_queries", len(segment))
            for (idx, prepared), preds in zip(segment, predictions):
                responses[idx] = self.finish_query(
                    prepared, preds, report, degradation
                )
            segment.clear()

        for idx, thread in enumerate(threads):
            now = thread.created_at
            if now >= self.next_refit and degradation is not None:
                # A refit changes the model mid-batch: flush queries
                # prepared against the old one before it happens.
                flush()
                self.maybe_refit_resilient(
                    now,
                    report,
                    degradation,
                    res or self.resilience_config or ResilienceConfig(),
                )
            if idx >= inferred:
                inferred = self._infer_segment(threads, idx, degradation)
            prepared, status = self.prepare_query(thread, now, report)
            if prepared is None:
                responses[idx] = RouteResponse(thread.thread_id, status)
            else:
                segment.append((idx, prepared))
        flush()
        return responses

    def _infer_segment(
        self,
        threads: list[Thread],
        start: int,
        degradation: DegradationReport | None,
    ) -> int:
        """Infer ``d(q)`` for the segment opening at ``threads[start]``.

        The segment runs up to the next query a refit may precede (no
        refit happens inside a batch without ``degradation``).  Queries
        :meth:`prepare_query` turns away as ``"not_ready"`` are skipped.
        Returns the segment's end index.
        """
        end = len(threads)
        if degradation is not None:
            end = next(
                (
                    i
                    for i in range(start + 1, end)
                    if threads[i].created_at >= self.next_refit
                ),
                end,
            )
        if self._router is not None:
            warmup = self.online_config.warmup_hours
            self._predictor.topics.post_topics_many(
                [
                    t.question
                    for t in threads[start:end]
                    if t.created_at >= warmup
                ]
            )
        return end

    def process_event(
        self,
        thread: Thread,
        report: OnlineReport,
        degradation: DegradationReport,
        res: ResilienceConfig,
    ) -> tuple[Thread | None, tuple[str, ...]]:
        """Guard, record and fold one submitted event.

        Returns the admitted thread (None when quarantined/dropped)
        plus the guard/degradation actions this event triggered, so the
        caller can answer the submitter truthfully.
        """
        if self.guard is None:
            self.attach_guard(res, degradation)
        before = len(degradation.records)
        admitted = self.guard.admit(thread)
        actions = tuple(
            record.action for record in degradation.records[before:]
        )
        if admitted is None:
            return None, actions
        self.keep_admitted(admitted)
        now = admitted.created_at
        self.maybe_refit_resilient(now, report, degradation, res)
        self.observe_admitted(admitted, degradation)
        return admitted, actions


@dataclass(frozen=True)
class CostModel:
    """A deterministic queueing model: fixed service time per unit of work.

    Under the virtual clock the engine's real compute takes zero
    simulated time, so queueing dynamics (admission, batching, latency
    percentiles) would degenerate without a cost model.  These charges
    (seconds) stand in for the real per-item work and make the whole
    simulation deterministic: identical seeds produce identical queue
    depths, rejections and percentiles on any machine.  The latencies it
    yields are simulated, not measured; ``benchmarks/e2e`` measures the
    same service in wall-clock time.
    """

    event_s: float = 0.0005
    query_batch_s: float = 0.002  # fixed overhead per dispatched batch
    query_s: float = 0.004  # marginal cost per query in a batch

    def __post_init__(self):
        if min(self.event_s, self.query_batch_s, self.query_s) < 0:
            raise ValueError("costs must be non-negative")

    def batch_cost(self, n_queries: int) -> float:
        return self.query_batch_s + self.query_s * n_queries


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the async serving facade."""

    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    batch: BatchPolicy = field(default_factory=BatchPolicy)
    # None disables simulated service time: processing consumes no
    # virtual time and latency reflects pure queueing/batching waits.
    cost: CostModel | None = field(default_factory=CostModel)


class RecommendationService:
    """Asyncio facade: submit_event / route_question / health / metrics.

    One event worker drains the gate's event queue through the
    StreamGuard and the refit grid; one micro-batcher coalesces
    queries into fused rank+route batches.  Both mutate the single
    :class:`ServingCore` from the same event loop, so the engine needs
    no locking and the whole service is deterministic under the
    virtual clock.
    """

    def __init__(
        self,
        core: ServingCore,
        config: ServiceConfig | None = None,
    ):
        self.core = core
        self.config = config or ServiceConfig()
        self.gate = IngestGate(self.config.admission)
        self.report = OnlineReport()
        self.degradation = DegradationReport()
        self.report.degradation = self.degradation
        self._res = core.resilience_config or ResilienceConfig()
        # Service-local registry: latency histograms of this service
        # instance, independent of the process-wide stage timers.
        self.perf = perf.PerfRegistry()
        cost = self.config.cost
        self._batcher = MicroBatcher(
            self.config.batch,
            self._handle_query_batch,
            queue=self.gate.queries,
            cost=cost.batch_cost if cost is not None else None,
        )
        self._tasks: list[asyncio.Task] = []
        self.n_responses = 0

    # -- lifecycle -----------------------------------------------------------

    def warm(self, dataset: ForumDataset) -> None:
        """Synchronously replay history events to fit the first model.

        Equivalent to submitting every thread of ``dataset`` as an
        event before any traffic arrives — the same guarded path, just
        without queueing.
        """
        for thread in dataset:
            self.core.process_event(
                thread, self.report, self.degradation, self._res
            )

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._tasks = [loop.create_task(self._event_worker())]
        self._tasks.append(self._batcher.start())

    async def stop(self) -> None:
        self.gate.close()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        await self._batcher.stop()
        self._tasks = []

    # -- request paths -------------------------------------------------------

    async def submit_event(self, thread: Thread) -> SubmitResult:
        """Submit one forum event (a thread) for ingestion."""
        loop = asyncio.get_running_loop()
        arrival = loop.time()
        future = loop.create_future()
        admitted = await self.gate.offer_event(((thread, arrival), future))
        if not admitted:
            result = SubmitResult(
                thread.thread_id,
                "rejected",
                degraded=True,
                detail="event queue full",
                arrival_s=arrival,
                completed_s=loop.time(),
            )
            self._finish_event(result)
            return result
        return await future

    async def route_question(self, thread: Thread) -> RouteResponse:
        """Route one question; resolves when its batch was served."""
        loop = asyncio.get_running_loop()
        arrival = loop.time()
        future = loop.create_future()
        admitted = await self.gate.offer_query(((thread, arrival), future))
        if not admitted:
            response = RouteResponse(
                thread.thread_id,
                "rejected",
                detail="query queue full",
                arrival_s=arrival,
                completed_s=loop.time(),
            )
            self.n_responses += 1
            return response
        return await future

    # -- endpoints -----------------------------------------------------------

    def health(self) -> dict:
        """Liveness/readiness summary, cheap enough to poll."""
        quarantined = (
            len(self.core.guard.quarantine)
            if self.core.guard is not None
            else 0
        )
        degraded = self.core._refit_failures > 0 or quarantined > 0
        status = (
            "warming"
            if not self.core.warmed
            else ("degraded" if degraded else "ok")
        )
        return {
            "status": status,
            "warmed": self.core.warmed,
            "pending_events": self.gate.pending_events,
            "pending_queries": self.gate.pending_queries,
            "n_refits": self.report.n_refits,
            "refit_failures": self.core._refit_failures,
            "quarantined": quarantined,
            "next_refit_hours": self.core.next_refit,
        }

    def metrics(self) -> dict:
        """Operational metrics with latency percentiles."""
        out: dict = {
            "queries": {
                "admitted": self.gate.n_queries_admitted,
                "rejected": self.gate.n_queries_rejected,
                "batches": self._batcher.n_batches,
                "mean_batch_size": round(self._batcher.mean_batch_size, 3),
            },
            "events": {
                "admitted": self.gate.n_events_admitted,
                "rejected": self.gate.n_events_rejected,
            },
            "engine": {
                "n_questions_seen": self.report.n_questions_seen,
                "n_routed": self.report.n_routed,
                "n_refits": self.report.n_refits,
                "refit_epoch": self.core.refit_epoch,
            },
            "degradation": self.degradation.summary(),
        }
        for key, name in (
            ("query_latency", "serving.query_latency"),
            ("event_latency", "serving.event_latency"),
            ("batch_wait", "serving.batch_wait"),
        ):
            hist = self.perf.histogram(name)
            out[key] = {
                "count": hist.count,
                "p50_ms": round(hist.percentile(50) * 1e3, 4),
                "p95_ms": round(hist.percentile(95) * 1e3, 4),
                "p99_ms": round(hist.percentile(99) * 1e3, 4),
                "mean_ms": round(hist.mean * 1e3, 4),
            } if hist.count else {"count": 0}
        return out

    # -- workers -------------------------------------------------------------

    def _classify(self, admitted, actions: tuple[str, ...]) -> tuple[str, bool]:
        if admitted is not None:
            if actions:
                return "repaired", True
            return "admitted", False
        for action in actions:
            if action.startswith("quarantined"):
                return "quarantined", True
        return "dropped", True

    async def _event_worker(self) -> None:
        cost = self.config.cost
        loop = asyncio.get_running_loop()
        while True:
            (thread, arrival), future = await self.gate.events.get()
            if cost is not None and cost.event_s > 0:
                await asyncio.sleep(cost.event_s)
            admitted, actions = self.core.process_event(
                thread, self.report, self.degradation, self._res
            )
            status, degraded = self._classify(admitted, actions)
            result = SubmitResult(
                thread.thread_id,
                status,
                degraded=degraded,
                actions=actions,
                detail="; ".join(actions),
                arrival_s=arrival,
                completed_s=loop.time(),
            )
            self._finish_event(result)
            if not future.done():
                future.set_result(result)

    def _finish_event(self, result: SubmitResult) -> None:
        self.n_responses += 1
        if math.isfinite(result.latency_s):
            self.perf.record_latency("serving.event_latency", result.latency_s)

    def _handle_query_batch(self, payloads: list) -> list[RouteResponse]:
        """Sync batch handler run by the micro-batcher."""
        loop = asyncio.get_running_loop()
        dispatched = loop.time()
        for _, arrival in payloads:
            # Queue + coalescing time before the engine saw the query.
            self.perf.record_latency(
                "serving.batch_wait", dispatched - arrival
            )
        threads = [thread for thread, _ in payloads]
        responses = self.core.process_query_batch(
            threads, self.report, self.degradation, self._res
        )
        completed = loop.time()
        for (_, arrival), response in zip(payloads, responses):
            response.arrival_s = arrival
            response.completed_s = completed
            self.perf.record_latency(
                "serving.query_latency", completed - arrival
            )
            self.n_responses += 1
        return responses
