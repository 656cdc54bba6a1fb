"""Outside-in span tracing of the serving stack for ``run.py --trace``.

The benchmark records spans from its own files: :meth:`Tracer.installed`
wraps public methods of each layer (named after its module) and
restores them afterwards, so no file under ``src/`` changes.  A span is
``(name, start, end, parent, root)``: ``root`` is the id of the
outermost span, which identifies the batch or request, and ``path``
says whether the span ran under a query batch, an event, or a refit
(a refit triggered inside a query batch counts as refit work).  A
layer's self time is its duration minus its child spans' durations.

Spans stay in memory and are written as JSON lines once the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from repro import perf
from repro.core import routing
from repro.core.answer_model import AnswerModel
from repro.core.features import FeatureExtractor
from repro.core.pipeline import ForumPredictor
from repro.core.resilience import StreamGuard
from repro.core.retrieval import CandidateRetriever
from repro.core.routing import QuestionRouter
from repro.core.serving import ServingCore
from repro.core.serving.service import OnlineReport
from repro.core.state import ForumState
from repro.core.timing_model import TimingModel
from repro.core.vote_model import VoteModel

__all__ = ["Tracer", "layer_metrics", "reconcile", "RECONCILE_TOLERANCE"]

QUERY_ROOT = "serving.core.query_batch"
EVENT_ROOT = "serving.core.event"
REPLAY_ROOT = "serving.core.route"
REFIT = "pipeline.refit"
_ROOT_PATHS = {QUERY_ROOT: "query", EVENT_ROOT: "event", REPLAY_ROOT: "replay"}
HEADS = ("answer_model", "vote_model", "timing_model")
RECONCILE_TOLERANCE = 0.05


def _rows(args, result):
    return len(args[1]), None


def _pool(args, result):
    return int(result.size), len(args[2])


# (owner, attribute, span name, size function).  Sizes are rows, pairs
# or pool members; the pool also records its candidate count.
TARGETS = [
    (ServingCore, "process_query_batch", QUERY_ROOT, None),
    (ServingCore, "process_event", EVENT_ROOT, None),
    (ServingCore, "route", REPLAY_ROOT, None),
    (ServingCore, "refit", REFIT, None),
    (StreamGuard, "admit", "resilience.admit", None),
    (ForumState, "append", "state.append", None),
    (ForumState, "evict", "state.evict", None),
    (CandidateRetriever, "pool", "retrieval.pool", _pool),
    (CandidateRetriever, "refresh", "retrieval.refresh", None),
    (FeatureExtractor, "feature_matrix", "features.matrix", _rows),
    (FeatureExtractor, "from_state", "features.from_state", None),
    (AnswerModel, "predict_proba", "answer_model.predict", _rows),
    (VoteModel, "predict", "vote_model.predict", _rows),
    (TimingModel, "predict", "timing_model.predict", _rows),
    (AnswerModel, "fit", "answer_model.fit", None),
    (VoteModel, "fit", "vote_model.fit", None),
    (TimingModel, "fit", "timing_model.fit", None),
    (QuestionRouter, "recommend", "routing.recommend", None),
    (routing, "finish_recommendation", "routing.lp", None),
    (ForumPredictor, "fit_topics", "pipeline.fit_topics", None),
    (ForumPredictor, "build_state", "pipeline.build_state", None),
    (ForumPredictor, "refit_from_state", "pipeline.refit_from_state", None),
    (ForumPredictor, "fit_models", "pipeline.fit_models", None),
]


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    root: int
    path: str  # "query" | "event" | "replay" | "refit" | "other"
    size: int | None = None
    total: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around the wrapped layer methods while enabled."""

    def __init__(self):
        self.enabled = True
        self.spans: list[Span] = []
        self._stack: list[tuple[int, int, str]] = []  # (sid, root, path)
        self._next_id = 0

    def wrap(self, name: str, fn, size_fn=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            if tracer._stack:
                parent, root, path = tracer._stack[-1]
            else:
                parent, root, path = None, sid, _ROOT_PATHS.get(name, "other")
            if name == REFIT:
                path = "refit"
            tracer._stack.append((sid, root, path))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
            size, total = size_fn(args, result) if size_fn else (None, None)
            tracer.spans.append(
                Span(sid, name, start, end, parent, root, path, size, total)
            )
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, size_fn in TARGETS:
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__, size_fn))
                else:
                    wrapped = self.wrap(name, raw, size_fn)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def overhead(self, core: ServingCore, questions, rounds: int = 2) -> float:
        """Route each question with tracing off and on, in alternating
        order; the median traced latency over the untraced, minus one."""
        report = OnlineReport()
        times: dict[bool, list[float]] = {False: [], True: []}
        try:
            for r in range(rounds):
                for i, thread in enumerate(questions):
                    traced_first = (i + r) % 2 == 0
                    for enabled in (traced_first, not traced_first):
                        self.enabled = enabled
                        start = time.perf_counter()
                        core.route(thread, thread.created_at, report)
                        times[enabled].append(time.perf_counter() - start)
        finally:
            self.enabled = True
        return statistics.median(times[True]) / statistics.median(times[False]) - 1

    def write(self, path: Path, spans: list[Span]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in spans:
                out.write(json.dumps(asdict(span)) + "\n")


def _self_times(spans: list[Span]) -> dict[int, float]:
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + s.duration
    return {s.sid: s.duration - child.get(s.sid, 0.0) for s in spans}


def _select(spans, name, paths=None):
    return [s for s in spans if s.name == name and (paths is None or s.path in paths)]


def _p50(values) -> float:
    """Median, or 0 for a layer that never ran in this workload."""
    return float(statistics.median(values)) if values else 0.0


def _per_unit(spans) -> float:
    """Seconds per row (or pair) summed over spans; 0 when none ran."""
    units = sum(s.size for s in spans)
    return sum(s.duration for s in spans) / units if units else 0.0


def layer_metrics(
    spans: list[Span],
    service_metrics: dict,
    registry: perf.PerfRegistry,
    overhead_frac: float,
) -> dict[str, float]:
    """Per-layer metrics of one traced run, by BENCHMARK.json name."""
    self_time = _self_times(spans)
    query = ("query",)
    out: dict[str, float] = {}

    def p50_ms(name, paths=None, scale=1e3):
        return _p50([s.duration for s in _select(spans, name, paths)]) * scale

    def self_p50(name, scale):
        return _p50([self_time[s.sid] for s in _select(spans, name)]) * scale

    out["serving.batcher.wait_ms_p50"] = service_metrics["batch_wait"].get(
        "p50_ms", 0.0
    )
    out["serving.batcher.batch_size_mean"] = service_metrics["queries"][
        "mean_batch_size"
    ]
    out["serving.ingest.rejected"] = (
        service_metrics["queries"]["rejected"]
        + service_metrics["events"]["rejected"]
    )
    out["serving.core.query_batch_ms_p50"] = p50_ms(QUERY_ROOT)
    out["serving.core.query_batch_self_ms_p50"] = self_p50(QUERY_ROOT, 1e3)
    out["serving.core.event_self_ms_p50"] = self_p50(EVENT_ROOT, 1e3)
    pools = _select(spans, "retrieval.pool", query)
    out["retrieval.pool_ms_p50"] = p50_ms("retrieval.pool", query)
    out["retrieval.pool_frac_mean"] = (
        statistics.fmean(s.size / s.total for s in pools) if pools else 0.0
    )
    out["retrieval.dense_fallbacks"] = registry.counter("retrieval.dense_fallbacks")
    out["retrieval.refresh_s_p50"] = p50_ms("retrieval.refresh", scale=1.0)
    matrices = _select(spans, "features.matrix", query)
    out["features.matrix_ms_p50"] = p50_ms("features.matrix", query)
    out["features.us_per_pair"] = _per_unit(matrices) * 1e6
    out["features.pairs"] = sum(s.size for s in matrices)
    out["features.from_state_s_p50"] = p50_ms("features.from_state", scale=1.0)
    for head in HEADS:
        out[f"{head}.predict_us_per_row"] = (
            _per_unit(_select(spans, f"{head}.predict", query)) * 1e6
        )
    for head in HEADS:
        out[f"{head}.fit_s"] = p50_ms(f"{head}.fit", scale=1.0)
    out["routing.recommend_ms_p50"] = p50_ms("routing.recommend", query)
    out["routing.lp_ms_p50"] = p50_ms("routing.lp", query)
    out["state.append_ms_p50"] = p50_ms("state.append")
    out["state.evict_ms_p50"] = p50_ms("state.evict")
    out["resilience.admit_us_p50"] = p50_ms("resilience.admit", scale=1e6)
    out["pipeline.refit_s_p50"] = p50_ms(REFIT, scale=1.0)
    out["pipeline.fit_models_self_s"] = self_p50("pipeline.fit_models", 1.0)
    out["pipeline.fit_topics_s"] = p50_ms("pipeline.fit_topics", scale=1.0)
    roots = [s for s in spans if s.name in (QUERY_ROOT, EVENT_ROOT)]
    root_total = sum(s.duration for s in roots)
    out["unattributed_frac"] = (
        sum(self_time[s.sid] for s in roots) / root_total if root_total else 0.0
    )
    out["trace.overhead_frac"] = overhead_frac
    return out


def reconcile(
    spans: list[Span], registry: perf.PerfRegistry
) -> list[tuple[str, float, float, bool]]:
    """Span totals against the program's own ``repro.perf`` stage timers.

    Returns ``(label, perf_s, span_s, within tolerance)`` per pair.  The
    spans and the registry must cover the same stretch of the run.
    """
    def total(names, parent=None):
        return sum(
            s.duration
            for name in names
            for s in _select(spans, name)
            if parent is None or s.parent in parent
        )

    # Direct children only: a dense-fallback retry inside recommend()
    # featurizes again, outside the online.rank timer.
    serving = {
        s.sid for s in spans if s.name in (QUERY_ROOT, REPLAY_ROOT)
    }
    refits = {s.sid for s in spans if s.name == REFIT}
    pairs = [
        (
            "online.rank ~ features.matrix + model heads (query path)",
            registry.stage("online.rank").total_seconds,
            total(
                ["features.matrix"] + [f"{h}.predict" for h in HEADS],
                parent=serving,
            ),
        ),
        (
            "online.route ~ routing.recommend",
            registry.stage("online.route").total_seconds,
            total(["routing.recommend"], parent=serving),
        ),
        (
            "state.append ~ ForumState.append",
            registry.stage("state.append").total_seconds,
            total(["state.append"]),
        ),
        (
            "online.refit ~ fit_topics + build_state + refit_from_state",
            registry.stage("online.refit").total_seconds,
            total(
                [
                    "pipeline.fit_topics",
                    "pipeline.build_state",
                    "pipeline.refit_from_state",
                ],
                parent=refits,
            ),
        ),
        (
            "pipeline.fit_models ~ answer + vote + timing fits",
            registry.stage("pipeline.fit_models").total_seconds,
            total([f"{h}.fit" for h in HEADS]),
        ),
    ]
    return [
        (
            label,
            a,
            b,
            abs(a - b) <= RECONCILE_TOLERANCE * max(a, b, 1e-12),
        )
        for label, a, b in pairs
    ]
