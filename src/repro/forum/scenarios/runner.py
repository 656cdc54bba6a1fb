"""Drive every scenario preset through the full stack and report.

The :class:`ScenarioMatrixRunner` runs each preset twice:

* a **replay leg** — the preset's dataset through
  :func:`~repro.core.online.replay` on the hardened path (StreamGuard +
  recovery) with the preset's fault plan, producing ranking accuracy,
  refit counts and a
  :class:`~repro.core.resilience.DegradationReport`;
* a **serving leg** — a seeded traffic schedule through the async
  :class:`~repro.core.serving.service.RecommendationService` under the
  virtual clock with the preset's admission bounds, producing latency
  percentiles and shed counts.

Accuracy is reported as-is *and* as a delta against the ``baseline``
preset at the same seed/scale, so a scenario's effect is separated from
the base forum's difficulty.  :func:`scenario_digest` collapses a
replay report into one sha256 hex string over every routing decision
and degradation record — the quantity the golden-replay regression
tests pin per preset.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ...core.online import replay
from ...core.pipeline import PredictorConfig
from ...core.resilience import ResilienceConfig
from ...core.retrieval import RetrievalConfig
from ...core.serving.clock import VirtualClock
from ...core.serving.harness import run_load
from ...core.serving.service import (
    OnlineConfig,
    OnlineReport,
    RecommendationService,
    ServiceConfig,
    ServingCore,
)
from ..traffic import generate_traffic
from .presets import ScenarioData, build_scenario, list_scenarios

__all__ = [
    "SCENARIO_PREDICTOR",
    "SCENARIO_ONLINE",
    "SCENARIO_ENGINES",
    "ScenarioReport",
    "scenario_digest",
    "ScenarioMatrixRunner",
]

# Matrix-sized model/loop settings: the full preset grid has to finish
# in a CI lane, so topics and epochs are trimmed the same way the
# serving test-suite trims them.
SCENARIO_PREDICTOR = PredictorConfig(
    n_topics=2, vote_epochs=30, timing_epochs=30, betweenness_sample_size=50
)
SCENARIO_ONLINE = OnlineConfig(
    refit_interval_hours=96.0, window_hours=360.0, warmup_hours=96.0
)

# The config axis of the preset x config matrix: the same scenario
# stream replayed under different routing-engine configurations.  The
# primary ("dense") engine is what the golden digests pin; extra
# entries replay the same dataset through alternative engines — today
# that is the two-stage retrieve-then-rank path.
SCENARIO_ENGINES: dict[str, OnlineConfig] = {
    "two_stage": OnlineConfig(
        refit_interval_hours=96.0,
        window_hours=360.0,
        warmup_hours=96.0,
        retrieval=RetrievalConfig(),
    ),
}


def scenario_digest(report: OnlineReport) -> str:
    """One hex digest over every decision a replay made.

    Covers the counters, each question's full ranking and actual
    answerer set, the LP objective of every routed pick (as exact float
    hex, not a rounded repr) and each degradation record's
    ``seq:thread:action`` triple.  Detail strings are excluded — they
    are allowed to gain context without invalidating golden digests.
    """
    h = hashlib.sha256()
    h.update(
        f"{report.n_questions_seen}:{report.n_routed}:{report.n_refits};".encode()
    )
    for ranked, actual in report.rankings:
        h.update(",".join(str(int(u)) for u in ranked).encode())
        h.update(b"|")
        h.update(",".join(str(int(u)) for u in sorted(actual)).encode())
        h.update(b";")
    for score in report.routed_scores:
        h.update(float(score).hex().encode())
        h.update(b";")
    if report.degradation is not None:
        for record in report.degradation.records:
            h.update(
                f"{record.seq}:{record.thread_id}:{record.action};".encode()
            )
    return h.hexdigest()


@dataclass
class ScenarioReport:
    """Everything one preset produced across both legs."""

    name: str
    seed: int
    scale: float
    n_threads: int = 0
    n_answers: int = 0
    n_users: int = 0
    digest: str = ""
    accuracy: dict = field(default_factory=dict)
    accuracy_delta: dict = field(default_factory=dict)
    n_routed: int = 0
    n_refits: int = 0
    degradation: dict = field(default_factory=dict)
    n_degradations: int = 0
    latency_ms: dict = field(default_factory=dict)
    n_rejected: int = 0
    query_statuses: dict = field(default_factory=dict)
    distortion: dict = field(default_factory=dict)
    # Replay-only results under alternative engine configs, keyed by
    # engine name (the config axis of the matrix).
    engines: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "scale": self.scale,
            "n_threads": self.n_threads,
            "n_answers": self.n_answers,
            "n_users": self.n_users,
            "digest": self.digest,
            "accuracy": dict(self.accuracy),
            "accuracy_delta": dict(self.accuracy_delta),
            "n_routed": self.n_routed,
            "n_refits": self.n_refits,
            "degradation": dict(self.degradation),
            "n_degradations": self.n_degradations,
            "latency_ms": dict(self.latency_ms),
            "n_rejected": self.n_rejected,
            "query_statuses": dict(self.query_statuses),
            "distortion": dict(self.distortion),
            "engines": {
                name: dict(result) for name, result in self.engines.items()
            },
        }


def _accuracy(report: OnlineReport) -> dict:
    return {
        "hit_rate_at_1": float(report.hit_rate_at_1),
        "precision_at_3": float(report.precision_at(3)),
        "mrr": float(report.mrr),
        "ndcg_at_5": float(report.ndcg_at(5)),
    }


def _distortion_summary(data: ScenarioData) -> dict:
    out: dict = {}
    if data.staff:
        out["n_staff"] = len(data.staff)
    if data.fresh_users:
        out["n_fresh_users"] = len(data.fresh_users)
    if data.spam_waves:
        out["n_spam_waves"] = len(data.spam_waves)
    for key in ("reattached_answers", "warped_threads"):
        if key in data.info:
            out[key] = int(data.info[key])
    return out


class ScenarioMatrixRunner:
    """Run presets through replay + serving and collect reports.

    ``include_serving=False`` skips the async leg (the replay digest is
    all the golden tests need, and it is the expensive half that matters
    for them).  ``engine_configs`` adds the config axis of the matrix:
    each named :class:`OnlineConfig` replays every preset's stream a
    second time (replay leg only) — e.g. ``SCENARIO_ENGINES`` swaps the
    dense router for two-stage candidate retrieval.  Results are
    deterministic for a given ``(names, seed, scale, configs)`` — the
    runner holds no RNG of its own; all randomness lives in the
    per-preset spawned streams.
    """

    def __init__(
        self,
        names: list[str] | None = None,
        *,
        seed: int = 0,
        scale: float = 1.0,
        predictor_config: PredictorConfig | None = None,
        online_config: OnlineConfig | None = None,
        engine_configs: dict[str, OnlineConfig] | None = None,
        include_serving: bool = True,
    ):
        self.names = list(names) if names is not None else list_scenarios()
        if "baseline" not in self.names:
            self.names.insert(0, "baseline")
        self.seed = seed
        self.scale = scale
        self.predictor_config = predictor_config or SCENARIO_PREDICTOR
        self.online_config = online_config or SCENARIO_ONLINE
        self.engine_configs = dict(engine_configs or {})
        self.include_serving = include_serving

    # -- single preset -------------------------------------------------------

    def replay(
        self, name: str, online_config: OnlineConfig | None = None
    ) -> tuple[ScenarioData, OnlineReport]:
        """The replay leg: guarded replay with the preset's fault plan."""
        data = build_scenario(name, seed=self.seed, scale=self.scale)
        core = ServingCore(
            self.predictor_config,
            online_config or self.online_config,
            ResilienceConfig(),
        )
        return data, replay(core, data.dataset, data.preset.fault_plan)

    def serve(self, data: ScenarioData) -> dict:
        """The serving leg: traffic through the async stack, summarized."""
        core = ServingCore(self.predictor_config, self.online_config)
        service = RecommendationService(
            core, ServiceConfig(admission=data.preset.admission)
        )
        service.warm(data.dataset)
        requests = generate_traffic(data.dataset, data.traffic)
        load = run_load(service, requests, clock=VirtualClock())
        latency = load.metrics.get("query_latency", {})
        return {
            "latency_ms": {
                key: latency.get(key)
                for key in ("p50_ms", "p95_ms", "p99_ms")
                if key in latency
            },
            "n_rejected": load.n_rejected,
            "query_statuses": dict(load.query_statuses),
        }

    def run_one(
        self, name: str, baseline_accuracy: dict | None = None
    ) -> ScenarioReport:
        data, replay_report = self.replay(name)
        out = ScenarioReport(
            name=name,
            seed=self.seed,
            scale=self.scale,
            n_threads=len(data.dataset),
            n_answers=data.dataset.num_answers,
            n_users=len(data.dataset.users),
            digest=scenario_digest(replay_report),
            accuracy=_accuracy(replay_report),
            n_routed=replay_report.n_routed,
            n_refits=replay_report.n_refits,
            distortion=_distortion_summary(data),
        )
        if replay_report.degradation is not None:
            out.degradation = replay_report.degradation.summary()
            out.n_degradations = len(replay_report.degradation.records)
        if baseline_accuracy:
            out.accuracy_delta = {
                key: out.accuracy[key] - baseline_accuracy[key]
                for key in out.accuracy
            }
        if self.include_serving:
            serving = self.serve(data)
            out.latency_ms = serving["latency_ms"]
            out.n_rejected = serving["n_rejected"]
            out.query_statuses = serving["query_statuses"]
        for engine, config in self.engine_configs.items():
            _, engine_report = self.replay(name, config)
            out.engines[engine] = {
                "digest": scenario_digest(engine_report),
                "accuracy": _accuracy(engine_report),
                "n_routed": engine_report.n_routed,
            }
        return out

    # -- the matrix ----------------------------------------------------------

    def run(self) -> dict:
        """Every preset, baseline first; returns a JSON-ready dict."""
        reports: dict[str, ScenarioReport] = {}
        ordered = ["baseline"] + [n for n in self.names if n != "baseline"]
        baseline = self.run_one("baseline")
        reports["baseline"] = baseline
        for name in ordered[1:]:
            reports[name] = self.run_one(name, baseline.accuracy)
        return {
            "seed": self.seed,
            "scale": self.scale,
            "engines": ["dense", *sorted(self.engine_configs)],
            "scenarios": {
                name: report.as_dict() for name, report in reports.items()
            },
        }
