"""Layered async serving stack around the recommendation engine.

The online replay (:func:`repro.core.online.replay`) feeds the engine
one thread at a time; this package decomposes the same engine into the
layers a real service needs:

* :mod:`~repro.core.serving.clock` — a deterministic virtual clock that
  drives asyncio under simulated time, so load runs are seeded and
  bit-reproducible;
* :mod:`~repro.core.serving.ingest` — bounded-queue admission control
  over event submission and question queries, composing with the
  :class:`~repro.core.resilience.StreamGuard` quarantine gate;
* :mod:`~repro.core.serving.batcher` — a micro-batching scheduler that
  coalesces concurrent queries under a max-latency / max-batch-size
  policy;
* :mod:`~repro.core.serving.service` — the synchronous
  :class:`~repro.core.serving.service.ServingCore` engine (refits,
  routing, state) that the replay drives too, plus the async
  :class:`~repro.core.serving.service.RecommendationService` facade
  exposing submit_event / route_question / health / metrics;
* :mod:`~repro.core.serving.harness` — the seeded concurrent load
  harness that replays :mod:`repro.forum.traffic` arrival schedules
  through the service and reports latency percentiles and throughput.
"""

from .batcher import BatchPolicy, MicroBatcher
from .clock import VirtualClock
from .harness import LoadReport, run_load
from .ingest import AdmissionConfig, AdmissionError, IngestGate
from .service import (
    CostModel,
    RecommendationService,
    RouteResponse,
    ServiceConfig,
    ServingCore,
    SubmitResult,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionError",
    "BatchPolicy",
    "CostModel",
    "IngestGate",
    "LoadReport",
    "MicroBatcher",
    "RecommendationService",
    "RouteResponse",
    "ServiceConfig",
    "ServingCore",
    "SubmitResult",
    "VirtualClock",
    "run_load",
]
