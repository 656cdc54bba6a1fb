"""Concurrent load harness for the async serving stack.

Replays a :func:`~repro.forum.traffic.generate_traffic` schedule
against a :class:`~repro.core.serving.service.RecommendationService`
under the :class:`~repro.core.serving.clock.VirtualClock`: every
request becomes its own task that sleeps until its arrival instant and
then submits, so thousands of askers genuinely contend for the
admission queues and the micro-batcher at simulated full speed.

Latency (p50/p95/p99) is measured on the *virtual* axis — arrival to
response under the cost model — and is therefore bit-reproducible for
a given seed.  Throughput is measured on the *real* axis (requests
completed per wall-clock second of the whole run), which is the number
a perf table wants.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from .clock import VirtualClock
from .service import RecommendationService

__all__ = ["LoadReport", "run_load"]


@dataclass
class LoadReport:
    """Everything one load run produced, ready for a bench record."""

    n_requests: int = 0
    n_queries: int = 0
    n_events: int = 0
    # Responses by status, e.g. {"ok": 950, "rejected": 30, ...};
    # queries and events keep separate tallies.
    query_statuses: dict[str, int] = field(default_factory=dict)
    event_statuses: dict[str, int] = field(default_factory=dict)
    n_degraded: int = 0
    virtual_duration_s: float = 0.0
    wall_s: float = 0.0
    metrics: dict = field(default_factory=dict)
    health: dict = field(default_factory=dict)
    responses: list = field(default_factory=list)  # schedule order

    @property
    def requests_per_wall_s(self) -> float:
        return self.n_requests / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def n_rejected(self) -> int:
        return self.query_statuses.get("rejected", 0) + self.event_statuses.get(
            "rejected", 0
        )

    def summary(self) -> dict:
        """JSON-ready digest (drops the raw response objects)."""
        return {
            "n_requests": self.n_requests,
            "n_queries": self.n_queries,
            "n_events": self.n_events,
            "query_statuses": dict(self.query_statuses),
            "event_statuses": dict(self.event_statuses),
            "n_degraded": self.n_degraded,
            "n_rejected": self.n_rejected,
            "virtual_duration_s": round(self.virtual_duration_s, 6),
            "wall_s": round(self.wall_s, 6),
            "requests_per_wall_s": round(self.requests_per_wall_s, 3),
            "metrics": self.metrics,
            "health": self.health,
        }


def run_load(
    service: RecommendationService,
    requests: list,
    *,
    clock: VirtualClock | None = None,
    settle_s: float = 5.0,
) -> LoadReport:
    """Drive the full schedule through the service; block until done.

    ``requests`` is a list of
    :class:`~repro.forum.traffic.TrafficRequest`; each is submitted at
    its ``arrival_s`` on the virtual clock.  ``settle_s`` of extra
    virtual time lets queued work drain before the service stops.  The
    run is deterministic: same service config + same schedule produce
    the same responses, admissions and latency histograms.
    """
    clock = clock or VirtualClock()

    async def fire(request):
        loop = asyncio.get_running_loop()
        delay = request.arrival_s - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        if request.kind == "query":
            return await service.route_question(request.thread)
        return await service.submit_event(request.thread)

    async def main():
        await service.start()
        try:
            results = await asyncio.gather(
                *(fire(request) for request in requests)
            )
            if settle_s > 0:
                await asyncio.sleep(settle_s)
        finally:
            await service.stop()
        return results

    wall_start = time.perf_counter()
    responses = clock.run(main())
    wall_s = time.perf_counter() - wall_start
    report = LoadReport(
        n_requests=len(requests),
        virtual_duration_s=clock.now(),
        wall_s=wall_s,
        responses=list(responses),
        metrics=service.metrics(),
        health=service.health(),
    )
    for request, response in zip(requests, responses):
        if request.kind == "query":
            report.n_queries += 1
            tally = report.query_statuses
        else:
            report.n_events += 1
            tally = report.event_statuses
        tally[response.status] = tally.get(response.status, 0) + 1
        if response.degraded:
            report.n_degraded += 1
    return report
