"""Chronological replay of a dataset through the serving engine.

The paper's conclusion proposes "incorporating our recommendation
system into an online forum platform".  :func:`replay` simulates
exactly that deployment: questions arrive in time order; the predictors
are periodically refit on a sliding window of history; each new
question is routed while it is still unanswered; and afterwards the
recommendations are scored against the users who *actually* answered,
with standard ranking metrics (hit rate, MRR, NDCG).

Unlike the cross-validation harness, nothing here ever looks into the
future: features, graphs and topics come only from threads created
before the question being routed.

The engine — fixed-grid incremental refits, candidate preparation,
ranking + Sec.-V-LP routing, window state and the resilient-recovery
machinery — is :class:`~repro.core.serving.service.ServingCore`, shared
with the async :class:`~repro.core.serving.service.RecommendationService`.
:func:`replay` only feeds it one thread at a time, so a replay and a
virtual-clock run of the service execute the same engine code on the
same schedule.

Refits run on a fixed grid (``warmup_hours``, then every
``refit_interval_hours``) anchored to the stream clock, not to arrival
times, so cadence cannot drift when questions arrive in bursts; grid
points with no arrivals are caught up at the next question.  Each
event runs the grid check before it is observed, so the window of a
refit at ``now`` holds exactly the threads with
``now - window_hours <= created_at < now``.

Resilient serving: a core built with a
:class:`~repro.core.resilience.ResilienceConfig`, or a
:class:`~repro.core.resilience.FaultPlan` passed to :func:`replay`,
switches the replay onto a hardened path.  Every event passes a
:class:`~repro.core.resilience.StreamGuard` (quarantine/repair/dedupe),
each refit is wrapped in bounded retry with snapshot fallback and
schedule-level backoff, non-finite scores are masked before ranking,
and every decision is recorded in a per-step
:class:`~repro.core.resilience.DegradationReport` attached to the
returned :class:`~repro.core.serving.service.OnlineReport`.  On a clean
stream the resilient path produces a report identical to the plain
one, which the differential tests assert.
"""

from __future__ import annotations

from ..forum.dataset import ForumDataset
from .resilience import (
    DegradationReport,
    FaultInjector,
    FaultPlan,
    ResilienceConfig,
)
from .serving.service import OnlineReport, ServingCore

__all__ = ["replay"]


def replay(
    core: ServingCore,
    dataset: ForumDataset,
    fault_plan: FaultPlan | None = None,
) -> OnlineReport:
    """Stream the dataset's questions through ``core``.

    Questions are visited chronologically; the model in use at any
    point was trained strictly on earlier threads.

    With a ``fault_plan`` (or a core-level
    :class:`~repro.core.resilience.ResilienceConfig`) the stream is
    perturbed by a :class:`~repro.core.resilience.FaultInjector` and
    replayed through the hardened path; the returned report then
    carries a :class:`~repro.core.resilience.DegradationReport`.
    """
    if fault_plan is None and core.resilience_config is None:
        return _replay_plain(core, dataset)
    return _replay_guarded(core, dataset, fault_plan)


def _replay_plain(core: ServingCore, dataset: ForumDataset) -> OnlineReport:
    report = OnlineReport()
    for thread in dataset:  # already chronological
        now = thread.created_at
        core.maybe_refit(dataset, now, report)
        core.route(thread, now, report)
        # Fold the thread into the live window only after it has been
        # routed — it must not inform its own recommendation.
        core.observe(thread)
    return report


def _replay_guarded(
    core: ServingCore, dataset: ForumDataset, fault_plan: FaultPlan | None
) -> OnlineReport:
    """Hardened replay: guard every event, recover every refit.

    Mirrors :func:`_replay_plain` step for step — on a clean stream the
    two paths produce identical reports: the bootstrap window is built
    from the admitted prefix with the same end-exclusive slicing, and
    routing/appending happen in the same order.
    """
    res = core.resilience_config or ResilienceConfig()
    report = OnlineReport()
    degradation = DegradationReport()
    report.degradation = degradation
    guard = core.attach_guard(res, degradation)
    if fault_plan is not None:
        stream = FaultInjector(fault_plan).perturb(dataset)
    else:
        stream = list(dataset)
    for event in stream:
        thread = guard.admit(event)
        if thread is None:
            continue
        # The current event sits last in ``accepted``; the end-exclusive
        # window slice excludes it, exactly as the plain path excludes
        # it from the full dataset.
        core.keep_admitted(thread)
        now = thread.created_at
        core.maybe_refit_resilient(now, report, degradation, res)
        core.route(thread, now, report, degradation)
        # Routed first, observed second — the thread must not inform
        # its own recommendation.
        core.observe_admitted(thread, degradation)
    return report
