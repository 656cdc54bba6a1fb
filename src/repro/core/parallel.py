"""Shared process-pool dispatch for embarrassingly parallel work.

Both the CV harness (:mod:`repro.core.evaluation`) and the per-task
model fits (:mod:`repro.core.pipeline`) dispatch through here.  Tasks
carry all of their own inputs (they are pickled to the workers), order
is always preserved, and all randomness derives from per-task seeds, so
serial and parallel runs produce bit-identical results.

Worker processes have their own process-wide :mod:`repro.perf` registry,
which would silently swallow stage timings recorded inside a task.  Pass
``merge_perf=True`` to wrap each task so the worker ships a registry
snapshot back with its result; the parent merges the snapshots into its
own registry, keeping per-stage stats identical to a serial run.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

from .. import perf

__all__ = ["resolve_n_jobs", "parallel_map"]


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Explicit ``n_jobs`` wins; otherwise ``REPRO_N_JOBS``; otherwise 1."""
    if n_jobs is None:
        raw = os.environ.get("REPRO_N_JOBS", "")
        try:
            n_jobs = int(raw) if raw else 1
        except ValueError:
            n_jobs = 1
    return max(1, n_jobs)


class _PerfTask:
    """Run ``fn(task)`` in a fresh perf registry and return its snapshot.

    A class (not a closure) so it pickles to worker processes.
    """

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, task):
        registry = perf.PerfRegistry()
        with perf.use_registry(registry):
            result = self.fn(task)
        return result, registry.snapshot()


def parallel_map(
    fn, tasks: list, n_jobs: int | None = None, *, merge_perf: bool = False
) -> list:
    """``[fn(t) for t in tasks]``, optionally across worker processes.

    Order is preserved, so serial and parallel runs aggregate results
    identically; each task must carry all of its own inputs (tasks are
    pickled to the workers).  With ``merge_perf=True``, perf stages and
    counters recorded inside the tasks are merged back into the calling
    process's registry (in task order) instead of being lost with the
    workers.
    """
    n_jobs = resolve_n_jobs(n_jobs)
    if n_jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    if not merge_perf:
        with ProcessPoolExecutor(max_workers=min(n_jobs, len(tasks))) as pool:
            return list(pool.map(fn, tasks))
    with ProcessPoolExecutor(max_workers=min(n_jobs, len(tasks))) as pool:
        wrapped = list(pool.map(_PerfTask(fn), tasks))
    registry = perf.get_registry()
    results = []
    for result, snap in wrapped:
        registry.merge(snap)
        results.append(result)
    return results
