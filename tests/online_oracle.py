"""Full-rebuild refits: the reference for incremental online refits.

The test oracle for :class:`~repro.core.serving.service.ServingCore`'s
refit.  :class:`RebuildCore` keeps no window state: every refit slices
``[now - window_hours, now)`` out of the replayed dataset and fits the
predictor on it from scratch with :meth:`ForumPredictor.fit`.  With
``warm_start=True`` (topics and network weights kept across refits) it
must reproduce the incremental engine report for report, bit for bit;
with ``warm_start=False`` every refit is cold, which is what the
online refit benchmark times incremental refits against.

Guarded drives (the service, a guarded replay) hand it the admitted
history: the core keeps :attr:`ServingCore.accepted` for as long as it
holds no state, which for this core is forever.
"""

from __future__ import annotations

from repro import perf
from repro.core.pipeline import ForumPredictor
from repro.core.serving import ServingCore


class RebuildCore(ServingCore):
    """A serving core whose every refit rebuilds the window."""

    def __init__(self, *args, warm_start: bool = True, **kwargs):
        super().__init__(*args, **kwargs)
        self.warm_start = warm_start

    def refit(self, dataset, now: float) -> bool:
        cfg = self.online_config
        if self._predictor is None:
            self._predictor = ForumPredictor(self.predictor_config)
        window = dataset.threads_in_window(
            max(0.0, now - cfg.window_hours), now
        )
        if not self._feasible(len(window), window.num_answers):
            return False
        with perf.timer("online.refit"):
            self._predictor.fit(window, warm_start=self.warm_start)
        self._bind_router(window.answerers)
        return True
