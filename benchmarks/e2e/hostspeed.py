"""Host-speed probe: scale wall-clock timings to a fixed CPU speed.

On a machine shared with other tenants, the speed of a core swings by
up to half for seconds at a time, independently per core, and no
process can see or prevent it.  A run that meets more slow spells than
another reads slower although the code did the same work.

:class:`SpeedProbe` samples that speed throughout a run: a daemon
thread does a fixed piece of interpreter work every ``PERIOD_S`` and
records its thread CPU time, which grows when the core runs slowly but
not when the thread merely waits for the CPU or the GIL.  With the
process pinned to one core (``run.py`` does that), the probe measures
the core the service runs on.  :meth:`SpeedProbe.scaled` turns a
wall-clock interval into the time it would have taken at the reference
speed, at which the probe's work takes ``REFERENCE_PROBE_S``.
"""

from __future__ import annotations

import threading
import time

import numpy as np

__all__ = ["REFERENCE_PROBE_S", "SpeedProbe"]

PERIOD_S = 0.01
# Samples within this margin of an interval count towards its speed:
# a slow spell lasts a second or more, so a request of a few
# milliseconds still gets dozens of samples from its own spell.
WINDOW_S = 0.25
# Thread CPU time of one probe on a busy core of an Intel Xeon (x86-64,
# 2 vCPUs, Python 3.11) at its faster speed.  Scaled timings read as if
# the whole run had that speed.
REFERENCE_PROBE_S = 8.0e-5


def _work() -> int:
    """The fixed work: integer arithmetic and dict traffic."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(600):
        key = i & 63
        table[key] = table.get(key, 0) + i
        acc += i * i
    return acc + len(table)


class SpeedProbe:
    """Samples the probe's cost every ``PERIOD_S`` while running.

    Sample times are ``time.monotonic()``, the clock of the asyncio
    loop, so intervals timed with ``loop.time()`` can be scaled.
    """

    def __init__(self):
        self._times: list[float] = []
        self._costs: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._sample, name="speed-probe", daemon=True
        )
        self._arrays: tuple[np.ndarray, np.ndarray] | None = None

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start = time.thread_time()
            _work()
            self._costs.append(time.thread_time() - start)
            self._times.append(time.monotonic())

    def __enter__(self) -> SpeedProbe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        """End sampling; the samples can be read from then on."""
        if self._arrays is None:
            self._stop.set()
            self._thread.join()
            self._arrays = (np.array(self._times), np.array(self._costs))

    def speed(self, start: float, end: float) -> float:
        """Mean speed over ``[start, end]`` widened by ``WINDOW_S``, as a
        share of the reference speed."""
        if self._arrays is None:
            raise RuntimeError("the probe is still running")
        times, costs = self._arrays
        lo, hi = np.searchsorted(times, [start - WINDOW_S, end + WINDOW_S])
        if hi <= lo:
            raise RuntimeError("no probe sample near the interval")
        return float(np.mean(REFERENCE_PROBE_S / costs[lo:hi]))

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` at the reference speed."""
        return (end - start) * self.speed(start, end)

    def samples(self) -> int:
        return len(self._costs)
