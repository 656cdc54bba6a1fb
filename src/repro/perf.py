"""Lightweight stage timers and counters for the hot paths.

Every expensive stage (extractor construction, batch featurization,
per-fold fit/eval, online refits) reports into a process-wide
:class:`PerfRegistry` so speedups are observable rather than asserted:

    from repro import perf

    with perf.timer("features.batch"):
        x = extractor.feature_matrix(pairs)
    perf.incr("features.pairs", len(pairs))
    print(perf.report())

Timers nest freely and cost one ``perf.perf_counter`` pair each, so the
instrumentation stays on permanently.  Registries are per process;
worker processes of the parallel CV harness accumulate into their own
registry, and the parent times the whole dispatch instead.
"""

from __future__ import annotations

import math
import resource
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "StageStat",
    "LatencyHistogram",
    "PerfRegistry",
    "get_registry",
    "use_registry",
    "timer",
    "incr",
    "gauge_max",
    "record_latency",
    "histogram",
    "peak_rss_bytes",
    "record_peak_rss",
    "report",
    "reset",
]

# ``ru_maxrss`` is kilobytes on Linux, bytes on macOS.
_RU_MAXRSS_SCALE = 1 if sys.platform == "darwin" else 1024


@dataclass
class StageStat:
    """Accumulated timing of one named stage."""

    calls: int = 0
    total_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        """Average seconds per call; 0.0 before the first call."""
        return self.total_seconds / self.calls if self.calls else 0.0


class LatencyHistogram:
    """Fixed log-spaced bucket histogram over positive durations.

    Latency distributions of a serving system span decades (a hit on a
    warm batch is microseconds of queueing; a refit stall is seconds),
    so buckets are geometric: ``buckets_per_decade`` per factor of 10
    between ``low`` and ``high`` seconds.  Memory is a fixed few KB no
    matter how many samples are recorded, unlike the per-call sample
    lists kept for stage timers, which makes it safe to record every
    request of a load run.  ``percentile(p)`` answers from the bucket
    counts with a relative error bounded by one bucket ratio (~6% at
    the default resolution); exact ``min``/``max``/``sum`` are kept on
    the side so the tails and the mean stay sharp.
    """

    def __init__(
        self,
        low: float = 1e-6,
        high: float = 3600.0,
        buckets_per_decade: int = 40,
    ):
        if low <= 0 or high <= low:
            raise ValueError("need 0 < low < high")
        if buckets_per_decade < 1:
            raise ValueError("buckets_per_decade must be >= 1")
        self.low = float(low)
        self.high = float(high)
        self.buckets_per_decade = int(buckets_per_decade)
        self._log_low = math.log10(self.low)
        span_decades = math.log10(self.high) - self._log_low
        # +2: one underflow bucket below ``low``, one overflow above
        # ``high``; in-range values land in 1..n_core.
        self._n_core = max(1, math.ceil(span_decades * buckets_per_decade))
        self._counts = [0] * (self._n_core + 2)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def record(self, seconds: float) -> None:
        """Fold one duration (seconds) into the histogram."""
        seconds = float(seconds)
        if not math.isfinite(seconds):
            return
        if seconds < self.low:
            idx = 0
        elif seconds >= self.high:
            idx = self._n_core + 1
        else:
            idx = 1 + int(
                (math.log10(seconds) - self._log_low)
                * self.buckets_per_decade
            )
            idx = min(max(idx, 1), self._n_core)
        self._counts[idx] += 1
        self.count += 1
        self.sum += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def _bucket_upper(self, idx: int) -> float:
        """Upper edge of bucket ``idx`` (seconds)."""
        if idx <= 0:
            # Underflow holds samples below ``low``; the observed min is
            # the only exact statement we can make about them.
            return self.min if self.count else self.low
        if idx >= self._n_core + 1:
            return self.max if self.count else self.high
        return 10.0 ** (self._log_low + idx / self.buckets_per_decade)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile in seconds; NaN when empty.

        Returns the upper edge of the bucket holding the rank, clamped
        to the exact observed ``[min, max]`` so degenerate histograms
        (all samples equal) answer exactly.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError("p must be in [0, 100]")
        if self.count == 0:
            return float("nan")
        rank = max(1, int(-(-p * self.count // 100)))  # ceil(p/100 * n)
        cumulative = 0
        for idx, n in enumerate(self._counts):
            cumulative += n
            if cumulative >= rank:
                return min(max(self._bucket_upper(idx), self.min), self.max)
        return self.max

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def snapshot(self) -> dict:
        """Picklable dump, foldable into another histogram via merge."""
        return {
            "low": self.low,
            "high": self.high,
            "buckets_per_decade": self.buckets_per_decade,
            "counts": list(self._counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    def merge(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` (same bucket layout) into this one."""
        if (
            snap["low"] != self.low
            or snap["high"] != self.high
            or snap["buckets_per_decade"] != self.buckets_per_decade
        ):
            raise ValueError("histogram bucket layouts differ")
        for idx, n in enumerate(snap["counts"]):
            self._counts[idx] += n
        self.count += snap["count"]
        self.sum += snap["sum"]
        self.min = min(self.min, snap["min"])
        self.max = max(self.max, snap["max"])

    @classmethod
    def from_snapshot(cls, snap: dict) -> "LatencyHistogram":
        hist = cls(snap["low"], snap["high"], snap["buckets_per_decade"])
        hist.merge(snap)
        return hist


class PerfRegistry:
    """Thread-safe collection of named stage timers and counters."""

    def __init__(self):
        self._lock = threading.Lock()
        self._stages: dict[str, StageStat] = {}
        self._samples: dict[str, list[float]] = {}
        self._counters: dict[str, int] = {}
        self._gauges: set[str] = set()
        self._hists: dict[str, LatencyHistogram] = {}

    # -- recording ---------------------------------------------------------

    @contextmanager
    def timer(self, name: str):
        """Context manager accumulating wall-clock time under ``name``."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.add_time(name, time.perf_counter() - start)

    def add_time(self, name: str, seconds: float) -> None:
        with self._lock:
            stat = self._stages.get(name)
            if stat is None:
                stat = self._stages[name] = StageStat()
                self._samples[name] = []
            stat.calls += 1
            stat.total_seconds += seconds
            self._samples[name].append(seconds)

    def incr(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def record_latency(self, name: str, seconds: float) -> None:
        """Fold one duration into the named latency histogram.

        Histograms are the percentile-capable counterpart of stage
        timers: fixed memory per name regardless of sample count, so the
        serving layer records every request.  Query with
        :meth:`percentile` or :meth:`histogram`.
        """
        with self._lock:
            hist = self._hists.get(name)
            if hist is None:
                hist = self._hists[name] = LatencyHistogram()
            hist.record(seconds)

    @contextmanager
    def latency_timer(self, name: str):
        """Context manager recording wall-clock time into a histogram."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.record_latency(name, time.perf_counter() - start)

    def gauge_max(self, name: str, value: int) -> None:
        """High-water counter: keeps the max ever recorded under ``name``.

        Gauges live in the same namespace as counters (so
        :meth:`counters_with_prefix` reports them), but :meth:`merge`
        folds them with ``max`` instead of ``+`` — the peak RSS of a
        process tree is the max over its members, not their sum.
        """
        with self._lock:
            self._gauges.add(name)
            current = self._counters.get(name)
            if current is None or value > current:
                self._counters[name] = int(value)

    # -- inspection --------------------------------------------------------

    def stages(self) -> dict[str, StageStat]:
        """Snapshot of all stage stats (copies, safe to keep)."""
        with self._lock:
            return {
                name: StageStat(s.calls, s.total_seconds)
                for name, s in self._stages.items()
            }

    def counters(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def stage(self, name: str) -> StageStat:
        """Stats for one stage; zeros if it never ran."""
        with self._lock:
            stat = self._stages.get(name)
            return StageStat(stat.calls, stat.total_seconds) if stat else StageStat()

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def counters_with_prefix(self, prefix: str) -> dict[str, int]:
        """All counters whose name starts with ``prefix``.

        The resilience layer namespaces its counters under
        ``resilience.`` (faults injected, events repaired/quarantined,
        refit retries/fallbacks); this gives operators the whole family
        in one call.
        """
        with self._lock:
            return {
                name: value
                for name, value in self._counters.items()
                if name.startswith(prefix)
            }

    def histogram(self, name: str) -> LatencyHistogram:
        """Copy of the named latency histogram; empty if never recorded."""
        with self._lock:
            hist = self._hists.get(name)
            if hist is None:
                return LatencyHistogram()
            return LatencyHistogram.from_snapshot(hist.snapshot())

    def percentile(self, name: str, p: float) -> float:
        """Percentile (seconds) of one latency histogram; NaN if empty."""
        with self._lock:
            hist = self._hists.get(name)
            return hist.percentile(p) if hist is not None else float("nan")

    def histograms(self) -> dict[str, LatencyHistogram]:
        """Snapshot copies of every latency histogram."""
        with self._lock:
            return {
                name: LatencyHistogram.from_snapshot(h.snapshot())
                for name, h in self._hists.items()
            }

    def samples(self, name: str) -> list[float]:
        """Per-call durations of one stage in recording order.

        Lets benchmarks separate one-time costs from steady state (e.g.
        the first online refit pays the warmup topic fit).
        """
        with self._lock:
            return list(self._samples.get(name, ()))

    def snapshot(self) -> dict:
        """Picklable dump of every sample and counter.

        Worker processes record into their own process-wide registry and
        ship this dict back with their result; the parent folds it in
        with :meth:`merge`, so parallel fits keep the same per-stage
        stats that a serial run would produce.
        """
        with self._lock:
            return {
                "samples": {n: list(s) for n, s in self._samples.items()},
                "counters": dict(self._counters),
                "gauges": sorted(self._gauges),
                "histograms": {
                    n: h.snapshot() for n, h in self._hists.items()
                },
            }

    def merge(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` from another registry into this one."""
        for name, samples in snap.get("samples", {}).items():
            for seconds in samples:
                self.add_time(name, seconds)
        gauges = set(snap.get("gauges", ()))
        for name, amount in snap.get("counters", {}).items():
            if name in gauges:
                self.gauge_max(name, amount)
            else:
                self.incr(name, amount)
        for name, hist_snap in snap.get("histograms", {}).items():
            with self._lock:
                hist = self._hists.get(name)
                if hist is None:
                    self._hists[name] = LatencyHistogram.from_snapshot(
                        hist_snap
                    )
                else:
                    hist.merge(hist_snap)

    def report(self) -> str:
        """Human-readable table of every stage and counter."""
        lines = ["stage                                  calls      total      mean"]
        for name in sorted(self._stages):
            stat = self.stage(name)
            lines.append(
                f"{name:38s} {stat.calls:5d} {stat.total_seconds:9.4f}s"
                f" {stat.mean_seconds:8.5f}s"
            )
        counters = self.counters()
        if counters:
            lines.append("counter                                value")
            for name in sorted(counters):
                lines.append(f"{name:38s} {counters[name]:6d}")
        hists = self.histograms()
        if hists:
            lines.append(
                "latency                                count       p50"
                "       p95       p99"
            )
            for name in sorted(hists):
                hist = hists[name]
                lines.append(
                    f"{name:38s} {hist.count:5d} "
                    f"{hist.percentile(50) * 1e3:8.3f}ms"
                    f" {hist.percentile(95) * 1e3:8.3f}ms"
                    f" {hist.percentile(99) * 1e3:8.3f}ms"
                )
        return "\n".join(lines)

    def reset(self) -> None:
        with self._lock:
            self._stages.clear()
            self._samples.clear()
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()


_REGISTRY = PerfRegistry()


def get_registry() -> PerfRegistry:
    """The process-wide default registry."""
    return _REGISTRY


@contextmanager
def use_registry(registry: PerfRegistry | None = None):
    """Route the module-level helpers to ``registry`` inside the block.

    Benchmarks and tests use this to measure one code path in a private
    registry without resetting (or polluting) the process-wide stats:

        with perf.use_registry() as reg:
            loop.run(dataset)
        print(reg.stage("online.refit").total_seconds)

    A fresh registry is created when none is given.  Not safe to nest
    across threads — the swap is process-global, matching how the
    default registry is used.
    """
    global _REGISTRY
    if registry is None:
        registry = PerfRegistry()
    previous = _REGISTRY
    _REGISTRY = registry
    try:
        yield registry
    finally:
        _REGISTRY = previous


def timer(name: str):
    """``with perf.timer("stage"):`` on the default registry."""
    return _REGISTRY.timer(name)


def incr(name: str, amount: int = 1) -> None:
    _REGISTRY.incr(name, amount)


def gauge_max(name: str, value: int) -> None:
    _REGISTRY.gauge_max(name, value)


def record_latency(name: str, seconds: float) -> None:
    """Fold one duration into a histogram on the default registry."""
    _REGISTRY.record_latency(name, seconds)


def histogram(name: str) -> LatencyHistogram:
    """Copy of a latency histogram from the default registry."""
    return _REGISTRY.histogram(name)


def peak_rss_bytes(*, include_children: bool = False) -> int:
    """Peak resident-set size of this process (bytes), from ``getrusage``.

    ``ru_maxrss`` is a kernel-maintained high-water mark: it needs no
    polling thread and cannot miss a transient spike.  With
    ``include_children`` the max over waited-for children (worker
    processes) is folded in — peaks don't add across processes, so the
    max is the honest "largest single process" figure.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * _RU_MAXRSS_SCALE
    if include_children:
        child = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            * _RU_MAXRSS_SCALE
        )
        peak = max(peak, child)
    return int(peak)


def record_peak_rss(
    prefix: str = "mem", registry: PerfRegistry | None = None
) -> dict[str, int]:
    """Record memory high-water gauges under ``prefix``.

    Writes ``<prefix>.peak_rss_bytes`` (this process) and
    ``<prefix>.child_peak_rss_bytes`` (largest waited-for child); when
    :mod:`tracemalloc` is tracing, ``<prefix>.tracemalloc_peak_bytes``
    (python-allocation high water) is added too.  All are ``gauge_max``
    counters, so repeated calls keep the running maximum and
    ``counters_with_prefix(prefix + ".")`` returns the family.
    """
    reg = registry if registry is not None else _REGISTRY
    values = {
        f"{prefix}.peak_rss_bytes": peak_rss_bytes(),
        f"{prefix}.child_peak_rss_bytes": int(
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            * _RU_MAXRSS_SCALE
        ),
    }
    if tracemalloc.is_tracing():
        values[f"{prefix}.tracemalloc_peak_bytes"] = (
            tracemalloc.get_traced_memory()[1]
        )
    for name, value in values.items():
        reg.gauge_max(name, value)
    return values


def report() -> str:
    return _REGISTRY.report()


def reset() -> None:
    _REGISTRY.reset()
