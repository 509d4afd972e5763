"""Lightweight metrics: counters, gauges, timers, histograms.

Every trial loop in this repository is a production workload in
miniature — thousands of independent Monte-Carlo rounds whose
throughput, cache behaviour, and failure counts we want to *see*, not
guess.  A :class:`MetricsRegistry` is a process-local, dependency-free
registry in the spirit of Prometheus client libraries:

* :class:`Counter` — monotonically increasing counts (trials run,
  cache hits, fallbacks taken).
* :class:`Gauge` — last-written values (worker count, chunk size).
* :class:`Timer` — accumulated wall-clock with a context manager
  (``with metrics.timer("runtime.wall_clock").time(): ...``).
* :class:`Histogram` — streaming summary statistics (count / min /
  max / mean) plus configurable quantiles (p50/p95/p99 by default)
  estimated from a bounded reservoir, e.g. per-chunk durations or
  per-request service latencies.

Registries merge (:meth:`MetricsRegistry.merge_snapshot`), so parallel
workers can ship their numbers back to the parent as plain dicts —
snapshots are picklable by construction.  :meth:`MetricsRegistry.render`
produces the human-readable report the CLI prints after a run,
including derived figures: trials/second and per-cache hit rates —
and :meth:`MetricsRegistry.render_prometheus` the machine-readable
Prometheus text exposition that :mod:`repro.serve` serves from its
``/metrics`` endpoint.

Every primitive is O(1) per observation and O(1) memory (the histogram
reservoir is a fixed-size ring), so a live service can record per
request and be scraped at 1 Hz without copying sample lists that grow
with traffic.
"""

from __future__ import annotations

import math
import re
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "Histogram",
    "MetricsRegistry",
    "global_metrics",
]

#: Quantiles reported by default in rendered reports and expositions.
DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got increment {amount}")
        self.value += amount


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Timer:
    """Accumulated wall-clock time over any number of timed sections."""

    __slots__ = ("total_s", "count")

    def __init__(self) -> None:
        self.total_s = 0.0
        self.count = 0

    def record(self, seconds: float) -> None:
        """Add one timed section of ``seconds`` duration."""
        if seconds < 0:
            raise ValueError(f"durations must be non-negative, got {seconds}")
        self.total_s += seconds
        self.count += 1

    @contextmanager
    def time(self) -> Iterator[None]:
        """Context manager measuring the wrapped block."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(time.perf_counter() - start)


class Histogram:
    """Streaming summary statistics plus reservoir quantiles.

    Keeps count / sum / min / max exactly, and a bounded ring of the
    most recent ``max_samples`` observations for quantile estimates —
    no full sample list ever accumulates, so a histogram fed per
    request stays O(1) memory and can be snapshotted or scraped at 1 Hz
    for free.  Quantiles are nearest-rank over the (recent) reservoir:
    exact until the ring wraps, a sliding-window estimate after — the
    right semantics for a live service, where "p99 latency" means *now*,
    not since boot.
    """

    __slots__ = ("count", "total", "min", "max", "max_samples",
                 "_samples", "_cursor")

    #: Reservoir capacity; 512 float samples keeps a snapshot ~4 KiB.
    DEFAULT_MAX_SAMPLES = 512

    def __init__(self, max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.max_samples = int(max_samples)
        self._samples: list = []
        self._cursor = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self._absorb(value)

    def _absorb(self, value: float) -> None:
        """Append one sample to the ring (overwrite oldest when full)."""
        if len(self._samples) < self.max_samples:
            self._samples.append(value)
        else:
            self._samples[self._cursor] = value
            self._cursor = (self._cursor + 1) % self.max_samples

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the reservoir (NaN when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._samples:
            return float("nan")
        ordered = sorted(self._samples)
        # Nearest-rank: ceil(q * n), clamped into [1, n].
        rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
        return ordered[rank - 1]

    def quantiles(
        self, qs: Sequence[float] = DEFAULT_QUANTILES
    ) -> Dict[float, float]:
        """Several quantiles from one sort of the reservoir."""
        if not self._samples:
            return {q: float("nan") for q in qs}
        ordered = sorted(self._samples)
        out = {}
        for q in qs:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"quantile must be in [0, 1], got {q}")
            rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
            out[q] = ordered[rank - 1]
        return out


#: Prometheus metric-name grammar: anything else becomes an underscore.
_PROMETHEUS_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prometheus_name(name: str) -> str:
    """Sanitise a dotted metric name for the Prometheus exposition."""
    sanitised = _PROMETHEUS_NAME_RE.sub("_", name)
    if sanitised and sanitised[0].isdigit():
        sanitised = "_" + sanitised
    return sanitised


class MetricsRegistry:
    """Create-or-get registry of named metrics with a text report.

    ``quantiles`` configures which percentiles histogram reports and the
    Prometheus exposition include (p50/p95/p99 by default).
    """

    def __init__(
        self, quantiles: Sequence[float] = DEFAULT_QUANTILES
    ) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}
        self._histograms: Dict[str, Histogram] = {}
        self.quantiles: Tuple[float, ...] = tuple(quantiles)

    # -- create-or-get accessors -------------------------------------------

    def counter(self, name: str) -> Counter:
        return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        return self._gauges.setdefault(name, Gauge())

    def timer(self, name: str) -> Timer:
        return self._timers.setdefault(name, Timer())

    def histogram(self, name: str) -> Histogram:
        return self._histograms.setdefault(name, Histogram())

    # -- snapshots and merging ---------------------------------------------

    def snapshot(self) -> dict:
        """A plain-dict, picklable view of every metric."""
        return {
            "counters": {k: c.value for k, c in self._counters.items()},
            "gauges": {k: g.value for k, g in self._gauges.items()},
            "timers": {
                k: (t.total_s, t.count) for k, t in self._timers.items()
            },
            "histograms": {
                k: (h.count, h.total, h.min, h.max, list(h._samples))
                for k, h in self._histograms.items()
            },
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker) into this registry.

        Counters, timers, and histograms add; gauges take the incoming
        value (last write wins).  Histogram entries are ``(count, total,
        min, max, samples)`` with the reservoir's sample list.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, (total_s, count) in snapshot.get("timers", {}).items():
            timer = self.timer(name)
            timer.total_s += total_s
            timer.count += count
        for name, (count, total, low, high, samples) in snapshot.get(
            "histograms", {}
        ).items():
            histogram = self.histogram(name)
            histogram.count += count
            histogram.total += total
            histogram.min = min(histogram.min, low)
            histogram.max = max(histogram.max, high)
            for sample in samples:
                histogram._absorb(float(sample))

    @classmethod
    def merged(
        cls,
        snapshots: Sequence[dict],
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
    ) -> "MetricsRegistry":
        """One registry folding several :meth:`snapshot` dicts together.

        The multi-process serving supervisor uses this to present the
        parent's own metrics plus every worker's latest heartbeat
        snapshot as a single coherent ``/metrics`` view.
        """
        registry = cls(quantiles=quantiles)
        for snapshot in snapshots:
            registry.merge_snapshot(snapshot)
        return registry

    # -- reporting ----------------------------------------------------------

    def _derived_lines(self) -> list:
        """Throughput and cache-hit-rate figures computed from raw metrics."""
        lines = []
        trials = self._counters.get("runtime.trials")
        wall = self._timers.get("runtime.wall_clock")
        if wall is not None:
            lines.append(f"{'total wall-clock':<30} {wall.total_s:.3f} s")
        if trials is not None and wall is not None and wall.total_s > 0:
            lines.append(
                f"{'trials/s':<30} {trials.value / wall.total_s:.1f}"
            )
        # Every cache reports cache.<name>.hits / cache.<name>.misses.
        cache_names = sorted(
            {
                key.rsplit(".", 1)[0]
                for key in self._counters
                if key.startswith("cache.")
                and key.endswith((".hits", ".misses"))
            }
        )
        for cache in cache_names:
            hits = self._counters.get(f"{cache}.hits", Counter()).value
            misses = self._counters.get(f"{cache}.misses", Counter()).value
            lookups = hits + misses
            rate = 100.0 * hits / lookups if lookups else 0.0
            lines.append(
                f"{cache + ' hit rate':<30} "
                f"{rate:.1f} % ({hits:.0f} hits / {misses:.0f} misses)"
            )
        return lines

    def render(self, title: str = "runtime metrics") -> str:
        """Human-readable multi-section report of every metric."""
        parts = [f"== {title} =="]
        if self._counters:
            parts.append("counters:")
            for name in sorted(self._counters):
                parts.append(f"  {name.ljust(30)} {self._counters[name].value:g}")
        if self._gauges:
            parts.append("gauges:")
            for name in sorted(self._gauges):
                parts.append(f"  {name.ljust(30)} {self._gauges[name].value:g}")
        if self._timers:
            parts.append("timers:")
            for name in sorted(self._timers):
                timer = self._timers[name]
                parts.append(
                    f"  {name.ljust(30)} {timer.total_s:.3f} s "
                    f"over {timer.count} section(s)"
                )
        if self._histograms:
            parts.append("histograms:")
            for name in sorted(self._histograms):
                h = self._histograms[name]
                quantile_text = " ".join(
                    f"p{q * 100:g}={value:.4g}"
                    for q, value in h.quantiles(self.quantiles).items()
                )
                parts.append(
                    f"  {name.ljust(30)} n={h.count} mean={h.mean:.4g} "
                    f"{quantile_text} min={h.min:.4g} max={h.max:.4g}"
                )
        derived = self._derived_lines()
        if derived:
            parts.append("derived:")
            parts.extend(f"  {line}" for line in derived)
        return "\n".join(parts)

    def render_prometheus(self) -> str:
        """Prometheus text-exposition-format view of every metric.

        Metric names are sanitised to the Prometheus grammar (dots and
        other separators become underscores).  Counters and gauges map
        directly; timers become ``<name>_seconds`` summaries (sum +
        count); histograms become summaries with one ``quantile``-labelled
        sample per configured quantile plus ``_sum``/``_count``.  The
        whole exposition is computed from O(1)-sized state per metric,
        so scraping it every second costs nothing measurable.
        """
        lines: list = []

        def emit(name: str, kind: str, samples: Iterable[tuple]) -> None:
            lines.append(f"# TYPE {name} {kind}")
            for suffix, labels, value in samples:
                label_text = (
                    "{" + ",".join(
                        f'{k}="{v}"' for k, v in labels
                    ) + "}"
                    if labels
                    else ""
                )
                lines.append(f"{name}{suffix}{label_text} {value:.9g}")

        for name in sorted(self._counters):
            emit(
                _prometheus_name(name), "counter",
                [("", (), self._counters[name].value)],
            )
        for name in sorted(self._gauges):
            emit(
                _prometheus_name(name), "gauge",
                [("", (), self._gauges[name].value)],
            )
        for name in sorted(self._timers):
            timer = self._timers[name]
            emit(
                _prometheus_name(name) + "_seconds", "summary",
                [("_sum", (), timer.total_s), ("_count", (), timer.count)],
            )
        for name in sorted(self._histograms):
            histogram = self._histograms[name]
            samples = [
                ("", (("quantile", f"{q:g}"),), value)
                for q, value in histogram.quantiles(self.quantiles).items()
                if not math.isnan(value)
            ]
            samples.append(("_sum", (), histogram.total))
            samples.append(("_count", (), histogram.count))
            emit(_prometheus_name(name), "summary", samples)
        return "\n".join(lines) + "\n"

    def is_empty(self) -> bool:
        """True when nothing has been registered yet."""
        return not (
            self._counters or self._gauges or self._timers or self._histograms
        )


#: Process-local default registry (created lazily).
_GLOBAL_REGISTRY: MetricsRegistry | None = None


def global_metrics() -> MetricsRegistry:
    """The process-local default registry.

    Library code that has no registry handed to it (e.g. the hot-path
    detector in :mod:`repro.core.detection`) records into this registry;
    benchmarks and the CLI can read it back with ``render()``.  Like the
    artifact caches it is process-local: parallel workers accumulate
    their own copy, and only cache counters (which
    :func:`~repro.runtime.executor.run_trials` ships as per-chunk deltas)
    are merged across processes.
    """
    global _GLOBAL_REGISTRY
    if _GLOBAL_REGISTRY is None:
        _GLOBAL_REGISTRY = MetricsRegistry()
    return _GLOBAL_REGISTRY
