"""Fixed-memory metrics history: per-metric (ts, value) rings.

A gauge answers "what is the queue depth *now*"; operating a long-lived
farm needs "what has it been for the last half hour" — without letting
an always-on sampler grow memory without bound. :class:`MetricsHistory`
keeps one bounded series per metric and **downsamples instead of
truncating**: when a series fills, every other sample is dropped and the
series' minimum sample spacing doubles, so memory stays at
``O(max_samples)`` per metric while the covered time horizon keeps
doubling. Recent history is dense, ancient history is coarse — exactly
the resolution trade a trend view wants.

Fed two ways, matching how metrics move through the system:

* :class:`~repro.telemetry.farm.FarmTelemetry` records farm-wide series
  (throughput, jobs completed, merged worker counters) as heartbeat
  deltas arrive at the coordinator.
* Servers run a :class:`HistorySampler` thread that snapshots their own
  registry (including the ``process.*`` resource gauges) on a fixed
  interval.

Both surface over the existing ``telemetry`` wire op as a ``history``
field (:meth:`MetricsHistory.to_json`), which powers ``repro telemetry
history`` and the sparklines in ``repro cluster top --watch``.
"""

from __future__ import annotations

import threading
import time

__all__ = [
    "DEFAULT_MAX_SAMPLES", "MetricsHistory", "HistorySampler",
    "sparkline", "rate", "history_lines",
]

#: Default per-series capacity. At a 1 s sampling interval this covers
#: four minutes at full resolution, and each compaction doubles the
#: horizon (8 min at 2 s, 16 at 4 s, ...) in the same memory.
DEFAULT_MAX_SAMPLES = 240

HISTORY_FORMAT = "repro-history-v1"

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


class _Series:
    __slots__ = ("samples", "min_interval")

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.min_interval = 0.0


class MetricsHistory:
    """Thread-safe bounded time-series store, one ring per metric name."""

    def __init__(self, max_samples: int = DEFAULT_MAX_SAMPLES):
        self.max_samples = max(8, int(max_samples))
        self._lock = threading.Lock()
        self._series: dict[str, _Series] = {}

    def record(self, name: str, value: float,
               ts: "float | None" = None) -> None:
        """Append one sample. A sample arriving closer to the previous
        one than the series' current spacing *replaces* the previous
        value instead of growing the ring — the latest value is always
        present, and over-eager callers cannot defeat the memory bound.
        """
        ts = time.time() if ts is None else float(ts)
        value = float(value)
        with self._lock:
            series = self._series.get(name)
            if series is None:
                series = self._series[name] = _Series()
            samples = series.samples
            if samples and ts - samples[-1][0] < series.min_interval:
                samples[-1] = (samples[-1][0], value)
                return
            samples.append((ts, value))
            if len(samples) > self.max_samples:
                # Downsample: halve the resolution, double the horizon.
                series.samples = samples[::2]
                span = samples[-1][0] - samples[0][0]
                series.min_interval = max(
                    series.min_interval * 2.0,
                    2.0 * span / self.max_samples)

    def record_snapshot(self, snapshot: dict,
                        ts: "float | None" = None) -> None:
        """Record every counter and gauge in a registry snapshot (the
        :meth:`MetricsRegistry.snapshot` shape); histograms contribute
        their cumulative count as ``<key>.count``. Counters are recorded
        cumulatively — :func:`rate` turns a series back into per-second
        deltas for trend views."""
        ts = time.time() if ts is None else float(ts)
        for key, value in snapshot.get("counters", {}).items():
            self.record(key, value, ts=ts)
        for key, value in snapshot.get("gauges", {}).items():
            self.record(key, value, ts=ts)
        for key, hist in snapshot.get("histograms", {}).items():
            self.record(f"{key}.count", hist.get("count", 0), ts=ts)

    def series(self, name: str) -> list:
        with self._lock:
            series = self._series.get(name)
            return list(series.samples) if series is not None else []

    def names(self) -> list:
        with self._lock:
            return sorted(self._series)

    def latest(self, name: str) -> "float | None":
        with self._lock:
            series = self._series.get(name)
            if series is None or not series.samples:
                return None
            return series.samples[-1][1]

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)

    def to_json(self) -> dict:
        with self._lock:
            out = {name: [[ts, value] for ts, value in s.samples]
                   for name, s in sorted(self._series.items())}
        return {"format": HISTORY_FORMAT,
                "max_samples": self.max_samples,
                "series": out}

    @classmethod
    def from_json(cls, blob: dict) -> "MetricsHistory":
        history = cls(max_samples=blob.get("max_samples",
                                           DEFAULT_MAX_SAMPLES))
        for name, samples in blob.get("series", {}).items():
            for ts, value in samples:
                history.record(name, value, ts=ts)
        return history


class HistorySampler:
    """Daemon thread feeding a :class:`MetricsHistory` from a registry.

    The server-side half of history: a store server or
    any long-lived process starts one against its own registry; each
    tick samples the ``process.*`` resource gauges and records the full
    snapshot. ``stop()`` is idempotent and joins the thread.
    """

    def __init__(self, registry, history: MetricsHistory,
                 interval: float = 1.0, sample_process: bool = True):
        self.registry = registry
        self.history = history
        self.interval = max(0.01, float(interval))
        self.sample_process = sample_process
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    def _tick(self) -> None:
        if self.sample_process:
            from repro.telemetry.registry import sample_process_gauges
            sample_process_gauges(self.registry)
        self.history.record_snapshot(self.registry.snapshot())

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self._tick()
            except Exception:  # pragma: no cover - sampling must never
                pass            # take down the process it observes

    def start(self) -> "HistorySampler":
        self._tick()  # the first sample is immediate, not one tick late
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="telemetry-history")
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


def rate(samples: list) -> list:
    """Convert a cumulative series to per-second deltas: the trend view
    for counters. Negative steps (a process restart reset the counter)
    clamp to zero rather than plotting an impossible negative rate."""
    out = []
    for (t0, v0), (t1, v1) in zip(samples, samples[1:]):
        dt = t1 - t0
        if dt <= 0:
            continue
        out.append((t1, max(0.0, (v1 - v0) / dt)))
    return out


def sparkline(values, width: int = 32) -> str:
    """Render recent values as a fixed-width unicode sparkline. Empty
    input renders as spaces; a flat series sits at the lowest block so
    any movement is visible."""
    values = [float(v) for v in values]
    if not values:
        return " " * width
    if len(values) > width:
        values = values[-width:]
    lo, hi = min(values), max(values)
    span = hi - lo
    top = len(_SPARK_BLOCKS) - 1
    if span <= 0:
        line = _SPARK_BLOCKS[0] * len(values)
    else:
        line = "".join(
            _SPARK_BLOCKS[int(round((v - lo) / span * top))]
            for v in values)
    return line.rjust(width)


#: Series a trend view leads with, when present.
_PREFERRED_SERIES = ("farm.jobs_per_second", "cluster.jobs.completed",
                     "cluster.job.seconds", "process.rss_bytes",
                     "process.cpu_seconds")


def history_lines(history: dict, width: int = 32,
                  max_series: int = 8) -> list[str]:
    """Sparkline rows from a ``history`` wire payload. Cumulative farm
    counters render as per-second rates; gauges and ready-made rates
    render raw. A trend view wants few, legible rows — the preferred
    series lead and the rest fill up to ``max_series``."""
    series = (history or {}).get("series") or {}
    names = [n for n in _PREFERRED_SERIES if n in series]
    names += [n for n in sorted(series) if n not in names]
    lines: list[str] = []
    for name in names:
        if len(lines) >= max_series:
            break
        samples = [(float(ts), float(v)) for ts, v in series[name]]
        if not samples:
            continue
        if (name.startswith(("cluster.jobs.", "store.", "cluster.worker."))
                and len(samples) > 1):
            values = [v for _, v in rate(samples)]
            label = f"{name}/s"
        else:
            values = [v for _, v in samples]
            label = name
        if not values or not any(values):
            continue
        lines.append(f"  {label:<36} {sparkline(values, width)} "
                     f"latest={values[-1]:g} (n={len(values)})")
    return lines
