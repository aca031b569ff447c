"""Process-local metrics registry: counters, gauges, fixed-bucket histograms.

Every subsystem that used to keep ad-hoc counters (`ServerMetrics` on the
store servers, the artifact index's CAS-retry stats, `SessionPool`
churn counts, a worker's pipeline counters) now creates its metrics here
and keeps its historical accessors as *views* over the registry. What the
registry buys over bare ints:

* **One naming scheme.** Metrics are dotted-path names plus optional
  labels — ``store.server.requests``, ``cache.hits{namespace=ir}``,
  ``cluster.job.duration_seconds{kind=deploy}`` — so the coordinator can
  hold every worker's counters in its own registry under a
  ``worker=<id>`` label without per-subsystem glue.
* **One snapshot shape.** :meth:`MetricsRegistry.snapshot` returns plain
  JSON (``{"counters": {...}, "gauges": {...}, "histograms": {...}}``)
  keyed by the rendered metric key. Workers ship the counters and gauges
  that changed since their last heartbeat (:func:`snapshot_delta`); the
  coordinator folds each delta into its registry under the worker's
  label (:meth:`MetricsRegistry.absorb`), and nothing is double-counted.

Histograms use **fixed bucket boundaries** (cumulative-free, one count per
bucket plus an overflow bucket); quantiles are read off the bucket
counts, with no sketches.

Threading: each metric carries its own small lock; the registry lock is
only taken on metric creation. Hot-path cost of ``Counter.inc`` is one
lock acquire and one add.
"""

from __future__ import annotations

import os
import threading

__all__ = [
    "DURATION_BUCKETS", "SIZE_BUCKETS",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "get_registry", "set_registry",
    "metric_key", "parse_metric_key",
    "snapshot_delta", "totals_by_label",
    "histogram_quantile", "summarize_histogram",
    "sample_process_gauges", "sync_dropped_counter",
]

#: Default boundaries for duration histograms (seconds). Spans the whole
#: range this system sees: sub-millisecond wire ops up to multi-second
#: farm jobs. The last bucket is implicit (> the final boundary).
DURATION_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)

#: Boundaries for byte-size histograms (requests, blobs).
SIZE_BUCKETS = (256, 1024, 4096, 16384, 65536, 262144, 1048576,
                4194304, 16777216, 67108864)


def metric_key(name: str, labels: dict | None = None) -> str:
    """Render one metric identity: ``name`` or ``name{k=v,...}`` with
    labels in sorted order — the snapshot/delta join key."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_metric_key(key: str) -> tuple[str, dict]:
    """Invert :func:`metric_key` (aggregators group by bare name)."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels = {}
    for pair in inner[:-1].split(","):
        if "=" in pair:
            k, _, v = pair.partition("=")
            labels[k] = v
    return name, labels


class Counter:
    """Monotonic count: instrumentation only ever :meth:`inc`s."""

    __slots__ = ("_lock", "_value")

    def __init__(self, value: int = 0):
        self._lock = threading.Lock()
        self._value = value

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """Point-in-time value. :meth:`max_of` is the high-water-mark update
    the servers' ``peak_*`` metrics use."""

    __slots__ = ("_lock", "_value")

    def __init__(self, value: float = 0):
        self._lock = threading.Lock()
        self._value = value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def max_of(self, value: float) -> None:
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-boundary histogram: ``len(buckets) + 1`` counts (the last is
    the overflow bucket), a running sum, and a total count."""

    __slots__ = ("_lock", "buckets", "counts", "sum", "count")

    def __init__(self, buckets: tuple = DURATION_BUCKETS):
        self._lock = threading.Lock()
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        idx = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        with self._lock:
            self.counts[idx] += 1
            self.sum += value
            self.count += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {"buckets": list(self.buckets),
                    "counts": list(self.counts),
                    "sum": self.sum, "count": self.count}


class MetricsRegistry:
    """Get-or-create factory for named, labeled metrics plus snapshots.

    A registry is cheap; subsystems that need per-instance counts (two
    store servers in one test process must not share ``requests_served``)
    own one each, while process-singletons (the ``process.*`` gauges) use
    the module default from :func:`get_registry`.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str, **labels) -> Counter:
        key = metric_key(name, labels)
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter()
            return metric

    def gauge(self, name: str, **labels) -> Gauge:
        key = metric_key(name, labels)
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = self._gauges[key] = Gauge()
            return metric

    def histogram(self, name: str, buckets: tuple = DURATION_BUCKETS,
                  **labels) -> Histogram:
        key = metric_key(name, labels)
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = self._histograms[key] = Histogram(buckets)
            return metric

    def absorb(self, delta: dict, **labels) -> None:
        """Fold another process's :func:`snapshot_delta` in, each metric
        under ``labels`` beside its own: counters add, gauges keep the
        maximum (the ``peak_*`` high-water marks a delta carries). A
        malformed delta raises ``TypeError``, ``ValueError`` or
        ``AttributeError`` before anything is applied."""
        counters = [(parse_metric_key(key), int(value))
                    for key, value in delta.get("counters", {}).items()]
        gauges = [(parse_metric_key(key), float(value))
                  for key, value in delta.get("gauges", {}).items()]
        for (name, own), value in counters:
            self.counter(name, **{**own, **labels}).inc(value)
        for (name, own), value in gauges:
            self.gauge(name, **{**own, **labels}).max_of(value)

    def snapshot(self) -> dict:
        """The registry's full state as plain JSON (the documented metrics
        snapshot format — see docs/architecture.md, "Telemetry")."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {k: c.value for k, c in sorted(counters.items())},
            "gauges": {k: g.value for k, g in sorted(gauges.items())},
            "histograms": {k: h.snapshot()
                           for k, h in sorted(histograms.items())},
        }


def snapshot_delta(current: dict, previous: dict) -> dict:
    """``current - previous`` for heartbeat shipping: counters subtract,
    gauges pass through at their latest value; histograms stay home.
    Metrics that did not change are omitted, so an idle worker's
    heartbeat carries an empty delta."""
    prev_counters = previous.get("counters", {})
    prev_gauges = previous.get("gauges", {})
    return {
        "counters": {key: value - prev_counters.get(key, 0)
                     for key, value in current.get("counters", {}).items()
                     if value != prev_counters.get(key, 0)},
        "gauges": {key: value
                   for key, value in current.get("gauges", {}).items()
                   if value != prev_gauges.get(key)},
    }


def totals_by_label(values: dict, label: str) -> dict:
    """One snapshot section (``counters`` or ``gauges``) grouped by the
    value of ``label``: ``{label value: {bare name: sum over its other
    labels}}`` — how the farm's per-worker rows read the coordinator's
    registry. Keys without ``label`` are left out."""
    out: dict = {}
    for key, value in values.items():
        name, labels = parse_metric_key(key)
        if label in labels:
            row = out.setdefault(labels[label], {})
            row[name] = row.get(name, 0) + value
    return out


def histogram_quantile(hist: dict, q: float) -> float:
    """Estimate a quantile from bucket counts: the upper boundary of the
    bucket where the cumulative count crosses ``q * count`` (overflow
    observations report the top boundary — the histogram cannot say
    more). 0.0 for an empty histogram."""
    total = hist.get("count", 0)
    if not total:
        return 0.0
    target = q * total
    cumulative = 0
    buckets = hist["buckets"]
    for i, count in enumerate(hist["counts"]):
        cumulative += count
        if cumulative >= target:
            return float(buckets[i]) if i < len(buckets) \
                else float(buckets[-1]) if buckets else 0.0
    return float(buckets[-1]) if buckets else 0.0


def summarize_histogram(hist: dict | None) -> dict:
    """Count, mean, p50 and p95 of one histogram snapshot (the farm job
    duration ``cluster status`` prints)."""
    if not hist or not hist.get("count"):
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0}
    count = hist["count"]
    return {
        "count": count,
        "mean": hist["sum"] / count,
        "p50": histogram_quantile(hist, 0.50),
        "p95": histogram_quantile(hist, 0.95),
    }


def sample_process_gauges(registry: "MetricsRegistry | None" = None) -> dict:
    """Sample this process's resource usage into ``process.*`` gauges:
    ``process.rss_bytes`` and ``process.open_fds`` from ``/proc`` (a
    graceful no-op where there is no procfs), ``process.cpu_seconds``
    from ``os.times()`` everywhere. Called at every snapshot point
    (server ``telemetry`` op, coordinator farm summary, worker heartbeat
    delta, crash dump) so resource usage rides the same pipes as every
    other metric. Returns what was sampled."""
    if registry is None:
        registry = get_registry()
    sampled: dict = {}
    try:
        times = os.times()
        sampled["process.cpu_seconds"] = times.user + times.system
    except (AttributeError, OSError):  # pragma: no cover - exotic hosts
        pass
    try:
        with open("/proc/self/statm", "rb") as fh:
            rss_pages = int(fh.read().split()[1])
        sampled["process.rss_bytes"] = rss_pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        pass
    try:
        sampled["process.open_fds"] = len(os.listdir("/proc/self/fd"))
    except OSError:
        pass
    for name, value in sampled.items():
        registry.gauge(name).set(value)
    return sampled


def sync_dropped_counter(registry: "MetricsRegistry | None", name: str,
                         total: int) -> None:
    """Mirror a ring buffer's cumulative drop count (``TraceRecorder.
    dropped``, ``EventLog.events_dropped``) into a monotonic registry
    counter — called at snapshot points so ``telemetry.spans_dropped``
    and kin ride heartbeat deltas like any other counter."""
    if registry is None:
        return
    counter = registry.counter(name)
    delta = int(total) - counter.value
    if delta > 0:
        counter.inc(delta)


_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def _fresh_after_fork() -> None:
    # A forked child counts for itself, behind a lock nobody holds (a
    # thread of the parent that held it did not survive the fork).
    global _default_registry, _default_lock
    _default_registry, _default_lock = MetricsRegistry(), threading.Lock()


os.register_at_fork(after_in_child=_fresh_after_fork)


def get_registry() -> MetricsRegistry:
    """The process-default registry: process-singleton metrics, such as
    the ``process.*`` gauges :func:`sample_process_gauges` samples when
    handed no registry of its own."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-default registry; returns the previous one (tests
    isolate themselves with this)."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
    return previous
