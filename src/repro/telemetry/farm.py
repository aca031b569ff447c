"""Farm-wide telemetry assembled on the coordinator.

Workers do not open extra connections for telemetry: the heartbeats they
already send (``fetch`` polls and lease ``renew``) carry a ``metrics``
field holding a :func:`~repro.telemetry.registry.snapshot_delta` of the
worker's own registry since its last successful send, and ``complete`` /
``fail`` carry the spans the job recorded. :class:`FarmTelemetry` is the
coordinator-side accumulator: it merges each worker's deltas into a
per-worker running snapshot, tracks a sliding completion window for
throughput, observes job durations into the coordinator's registry, and
keeps a bounded :class:`~repro.telemetry.trace.TraceRecorder` holding
coordinator job-lifecycle spans plus everything workers pushed.

:meth:`FarmTelemetry.summary` is the payload behind the coordinator's
``telemetry`` wire op — what ``repro cluster top`` renders live.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from .history import MetricsHistory, history_lines
from .registry import (MetricsRegistry, merge_histograms, merge_snapshot,
                       parse_metric_key, sample_process_gauges,
                       summarize_histogram, sync_dropped_counter)
from .trace import Span, TraceRecorder

__all__ = ["FarmTelemetry", "format_latency", "render_top"]

#: Histogram families surfaced per worker in `cluster top` (bare metric
#: name -> summary key). Labeled variants (per-kind, per-cmd) merge into
#: one family-wide latency summary.
_WORKER_LATENCY_FAMILIES = {
    "cluster.worker.job_seconds": "job_seconds",
    "store.client.request_seconds": "store_request_seconds",
}

#: Counter families surfaced per worker (bare metric name -> summary
#: key). Tier counters ride the same heartbeat deltas as everything else;
#: a worker without a local tier simply reports zeros.
_WORKER_COUNTER_FAMILIES = {
    "store.tier.hits": "tier_hits",
    "store.tier.misses": "tier_misses",
    "store.tier.flushed_blobs": "tier_flushed",
    # Fault-tolerance health: nonzero means the worker is riding out
    # store / coordinator flakiness behind its retry layer.
    "store.retries": "store_retries",
    "cluster.reconnects": "reconnects",
}


class FarmTelemetry:
    """Aggregates worker metric deltas, job completions, and spans."""

    def __init__(self, window_seconds: float = 60.0,
                 max_spans: int = 50000,
                 registry: MetricsRegistry | None = None):
        self.window_seconds = window_seconds
        self.registry = registry if registry is not None else MetricsRegistry()
        self.recorder = TraceRecorder(max_spans=max_spans)
        #: Farm-wide metrics history, fed from the heartbeat delta stream
        #: (no extra sampler: every absorbed delta advances the series).
        self.history = MetricsHistory()
        self._lock = threading.Lock()
        self._worker_metrics: dict[str, dict] = {}
        self._farm_counters: dict[str, float] = {}
        self._completions: deque = deque()
        self._job_seconds = self.registry.histogram(
            "cluster.job.duration_seconds")
        self._jobs_completed = self.registry.counter("cluster.jobs.completed")
        self._jobs_failed = self.registry.counter("cluster.jobs.failed")
        self._spans_absorbed = self.registry.counter(
            "cluster.telemetry.spans_absorbed")

    # ------------------------------------------------------------------
    # absorption (called from coordinator request handlers)

    def absorb_metrics(self, worker_id: str, delta) -> None:
        """Merge one heartbeat delta into the worker's running snapshot.
        Malformed payloads are dropped — telemetry must never fail a
        fetch/renew."""
        if not worker_id or not isinstance(delta, dict):
            return
        try:
            touched: dict[str, float] = {}
            with self._lock:
                mine = self._worker_metrics.setdefault(worker_id, {})
                merge_snapshot(mine, delta)
                for key, value in (delta.get("counters") or {}).items():
                    total = self._farm_counters.get(key, 0) + value
                    self._farm_counters[key] = total
                    touched[key] = total
        except (TypeError, ValueError, KeyError, AttributeError):
            return
        # Farm-wide cumulative series: each heartbeat delta advances the
        # history at the merged-across-workers total.
        for key, total in touched.items():
            self.history.record(key, total)

    def absorb_spans(self, spans) -> None:
        """Store spans a worker pushed with its job result (wire JSON)."""
        if not isinstance(spans, list):
            return
        for blob in spans:
            if not isinstance(blob, dict):
                continue
            try:
                self.recorder.record(Span.from_json(blob))
            except (TypeError, ValueError):
                continue
            self._spans_absorbed.inc()

    def note_job(self, duration_seconds: float, *, failed: bool = False,
                 kind: str = "") -> None:
        """Record one finished job for throughput/latency aggregates."""
        now = time.monotonic()
        self._job_seconds.observe(duration_seconds)
        if kind:
            self.registry.histogram("cluster.job.duration_seconds",
                                    kind=kind).observe(duration_seconds)
        (self._jobs_failed if failed else self._jobs_completed).inc()
        with self._lock:
            self._completions.append(now)
            cutoff = now - self.window_seconds
            while self._completions and self._completions[0] < cutoff:
                self._completions.popleft()
            in_window = len(self._completions)
        self.history.record("farm.jobs_per_second",
                            in_window / self.window_seconds)
        self.history.record("cluster.jobs.completed",
                            self._jobs_completed.value)
        self.history.record("cluster.job.seconds", duration_seconds)

    # ------------------------------------------------------------------
    # summary (the `telemetry` wire op payload)

    def worker_summary(self, worker_id: str) -> dict:
        """Aggregates for one worker from its merged metric snapshot."""
        with self._lock:
            snap = self._worker_metrics.get(worker_id)
            snap = dict(snap) if snap else {}
        counters = snap.get("counters", {})
        out = {
            "jobs_done": counters.get("cluster.worker.jobs_done", 0),
            "jobs_failed": counters.get("cluster.worker.jobs_failed", 0),
        }
        gauges = snap.get("gauges", {})
        # Resource gauges ride the heartbeat deltas (see
        # ClusterWorker._pop_metrics_delta) — `cluster top` shows them.
        out["rss_bytes"] = gauges.get("process.rss_bytes", 0)
        out["cpu_seconds"] = gauges.get("process.cpu_seconds", 0.0)
        out.update({summary_key: 0
                    for summary_key in _WORKER_COUNTER_FAMILIES.values()})
        for key, value in counters.items():
            name, _ = parse_metric_key(key)
            family = _WORKER_COUNTER_FAMILIES.get(name)
            if family is not None:
                out[family] += value
        families: dict[str, list] = {k: [] for k
                                     in _WORKER_LATENCY_FAMILIES.values()}
        for key, hist in snap.get("histograms", {}).items():
            name, _ = parse_metric_key(key)
            family = _WORKER_LATENCY_FAMILIES.get(name)
            if family is not None:
                families[family].append(hist)
        for family, hists in families.items():
            out[family] = summarize_histogram(merge_histograms(hists))
        return out

    def worker_metrics(self, worker_id: str) -> dict:
        with self._lock:
            snap = self._worker_metrics.get(worker_id)
            return dict(snap) if snap else {}

    def throughput(self) -> dict:
        now = time.monotonic()
        with self._lock:
            cutoff = now - self.window_seconds
            while self._completions and self._completions[0] < cutoff:
                self._completions.popleft()
            completed = len(self._completions)
        return {
            "window_seconds": self.window_seconds,
            "completed": completed,
            "jobs_per_second": completed / self.window_seconds,
        }

    def summary(self, workers: dict | None = None,
                include_worker_metrics: bool = False) -> dict:
        """Farm-wide aggregate view. ``workers`` is the coordinator's
        per-worker queue view ({worker_id: {"queue_depth": ...,
        "last_seen_seconds": ...}}); telemetry-only workers (seen via
        heartbeats but since forgotten by the queue) are still listed."""
        with self._lock:
            known = set(self._worker_metrics)
        merged: dict[str, dict] = {}
        for worker_id in sorted(known | set(workers or {})):
            entry = dict((workers or {}).get(worker_id, {}))
            entry.update(self.worker_summary(worker_id))
            if include_worker_metrics:
                entry["metrics"] = self.worker_metrics(worker_id)
            merged[worker_id] = entry
        sync_dropped_counter(self.registry, "telemetry.spans_dropped",
                             self.recorder.dropped)
        sample_process_gauges(self.registry)
        return {
            "workers": merged,
            "metrics": self.registry.snapshot(),
            "throughput": self.throughput(),
            "job_duration_seconds": summarize_histogram(
                self._job_seconds.snapshot()
                if hasattr(self._job_seconds, "snapshot") else None),
            "spans_buffered": len(self.recorder),
            "spans_dropped": self.recorder.dropped,
        }


def format_latency(summary: dict) -> str:
    """`p50/p95 ms (n)` from a summarize_histogram dict."""
    if not summary or not summary.get("count"):
        return "-"
    return (f"{summary['p50'] * 1000:.0f}/{summary['p95'] * 1000:.0f}ms "
            f"(n={summary['count']})")


def render_top(info: dict) -> str:
    """The ``cluster top`` screen from a coordinator ``telemetry``
    response: job states, throughput, the coordinator's own resource
    gauges, one row per worker, and sparkline trends from the history."""
    tel = info["telemetry"]
    jobs = tel.get("jobs", {})
    states = jobs.get("states", {})
    state_line = " ".join(f"{state}={states[state]}"
                          for state in sorted(states)) or "none"
    thr = tel.get("throughput", {})
    lines = [
        f"jobs: {jobs.get('total', 0)} known ({state_line}); "
        f"shared queue depth {tel.get('shared_queue_depth', 0)}",
        f"throughput: {thr.get('completed', 0)} completed in the last "
        f"{thr.get('window_seconds', 0):.0f}s "
        f"({thr.get('jobs_per_second', 0.0):.2f}/s); "
        f"farm job duration "
        f"{format_latency(tel.get('job_duration_seconds'))}"]
    gauges = (tel.get("metrics") or {}).get("gauges") or {}
    if gauges.get("process.rss_bytes"):
        lines.append(
            f"coordinator: rss "
            f"{gauges['process.rss_bytes'] / (1 << 20):.0f} MB, "
            f"cpu {gauges.get('process.cpu_seconds', 0.0):.1f}s, "
            f"{int(gauges.get('process.open_fds', 0))} fds; "
            f"{tel.get('spans_buffered', 0)} spans buffered "
            f"({tel.get('spans_dropped', 0)} dropped)")
    workers = tel.get("workers", {})
    if not workers:
        lines.append("no workers seen")
    else:
        lines.append(
            f"{'worker':<16} {'queue':>5} {'run':>4} {'done':>6} "
            f"{'fail':>5} {'rss':>7} {'tier h/m':>12} {'flush':>6} "
            f"{'retry':>6} {'job p50/p95':>18} {'store p50/p95':>18} "
            f"{'seen':>8}")
        for worker_id in sorted(workers):
            w = workers[worker_id]
            seen = w.get("last_seen_seconds")
            tier = (f"{w.get('tier_hits', 0)}/{w.get('tier_misses', 0)}"
                    if w.get("tier_hits", 0) or w.get("tier_misses", 0)
                    else "-")
            rss = w.get("rss_bytes", 0)
            # Store retries and coordinator reconnects in one health
            # column: zero on a clean farm, so any number here is signal.
            retries = (w.get("store_retries", 0) or 0) + \
                (w.get("reconnects", 0) or 0)
            lines.append(
                f"{worker_id:<16} {w.get('queue_depth', 0):>5} "
                f"{w.get('running', 0):>4} {w.get('jobs_done', 0):>6} "
                f"{w.get('jobs_failed', 0):>5} "
                f"{f'{rss / (1 << 20):.0f}MB' if rss else '-':>7} "
                f"{tier:>12} {w.get('tier_flushed', 0) or '-':>6} "
                f"{retries or '-':>6} "
                f"{format_latency(w.get('job_seconds')):>18} "
                f"{format_latency(w.get('store_request_seconds')):>18} "
                f"{'' if seen is None else f'{seen:.1f}s ago':>8}")
    trend = history_lines(info.get("history") or {})
    if trend:
        lines += ["history:", *trend]
    return "\n".join(lines)
