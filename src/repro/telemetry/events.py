"""Structured, leveled event log: the narrative half of telemetry.

Metrics say *how much* and spans say *how long*; events say *what
happened and why* — a job lease expired, a CAS swap was lost and
retried, a tier flush failed and re-queued its batch, the autoscaler
retired a worker. Each :class:`Event` is a timestamped, leveled record
with free-form ``fields`` plus the emitting process's service label and
pid, and — the part that makes post-mortems tractable — the ``trace_id``
/ ``span_id`` of the innermost active span, captured automatically at
emit time. An error event in a crash dump therefore cross-links to the
exact span in a ``--trace`` Chrome export that was running when things
went wrong.

Events live in a bounded per-process ring (:class:`EventLog`): when
full, the oldest records are dropped and ``events_dropped`` counts them,
so a long-lived server holds the *recent* narrative in fixed memory. An
optional JSONL sink mirrors every event to disk for durable logs.

Emission must be cheap enough to leave at load-bearing decision points
unconditionally: one :func:`~repro.telemetry.registry.telemetry_enabled`
check (the same process-wide kill switch metrics honor), one context-var
read, one lock/append. The overhead benchmark prices exactly this.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field

from repro.telemetry import registry as _registry
from repro.telemetry import trace as _trace

__all__ = [
    "LEVELS", "DEFAULT_MAX_EVENTS",
    "Event", "EventLog",
    "emit", "get_event_log", "set_event_log",
]

#: Severity levels, least to most severe. ``warn`` marks a recovered
#: anomaly (lease expiry, flush retry); ``error`` something lost.
LEVELS = ("debug", "info", "warn", "error")

#: Default ring capacity. Sized to hold minutes of a busy farm's
#: decision points; at ~300 bytes a record the ring tops out well under
#: 2 MiB per process.
DEFAULT_MAX_EVENTS = 4096


@dataclass
class Event:
    """One structured log record. ``ts`` is epoch seconds (wall clock,
    comparable across processes, same convention as ``Span.start``)."""

    ts: float
    level: str
    service: str
    pid: int
    message: str
    fields: dict = field(default_factory=dict)
    trace_id: str | None = None
    span_id: str | None = None

    def to_json(self) -> dict:
        blob = {
            "ts": self.ts,
            "level": self.level,
            "service": self.service,
            "pid": self.pid,
            "message": self.message,
        }
        if self.fields:
            blob["fields"] = dict(self.fields)
        if self.trace_id:
            blob["trace_id"] = self.trace_id
        if self.span_id:
            blob["span_id"] = self.span_id
        return blob

    @classmethod
    def from_json(cls, blob: dict) -> "Event":
        return cls(
            ts=float(blob.get("ts", 0.0)),
            level=str(blob.get("level", "info")),
            service=str(blob.get("service", "")),
            pid=int(blob.get("pid", 0)),
            message=str(blob.get("message", "")),
            fields=dict(blob.get("fields", {})),
            trace_id=blob.get("trace_id"),
            span_id=blob.get("span_id"),
        )


class EventLog:
    """Thread-safe bounded event ring with an optional JSONL sink.

    Bounded the same way :class:`~repro.telemetry.trace.TraceRecorder`
    is: appends never fail, the oldest records are dropped when full,
    and ``events_dropped`` counts what the ring could not hold.
    """

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS,
                 sink: "str | None" = None):
        self._lock = threading.Lock()
        self._events: list[Event] = []
        self.max_events = max(1, int(max_events))
        self.events_dropped = 0
        self._sink_file = None
        if sink:
            self.set_sink(sink)

    def set_sink(self, path: "str | None") -> None:
        """Mirror every future event to ``path`` as one JSON object per
        line (append mode); ``None`` closes the current sink."""
        with self._lock:
            if self._sink_file is not None:
                try:
                    self._sink_file.close()
                except OSError:  # pragma: no cover
                    pass
                self._sink_file = None
            if path:
                self._sink_file = open(path, "a", encoding="utf-8")

    def emit(self, level: str, message: str, **fields) -> Event:
        """Append one event, auto-capturing the active span context."""
        ctx = _trace._ctx.get()
        trace_id, span_id = ctx if ctx is not None else (None, None)
        event = Event(ts=time.time(), level=level,
                      service=_trace.service_name(), pid=os.getpid(),
                      message=message, fields=fields,
                      trace_id=trace_id, span_id=span_id)
        with self._lock:
            self._events.append(event)
            if len(self._events) > self.max_events:
                overflow = len(self._events) - self.max_events
                del self._events[:overflow]
                self.events_dropped += overflow
            if self._sink_file is not None:
                try:
                    self._sink_file.write(
                        json.dumps(event.to_json(), sort_keys=True) + "\n")
                    self._sink_file.flush()
                except OSError:  # pragma: no cover - sink loss is not
                    pass          # worth failing the emitting operation
        return event

    def snapshot(self, level: "str | None" = None) -> list:
        """The buffered events (oldest first), optionally filtered to
        one level."""
        with self._lock:
            events = list(self._events)
        if level is None:
            return events
        return [e for e in events if e.level == level]

    def drain(self) -> list:
        with self._lock:
            out = self._events
            self._events = []
            return out

    def clear(self) -> None:
        with self._lock:
            self._events = []
            self.events_dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def close(self) -> None:
        self.set_sink(None)


_global_log = EventLog()
_global_lock = threading.Lock()


def _fresh_after_fork() -> None:
    # A forked child narrates its own life: the parent's events, sink
    # and possibly-held locks stay the parent's.
    global _global_log, _global_lock
    _global_log, _global_lock = EventLog(), threading.Lock()


os.register_at_fork(after_in_child=_fresh_after_fork)


def get_event_log() -> EventLog:
    """The process-wide event log every :func:`emit` lands in."""
    return _global_log


def set_event_log(log: EventLog) -> EventLog:
    """Swap the process-wide log; returns the previous one (tests
    isolate themselves with this, mirroring ``set_registry``)."""
    global _global_log
    with _global_lock:
        previous = _global_log
        _global_log = log
    return previous


def emit(level: str, message: str, **fields) -> "Event | None":
    """Emit into the process-wide log — the one-liner instrumentation
    points use. Honors the process-wide telemetry kill switch: with
    telemetry disabled this is one module-global read and nothing else.
    """
    if not _registry.telemetry_enabled():
        return None
    return _global_log.emit(level, message, **fields)
