"""Trace spans with explicit parent ids and cross-process propagation.

The span model is deliberately small: a :class:`Span` is a named interval
with a ``trace_id`` shared by everything one command caused, a unique
``span_id``, and an optional ``parent_id`` — that's the whole tree. Spans
carry the recording process's pid and a human ``process`` service name so
the Chrome exporter can lay one ``cluster build`` out as client /
coordinator / worker / store-server tracks.

In-process propagation is a context variable holding ``(trace_id,
span_id)``; :func:`span` is the context manager that pushes a child,
:func:`current` reads the propagation context in wire form. Across
processes the same pair travels as a ``trace`` field in the wire JSON
header::

    {"cmd": "put", "digest": ..., "trace": {"trace_id": ...,
                                            "parent_span_id": ...}}

and as ``Job.trace`` on cluster jobs. A server that receives a traced
request opens a span parented to the client's request span
(:func:`begin_wire_span` / :func:`end_wire_span`); untraced requests pay
nothing.

Recording is explicit: spans go to a :class:`TraceRecorder` if one is
active (the context-var/global pair set by :func:`recording` /
:func:`set_global_recorder`), otherwise :func:`span` degrades to pure
context propagation — it forwards the *incoming* parent unchanged rather
than minting span ids nobody will ever see, so parent links in the
exported tree never dangle on a process that wasn't recording.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import threading
import time
import uuid
from dataclasses import dataclass, field

__all__ = [
    "Span", "TraceRecorder", "new_span_id", "new_trace_id",
    "span", "current", "recording", "active_recorder",
    "set_global_recorder", "set_service", "service_name",
    "begin_wire_span", "end_wire_span",
]


def new_trace_id() -> str:
    return uuid.uuid4().hex


def new_span_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass
class Span:
    """One timed interval in a trace tree. ``start`` is epoch seconds
    (wall clock, comparable across processes); ``duration`` is measured
    with ``perf_counter`` so short spans are not quantized away."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None = None
    start: float = 0.0
    duration: float = 0.0
    process: str = ""
    pid: int = 0
    tid: int = 0
    attrs: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        blob = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "start": self.start,
            "duration": self.duration,
            "process": self.process,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.parent_id:
            blob["parent_id"] = self.parent_id
        if self.attrs:
            blob["attrs"] = dict(self.attrs)
        return blob

    @classmethod
    def from_json(cls, blob: dict) -> "Span":
        return cls(
            name=blob.get("name", ""),
            trace_id=blob.get("trace_id", ""),
            span_id=blob.get("span_id", ""),
            parent_id=blob.get("parent_id"),
            start=float(blob.get("start", 0.0)),
            duration=float(blob.get("duration", 0.0)),
            process=blob.get("process", ""),
            pid=int(blob.get("pid", 0)),
            tid=int(blob.get("tid", 0)),
            attrs=dict(blob.get("attrs", {})),
        )


class TraceRecorder:
    """Thread-safe bounded span sink. Bounded because a traced farm build
    records a span per wire request; when full, the oldest spans are
    dropped and ``dropped`` counts them so exports can say so."""

    def __init__(self, max_spans: int = 50000):
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self.max_spans = max_spans
        self.dropped = 0

    def record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
            if len(self._spans) > self.max_spans:
                overflow = len(self._spans) - self.max_spans
                del self._spans[:overflow]
                self.dropped += overflow

    def extend(self, spans) -> None:
        for sp in spans:
            self.record(sp)

    def spans(self) -> list:
        with self._lock:
            return list(self._spans)

    def drain(self) -> list:
        with self._lock:
            out = self._spans
            self._spans = []
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


# Propagation context: (trace_id, span_id) of the innermost active span.
_ctx: contextvars.ContextVar = contextvars.ContextVar(
    "repro_trace_ctx", default=None)
# Per-context recorder override (used by `recording`), falling back to a
# process-global recorder (used by long-lived servers).
_ctx_recorder: contextvars.ContextVar = contextvars.ContextVar(
    "repro_trace_recorder", default=None)
_global_recorder: TraceRecorder | None = None
_service = ""


def _fresh_after_fork() -> None:
    # A forked child records nothing until it says so: a span written to
    # its copy of the parent's recorder reaches nobody, and the parent's
    # open span is not its ancestor.
    global _global_recorder, _service
    _global_recorder, _service = None, ""
    _ctx.set(None)
    _ctx_recorder.set(None)


os.register_at_fork(after_in_child=_fresh_after_fork)


def set_service(name: str) -> None:
    """Label spans recorded by this process (shown as the Perfetto track
    name: ``client``, ``coordinator``, ``worker proc-0``, ...)."""
    global _service
    _service = name


def service_name() -> str:
    return _service or f"pid-{os.getpid()}"


def set_global_recorder(recorder: TraceRecorder | None) -> TraceRecorder | None:
    """Install a process-wide recorder (servers record from many threads;
    a context-var would not cross thread boundaries). Returns the
    previous one."""
    global _global_recorder
    previous = _global_recorder
    _global_recorder = recorder
    return previous


def active_recorder() -> TraceRecorder | None:
    rec = _ctx_recorder.get()
    return rec if rec is not None else _global_recorder


@contextlib.contextmanager
def recording(recorder: TraceRecorder):
    """Route spans opened in this context (same thread) to ``recorder``."""
    token = _ctx_recorder.set(recorder)
    try:
        yield recorder
    finally:
        _ctx_recorder.reset(token)


def current() -> dict | None:
    """The propagation context in wire form — the value to place in a
    wire header ``trace`` field or a ``Job.trace`` — or None when no
    trace is active."""
    ctx = _ctx.get()
    if ctx is None:
        return None
    trace_id, span_id = ctx
    return {"trace_id": trace_id, "parent_span_id": span_id}


@contextlib.contextmanager
def span(name: str, attrs: dict | None = None, parent: dict | None = None,
         recorder: TraceRecorder | None = None):
    """Open a child span of ``parent`` (wire-form dict), of the innermost
    active span, or — when recording with no ancestor — of a brand-new
    trace. Yields the :class:`Span` (mutable: add ``attrs`` before exit)
    or None on the no-op paths.

    With no recorder and no incoming trace this is a near-free no-op, so
    instrumentation points stay unconditionally in place on hot paths.
    """
    rec = recorder if recorder is not None else active_recorder()
    if parent is not None and parent.get("trace_id"):
        trace_id = parent["trace_id"]
        parent_id = parent.get("parent_span_id")
    else:
        ctx = _ctx.get()
        trace_id, parent_id = ctx if ctx is not None else (None, None)

    if rec is None:
        if trace_id is None:
            yield None
            return
        # Propagate the incoming context without minting a span id nobody
        # records — children (possibly in another process) parent to the
        # nearest *recorded* ancestor and the exported tree stays valid.
        token = _ctx.set((trace_id, parent_id))
        try:
            yield None
        finally:
            _ctx.reset(token)
        return

    if trace_id is None:
        trace_id = new_trace_id()
    sp = Span(name=name, trace_id=trace_id, span_id=new_span_id(),
              parent_id=parent_id, start=time.time(),
              process=service_name(), pid=os.getpid(),
              tid=threading.get_ident() & 0xFFFFFFFF,
              attrs=dict(attrs or {}))
    started = time.perf_counter()
    token = _ctx.set((trace_id, sp.span_id))
    try:
        yield sp
    finally:
        sp.duration = time.perf_counter() - started
        _ctx.reset(token)
        rec.record(sp)


def begin_wire_span(parent: dict | None):
    """Server half of wire propagation: call with the request header's
    ``trace`` field when a request arrives. Returns an opaque token (or
    None for untraced requests — the common case, which costs two dict
    lookups and nothing else)."""
    if not parent or not parent.get("trace_id"):
        return None
    return (parent, time.time(), time.perf_counter())


def end_wire_span(recorder: TraceRecorder | None, token, name: str,
                  attrs: dict | None = None) -> Span | None:
    """Close a token from :func:`begin_wire_span` into ``recorder``."""
    if token is None or recorder is None:
        return None
    parent, started_at, perf0 = token
    sp = Span(name=name, trace_id=parent["trace_id"],
              span_id=new_span_id(),
              parent_id=parent.get("parent_span_id"),
              start=started_at, duration=time.perf_counter() - perf0,
              process=service_name(), pid=os.getpid(),
              tid=threading.get_ident() & 0xFFFFFFFF,
              attrs=dict(attrs or {}))
    recorder.record(sp)
    return sp
