"""Exporters: Chrome trace-event JSON and metrics snapshot files.

The trace format is the Chrome/Perfetto "trace event" object form::

    {"traceEvents": [...], "displayTimeUnit": "ms", ...}

with one complete-duration event (``"ph": "X"``, microsecond ``ts`` /
``dur``) per span and ``process_name`` metadata events mapping each pid
to its service label, so `chrome://tracing` / https://ui.perfetto.dev
lays a farm build out as one track per process. Span identity
(``trace_id`` / ``span_id`` / ``parent_span_id``) rides in each event's
``args`` — Chrome ignores it, tools and the CI validator join on it.

:func:`validate_chrome_trace` is the schema check CI runs against the
file a farm build exported: structural validity plus referential
integrity of parent links.
"""

from __future__ import annotations

import json

from .trace import Span

__all__ = [
    "chrome_trace", "write_chrome_trace", "spans_from_chrome",
    "validate_chrome_trace", "write_metrics_snapshot",
]


def chrome_trace(spans, metadata: dict | None = None) -> dict:
    """Render spans to a Chrome trace-event document (plain dict)."""
    events = []
    seen_processes = set()
    for sp in spans:
        key = (sp.pid, sp.process or f"pid-{sp.pid}")
        if key not in seen_processes:
            seen_processes.add(key)
            events.append({
                "ph": "M", "name": "process_name", "pid": sp.pid, "tid": 0,
                "args": {"name": key[1]},
            })
        args = {
            "trace_id": sp.trace_id,
            "span_id": sp.span_id,
        }
        if sp.parent_id:
            args["parent_span_id"] = sp.parent_id
        args.update(sp.attrs)
        events.append({
            "ph": "X",
            "name": sp.name,
            "cat": sp.name.split(".", 1)[0] or "span",
            "ts": sp.start * 1e6,
            "dur": max(sp.duration, 0.0) * 1e6,
            "pid": sp.pid,
            "tid": sp.tid,
            "args": args,
        })
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    if metadata:
        doc["otherData"] = dict(metadata)
    return doc


def write_chrome_trace(path, spans, metadata: dict | None = None) -> dict:
    """Write the Chrome trace for ``spans`` to ``path``; returns the
    document (handy for tests and for printing a summary)."""
    doc = chrome_trace(spans, metadata)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return doc


def spans_from_chrome(doc: dict) -> list:
    """Recover :class:`Span` objects from a Chrome trace document
    (inverse of :func:`chrome_trace`, minus thread ids' upper bits)."""
    process_names = {
        event.get("pid", 0): event.get("args", {}).get("name", "")
        for event in doc.get("traceEvents", [])
        if event.get("ph") == "M" and event.get("name") == "process_name"}
    out = []
    for event in doc.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        out.append(Span(
            name=event.get("name", ""),
            trace_id=args.pop("trace_id", ""),
            span_id=args.pop("span_id", ""),
            parent_id=args.pop("parent_span_id", None),
            start=event.get("ts", 0.0) / 1e6,
            duration=event.get("dur", 0.0) / 1e6,
            process=process_names.get(event.get("pid", 0), ""),
            pid=event.get("pid", 0),
            tid=event.get("tid", 0),
            attrs=args,
        ))
    return out


def validate_chrome_trace(doc) -> list:
    """Validate a Chrome trace document against the schema this exporter
    emits. Returns a list of problem strings (empty == valid):

    * top level is an object with a ``traceEvents`` list;
    * every ``X`` event has ``name``/``ts``/``dur``/``pid``/``tid`` with
      numeric timing fields and an ``args`` object carrying non-empty
      ``trace_id`` and ``span_id``;
    * ``span_id`` values are unique;
    * every ``parent_span_id`` either references a ``span_id`` present in
      the file or belongs to a span whose parent lived in a process that
      was not recording — which this exporter never produces, so a
      dangling parent is reported.
    """
    problems = []
    if not isinstance(doc, dict):
        return ["top level is not an object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents list"]
    span_ids = set()
    parents = []
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = event.get("ph")
        if ph in ("M", "i"):  # metadata / instant (overlaid events)
            continue
        if ph != "X":
            problems.append(f"event {i}: unexpected ph {ph!r}")
            continue
        if not event.get("name"):
            problems.append(f"event {i}: missing name")
        for fld in ("ts", "dur"):
            if not isinstance(event.get(fld), (int, float)):
                problems.append(f"event {i}: non-numeric {fld}")
        for fld in ("pid", "tid"):
            if not isinstance(event.get(fld), int):
                problems.append(f"event {i}: non-integer {fld}")
        args = event.get("args")
        if not isinstance(args, dict):
            problems.append(f"event {i}: missing args")
            continue
        span_id = args.get("span_id")
        if not args.get("trace_id") or not span_id:
            problems.append(f"event {i}: args missing trace_id/span_id")
            continue
        if span_id in span_ids:
            problems.append(f"event {i}: duplicate span_id {span_id}")
        span_ids.add(span_id)
        parent = args.get("parent_span_id")
        if parent:
            parents.append((i, parent))
    for i, parent in parents:
        if parent not in span_ids:
            problems.append(f"event {i}: dangling parent_span_id {parent}")
    return problems


def write_metrics_snapshot(path, snapshot: dict,
                           extra: dict | None = None) -> dict:
    """Write a registry snapshot (the format documented in
    docs/architecture.md) to ``path`` as JSON."""
    doc = {"format": "repro-metrics-v1", "metrics": snapshot}
    if extra:
        doc.update(extra)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return doc
