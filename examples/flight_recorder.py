"""Flight recorder: structured events, crash dumps, cross-linked reports.

Walks the diagnostic layer end to end, in-process:

1. **Structured events** — leveled records with free-form fields that
   auto-capture the active span context, buffered in a bounded ring.
2. **Crash dump** — a worker-style failure inside a recorded span; the
   flight recorder's `guard` writes `crash-<service>-<pid>.json` holding
   the event narrative, buffered spans, and a metrics snapshot.
3. **Cross-linked report** — render the dump against the Chrome trace
   export of the same spans: each error event resolves to the exported
   span it was emitted under (`repro telemetry report --trace` does the
   same from the command line).

Run:  PYTHONPATH=src python examples/flight_recorder.py
"""

import tempfile

from repro.telemetry import events as events_api
from repro.telemetry import trace as trace_api
from repro.telemetry.events import EventLog
from repro.telemetry.export import spans_from_chrome, write_chrome_trace
from repro.telemetry.flightrec import (
    FlightRecorder,
    load_crash_dump,
    render_report,
)
from repro.telemetry.registry import MetricsRegistry


def structured_events(log: EventLog, recorder) -> None:
    print("== structured events ==")
    trace_api.set_service("example-worker")
    log.emit("info", "worker started", worker="example-worker")
    with trace_api.recording(recorder):
        with trace_api.span("cluster.job.run", attrs={"job": "deploy-1"}):
            # Emitted inside a span: the event records the trace/span ids
            # of the execution it narrates — no manual correlation.
            log.emit("warn", "lease renewal slow", job_id="deploy-1",
                     latency_ms=740)
    event = log.snapshot()[-1]
    print(f"{len(log)} events buffered; last: [{event.level}] "
          f"{event.message} {event.fields}")
    print(f"  auto-captured trace={event.trace_id[:8]}… "
          f"span={event.span_id}")


def crash_dump(log: EventLog, recorder, directory: str) -> str:
    print("\n== crash dump ==")
    registry = MetricsRegistry()
    registry.counter("cluster.worker.jobs_done").inc(17)
    flightrec = FlightRecorder(directory=directory, recorder=recorder,
                               registry=registry, event_log=log,
                               extra={"worker": "example-worker"})
    # `guard` is the deterministic hook for code that owns its entry
    # point; `flightrec.install()` wires sys.excepthook / SIGUSR2 the
    # same way for real services.
    try:
        with flightrec.guard(reason="unhandled exception"):
            with trace_api.recording(recorder):
                with trace_api.span("cluster.job.run",
                                    attrs={"job": "deploy-2"}):
                    log.emit("error", "job execution failed",
                             job_id="deploy-2", error="BuildError: boom")
                    raise RuntimeError("injected failure for the example")
    except RuntimeError:
        pass
    [path] = flightrec.dumps
    dump = load_crash_dump(path)
    print(f"dump: {path}")
    print(f"  reason={dump['reason']!r} exception={dump['exception']['type']}"
          f" events={len(dump['events'])} spans={len(dump['spans'])}")
    return path


def cross_linked_report(dump_path: str, recorder, trace_path: str) -> None:
    print("\n== cross-linked report ==")
    write_chrome_trace(trace_path, recorder.spans())
    import json
    with open(trace_path, encoding="utf-8") as handle:
        doc = json.load(handle)
    trace_spans = [span.to_json() for span in spans_from_chrome(doc)]
    report = render_report(load_crash_dump(dump_path),
                           trace_spans=trace_spans)
    for line in report.splitlines():
        if "->" in line or line.startswith(("crash dump", "reason",
                                            "exception", "cross-linked")):
            print(" ", line.strip())


def main() -> None:
    log = EventLog()
    previous = events_api.set_event_log(log)
    try:
        recorder = trace_api.TraceRecorder()
        with tempfile.TemporaryDirectory() as tmp:
            structured_events(log, recorder)
            dump_path = crash_dump(log, recorder, tmp)
            cross_linked_report(dump_path, recorder, f"{tmp}/trace.json")
    finally:
        events_api.set_event_log(previous)


if __name__ == "__main__":
    main()
