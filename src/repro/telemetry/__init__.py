"""Unified telemetry: metrics, traces, events, flight recorder.

Five modules, one seam:

* :mod:`~repro.telemetry.registry` — process-local counters/gauges/
  histograms with JSON snapshots (what every legacy ad-hoc counter is
  now a view over), the heartbeat delta a worker ships and the
  coordinator absorbs under the worker's label, plus the ``process.*``
  resource gauges;
* :mod:`~repro.telemetry.trace` — spans with explicit parent ids, a
  context-managed recorder, and the wire ``trace`` field that correlates
  one ``cluster build`` across client, coordinator, workers, and store
  servers;
* :mod:`~repro.telemetry.events` — structured, leveled event records in
  a bounded per-process ring, auto-tagged with the active span context;
* :mod:`~repro.telemetry.flightrec` — the crash-time flight recorder
  that dumps events + spans + metrics to ``crash-<service>-<pid>.json``;
* :mod:`~repro.telemetry.export` — Chrome trace-event JSON (Perfetto)
  and metrics snapshot files, plus the schema validator CI runs.
"""

from .registry import (DURATION_BUCKETS, SIZE_BUCKETS, Counter, Gauge,
                       Histogram, MetricsRegistry, get_registry,
                       histogram_quantile, metric_key, parse_metric_key,
                       sample_process_gauges, set_registry, snapshot_delta,
                       summarize_histogram, sync_dropped_counter,
                       totals_by_label)
from .trace import (Span, TraceRecorder, active_recorder, begin_wire_span,
                    current, end_wire_span, new_span_id, new_trace_id,
                    recording, set_global_recorder, set_service, span)
from .events import (Event, EventLog, emit, get_event_log, set_event_log)
from .flightrec import (FlightRecorder, load_crash_dump, render_report,
                        validate_crash_dump)
from .flightrec import install as install_flight_recorder
from .export import (chrome_trace, spans_from_chrome, validate_chrome_trace,
                     write_chrome_trace, write_metrics_snapshot)

__all__ = [
    "DURATION_BUCKETS", "SIZE_BUCKETS",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "get_registry", "set_registry",
    "metric_key", "parse_metric_key", "snapshot_delta", "totals_by_label",
    "histogram_quantile", "summarize_histogram",
    "sample_process_gauges", "sync_dropped_counter",
    "Span", "TraceRecorder", "span", "current", "recording",
    "active_recorder", "set_global_recorder", "set_service",
    "new_span_id", "new_trace_id", "begin_wire_span", "end_wire_span",
    "Event", "EventLog", "emit", "get_event_log", "set_event_log",
    "FlightRecorder", "install_flight_recorder", "load_crash_dump",
    "validate_crash_dump", "render_report",
    "chrome_trace", "write_chrome_trace", "spans_from_chrome",
    "validate_chrome_trace", "write_metrics_snapshot",
]
