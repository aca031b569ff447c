"""Structured event log: ring bound, sinks, span capture, kill switch."""

import json

import pytest

from repro.telemetry import events as _events
from repro.telemetry import registry as _registry
from repro.telemetry import trace as _trace
from repro.telemetry.events import Event, EventLog
from repro.telemetry.trace import TraceRecorder


@pytest.fixture
def isolated_log():
    """Swap in a fresh process-wide log so module-level ``emit`` calls
    from this test (and code under test) land somewhere inspectable."""
    log = EventLog()
    previous = _events.set_event_log(log)
    try:
        yield log
    finally:
        _events.set_event_log(previous)


class TestEventLogRing:
    def test_emit_appends_and_snapshot_preserves_order(self):
        log = EventLog()
        log.emit("info", "first", n=1)
        log.emit("warn", "second", n=2)
        events = log.snapshot()
        assert [e.message for e in events] == ["first", "second"]
        assert events[0].fields == {"n": 1}
        assert events[1].level == "warn"
        assert all(e.pid for e in events)
        assert all(e.ts > 0 for e in events)

    def test_ring_is_bounded_and_counts_drops(self):
        log = EventLog(max_events=10)
        for i in range(35):
            log.emit("info", f"event-{i}")
        assert len(log) == 10
        assert log.events_dropped == 25
        # The survivors are the *newest* records.
        assert [e.message for e in log.snapshot()] == \
            [f"event-{i}" for i in range(25, 35)]

    def test_snapshot_filters_by_level(self):
        log = EventLog()
        log.emit("info", "fine")
        log.emit("error", "broken")
        log.emit("error", "still broken")
        assert [e.message for e in log.snapshot(level="error")] == \
            ["broken", "still broken"]
        assert len(log.snapshot()) == 3

    def test_drain_is_destructive(self):
        log = EventLog()
        log.emit("info", "one")
        drained = log.drain()
        assert [e.message for e in drained] == ["one"]
        assert len(log) == 0

    def test_clear_resets_ring_and_drop_counter(self):
        log = EventLog(max_events=2)
        for _ in range(5):
            log.emit("info", "x")
        log.clear()
        assert len(log) == 0 and log.events_dropped == 0


class TestSpanCapture:
    def test_emit_inside_span_captures_trace_and_span_ids(self):
        log = EventLog()
        recorder = TraceRecorder()
        parent = {"trace_id": "T" * 32, "parent_span_id": "P" * 16}
        with _trace.recording(recorder):
            with _trace.span("work.unit", parent=parent):
                event = log.emit("error", "went wrong")
        assert event.trace_id == parent["trace_id"]
        # The captured span id is the *innermost* active span — the one
        # just recorded on exit.
        [span] = recorder.spans()
        assert event.span_id == span.span_id

    def test_emit_outside_any_span_has_no_ids(self):
        event = EventLog().emit("info", "plain")
        assert event.trace_id is None and event.span_id is None


class TestJsonlSink:
    def test_sink_mirrors_events_as_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(sink=str(path))
        log.emit("info", "hello", who="sink")
        log.emit("warn", "uh oh")
        log.close()
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert [b["message"] for b in lines] == ["hello", "uh oh"]
        assert lines[0]["fields"] == {"who": "sink"}
        assert lines[1]["level"] == "warn"

    def test_sink_survives_ring_overflow(self, tmp_path):
        """The ring drops old records; the sink keeps everything."""
        path = tmp_path / "events.jsonl"
        log = EventLog(max_events=4, sink=str(path))
        for i in range(12):
            log.emit("info", f"e{i}")
        log.close()
        assert len(log) == 4
        assert len(path.read_text().splitlines()) == 12


class TestEventJson:
    def test_round_trip(self):
        log = EventLog()
        with _trace.recording(TraceRecorder()):
            with _trace.span("op", parent={"trace_id": "a" * 32,
                                           "parent_span_id": "b" * 16}):
                original = log.emit("warn", "round trip", k="v", n=3)
        clone = Event.from_json(json.loads(
            json.dumps(original.to_json())))
        assert clone == original

    def test_minimal_blob_fills_defaults(self):
        event = Event.from_json({"message": "bare"})
        assert event.level == "info"
        assert event.fields == {}
        assert event.trace_id is None


class TestModuleEmit:
    def test_emit_lands_in_the_process_wide_log(self, isolated_log):
        _events.emit("info", "global", via="module")
        assert [e.message for e in isolated_log.snapshot()] == ["global"]

    def test_kill_switch_suppresses_emission(self, isolated_log):
        _registry.set_enabled(False)
        try:
            assert _events.emit("info", "suppressed") is None
        finally:
            _registry.set_enabled(True)
        assert len(isolated_log) == 0

    def test_every_emit_beside_a_build_is_counted(self, isolated_log):
        """Events emitted between warm builds all reach the ring (kept or
        counted as dropped), and a warm build emits none of its own."""
        from repro.apps import lulesh_configs, lulesh_model
        from repro.containers import ArtifactCache
        from repro.core import build_ir_container

        builds, events_per_build = 5, 10
        cache = ArtifactCache()
        build_ir_container(lulesh_model(), lulesh_configs(), cache=cache)
        isolated_log.clear()
        for _ in range(builds):
            build_ir_container(lulesh_model(), lulesh_configs(), cache=cache)
            for i in range(events_per_build):
                _events.emit("info", "bench event", seq=i, stage="warm")
        assert len(isolated_log) + isolated_log.events_dropped == \
            builds * events_per_build

    def test_set_event_log_returns_previous(self):
        first = EventLog()
        second = EventLog()
        previous = _events.set_event_log(first)
        try:
            assert _events.get_event_log() is first
            assert _events.set_event_log(second) is first
            assert _events.get_event_log() is second
        finally:
            _events.set_event_log(previous)
