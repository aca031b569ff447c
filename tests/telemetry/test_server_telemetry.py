"""Server-side telemetry surfaces: the documented ``stats()`` schema,
the ``telemetry`` wire op (metrics snapshot + span drain), and the
client/server request-count cross-check."""

import json

import pytest

from repro.store import AsyncStoreServer, MemoryBackend, RemoteBackend
from repro.store.wire import WireSession
from repro.store.wire_server import SERVER_STATS_FIELDS
from repro.telemetry import trace as _trace
from repro.telemetry.trace import TraceRecorder
from repro.util.hashing import content_digest


@pytest.fixture()
def served():
    with AsyncStoreServer(MemoryBackend()) as server:
        host, port = server.address
        backend = RemoteBackend(host, port)
        yield backend, server
        backend.close()


class TestStatsSchema:
    def test_stats_are_exactly_the_documented_fields(self, served):
        backend, server = served
        digest = content_digest(b"schema probe")
        backend.put(digest, b"schema probe")
        assert backend.get(digest) == b"schema probe"
        stats = server.stats()
        assert tuple(sorted(stats)) == tuple(sorted(SERVER_STATS_FIELDS))
        assert stats["requests_served"] > 0
        assert stats["bytes_in"] > 0 and stats["bytes_out"] > 0


class TestTelemetryWireOp:
    def test_reports_stats_and_metrics(self, served):
        backend, server = served
        digest = content_digest(b"telemetry probe")
        backend.put(digest, b"telemetry probe")
        info = backend.telemetry()
        assert sorted(info) == ["metrics", "spans", "stats"]
        assert tuple(sorted(info["stats"])) == \
            tuple(sorted(SERVER_STATS_FIELDS))
        counters = info["metrics"]["counters"]
        assert counters["store.server.requests"] == \
            info["stats"]["requests_served"]

    def test_spans_come_back_only_when_drained(self, served):
        backend, server = served
        parent = {"trace_id": "T" * 32, "parent_span_id": "P" * 16}
        with _trace.recording(TraceRecorder()):
            with _trace.span("client.op", parent=parent):
                digest = content_digest(b"traced blob")
                backend.put(digest, b"traced blob")
        # A status read ships no spans and leaves the buffer alone.
        assert backend.telemetry()["spans"] == []
        # The server recorded one span per traced request, parented to
        # the client's request span; the drain takes them all once.
        drained = backend.telemetry(drain_spans=True)["spans"]
        assert drained and all(sp["trace_id"] == parent["trace_id"]
                               for sp in drained)
        assert backend.telemetry(drain_spans=True)["spans"] == []

    def test_large_span_buffers_survive_the_wire(self, served):
        """Span collections ride the response body, so a drain must work
        far past what a single header line could carry."""
        backend, server = served
        parent = {"trace_id": "A" * 32, "parent_span_id": "B" * 16}
        payload = b"x" * 64
        digest = content_digest(payload)
        backend.put(digest, payload)
        with _trace.recording(TraceRecorder()):
            with _trace.span("client.burst", parent=parent):
                for _ in range(600):
                    backend.get(digest)
        spans = backend.telemetry(drain_spans=True)["spans"]
        assert len(spans) >= 600
        assert all(sp["trace_id"] == parent["trace_id"] for sp in spans)

    def test_untraced_traffic_records_no_spans(self, served):
        backend, server = served
        digest = content_digest(b"quiet")
        backend.put(digest, b"quiet")
        backend.get(digest)
        assert backend.telemetry()["spans"] == []

    def test_process_gauges_ride_every_snapshot(self, served):
        backend, _ = served
        gauges = backend.telemetry()["metrics"]["gauges"]
        assert gauges["process.rss_bytes"] > 0
        assert gauges["process.cpu_seconds"] >= 0
        assert gauges["process.open_fds"] > 0

    def test_spans_dropped_counter_is_synced(self, served):
        backend, server = served
        parent = {"trace_id": "D" * 32, "parent_span_id": "E" * 16}
        server.recorder.max_spans = 8
        payload = b"drop probe"
        digest = content_digest(payload)
        with _trace.recording(TraceRecorder()):
            with _trace.span("client.flood", parent=parent):
                backend.put(digest, payload)
                for _ in range(50):
                    backend.get(digest)
        info = backend.telemetry()
        assert info["metrics"]["counters"]["telemetry.spans_dropped"] > 0
        assert len(info["spans"]) <= 8

    def test_the_reply_body_holds_the_spans_alone(self, served):
        """Bulk fields ride a JSON body beside the header; the spans are
        the only bulk field the store server has."""
        _, server = served
        session = WireSession(*server.address)
        try:
            header, body = session.exchange({"cmd": "telemetry"})
        finally:
            session.close()
        assert header["ok"] is True and header["body_json"] is True
        assert sorted(header) == ["body_json", "metrics", "ok", "size",
                                  "stats"]
        assert list(json.loads(body)) == ["spans"]


class TestRequestCountCrossCheck:
    def test_client_requests_sent_matches_server_requests_served(self):
        """One pooled client alone on a server: every request it counted
        must be a request the server counted — the end-to-end consistency
        `cache stats --store-server` relies on."""
        with AsyncStoreServer(MemoryBackend()) as server:
            host, port = server.address
            backend = RemoteBackend(host, port)
            try:
                digest = content_digest(b"cross-check")
                backend.put(digest, b"cross-check")
                backend.get(digest)
                backend.has(digest)
                sent = backend.pool_stats()["requests_sent"]
                assert sent > 0
                # telemetry() itself is one more request the pool counts
                # before the server answers with its own total.
                served_count = backend.telemetry()["stats"]["requests_served"]
                assert served_count == sent + 1
            finally:
                backend.close()
