"""The event-loop store server: sessions, multi-MB bodies, failure paths.

Pooled clients against the store server, plus the failure modes an event
loop must survive without a thread-per-connection safety net: peers
hanging up mid-frame, a slow reader triggering write-side backpressure,
oversized bodies rejected with a clean error frame, and poisoned or
unknown commands (a negative declared size among them) that must cost at
most one session. tests/store/test_wire_fuzz.py explores the same parse
machine with generated frame streams.
"""

import json
import os
import socket
import threading
import time

import pytest

from repro.store import (
    AsyncStoreServer,
    BlobNotFound,
    FileBackend,
    MemoryBackend,
    RemoteBackend,
    WireSession,
)
from repro.store.wire import read_message, read_response_body
from repro.util.hashing import content_digest


@pytest.fixture()
def server():
    with AsyncStoreServer(MemoryBackend()) as srv:
        yield srv


@pytest.fixture()
def file_server(tmp_path):
    with AsyncStoreServer(FileBackend(tmp_path / "store")) as srv:
        yield srv


def put_header(digest: str, size: int) -> bytes:
    header = {"cmd": "put", "digest": digest, "size": size}
    return json.dumps(header).encode() + b"\n"


class TestSessions:
    def test_pooled_backend_full_surface(self, server):
        """The whole op matrix over one pooled session: blobs, batches,
        refs, CAS, stats."""
        host, port = server.address
        backend = RemoteBackend(host, port)
        try:
            blobs = {content_digest(p): p for p in (b"one", b"two", b"three")}
            backend.put_many(blobs)
            assert backend.get_many(list(blobs)) == blobs
            assert all(backend.has_many(list(blobs)).values())
            sizes = backend.blob_size_many(list(blobs))
            assert all(sizes[d] == len(p) for d, p in blobs.items())
            assert backend.stat() == (3, sum(map(len, blobs.values())))
            assert backend.compare_and_set_ref("idx", None, b"v1")
            assert not backend.compare_and_set_ref("idx", b"nope", b"v2")
            assert backend.get_ref("idx") == b"v1"
            assert backend.refs() == ["idx"]
            assert backend.delete_ref("idx")
            digest = next(iter(blobs))
            assert backend.delete(digest)
            assert not backend.has(digest)
        finally:
            backend.close()
        assert server.connections_served == 1

    def test_multi_mb_round_trip(self, file_server):
        """A multi-MB blob crosses a file-backed server both ways as one
        body each way; the server held it whole, once."""
        host, port = file_server.address
        backend = RemoteBackend(host, port)
        try:
            blob = os.urandom(3 * (1 << 20))
            digest = content_digest(blob)
            backend.put(digest, blob)
            assert backend.get(digest) == blob
        finally:
            backend.close()
        assert file_server.stats()["peak_body_bytes"] == len(blob)
        # No capability probe: put + get are the only two requests.
        assert file_server.requests_served == 2

    def test_half_closed_client_is_answered_then_closed(self, server):
        """A peer that sends one request and shuts down its write side
        still gets its answer: buffered input is parsed and answered, the
        output flushed, then the connection closed."""
        host, port = server.address
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(json.dumps({"cmd": "stat"}).encode() + b"\n")
            sock.shutdown(socket.SHUT_WR)
            rfile = sock.makefile("rb")
            assert read_message(rfile)["count"] == 0
            assert rfile.readline() == b""

    def test_unknown_command_answers_and_session_continues(self, server):
        host, port = server.address
        session = WireSession(host, port)
        try:
            resp, _ = session.exchange({"cmd": "frobnicate"})
            assert resp == {"ok": False,
                            "error": "unknown command 'frobnicate'"}
            resp, _ = session.exchange({"cmd": "stat"})
            assert resp["ok"]
        finally:
            session.close()
        assert server.connections_served == 1

    def test_pipelined_requests_answer_in_order(self, server):
        """Two requests written back-to-back before any read: responses
        come back in request order."""
        host, port = server.address
        d1, d2 = content_digest(b"first"), content_digest(b"second")
        with socket.create_connection((host, port), timeout=5) as sock:
            wfile = sock.makefile("wb")
            rfile = sock.makefile("rb")
            wfile.write(put_header(d1, 5) + b"first")
            wfile.write(put_header(d2, 6) + b"second")
            wfile.flush()
            assert read_message(rfile)["ok"]
            assert read_message(rfile)["ok"]
        assert server.requests_served == 2

    def test_concurrent_pooled_clients(self, server):
        host, port = server.address
        backend = RemoteBackend(host, port)
        errors = []

        def work(t):
            try:
                for i in range(25):
                    payload = f"t{t}-i{i}".encode()
                    backend.put(content_digest(payload), payload)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert backend.stat()[0] == 100
        backend.close()


class TestTruncatedStream:
    def test_abrupt_disconnects_leave_server_healthy(self, server):
        """EOF at every awkward parse position — mid-header, mid-body,
        halfway through a multi-MB body — and the loop keeps serving."""
        host, port = server.address
        digest = content_digest(b"promised body")
        big = os.urandom(2 * (1 << 20))
        awkward = [
            b"{\"cmd\": \"put\"",
            put_header(digest, 1000) + b"only some",
            put_header(content_digest(big), len(big)) + big[:len(big) // 2],
        ]
        for payload in awkward:
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(payload)
        backend = RemoteBackend(host, port)
        try:
            assert not backend.has(content_digest(big))  # nothing half-put
            backend.put(digest, b"promised body")
            assert backend.get(digest) == b"promised body"
        finally:
            backend.close()


class TestMalformedHeaders:
    """Headers that parse as JSON but are malformed where it counts.

    A single such packet once killed the event loop outright
    (ValueError from ``int("abc")`` propagating out of ``_run``). A
    negative ``size`` once ran its handler on an empty body and rewound
    the parser into the header: ``set_ref`` emptied the ref, and a
    ``put`` line exactly as long as its negative size re-read itself
    forever. The server must answer with an error frame, run no handler
    and keep serving everyone else. Headers go out compact, so a line's
    length is the one the case was written for."""

    POISON = [
        {"cmd": "put", "digest": "sha256:" + "0" * 64, "size": "abc"},
        {"cmd": "put_many", "blobs": 123},
        {"cmd": "cas_ref", "name": "r", "expected_size": [], "size": 0},
        {"cmd": "set_ref", "name": "pins", "size": -1},
        {"cmd": "put", "size": -25},  # the line is 24 bytes + newline
        {"cmd": "cas_ref", "name": "pins", "expected_size": 6, "size": -1},
        {"cmd": "put_many", "blobs": [["sha256:" + "0" * 64, -1]]},
    ]

    @pytest.mark.parametrize("header", POISON)
    def test_poison_header_gets_error_server_survives(self, server, header):
        server.backend.set_ref("pins", b"pinned")
        host, port = server.address
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(json.dumps(header, separators=(",", ":")).encode()
                         + b"\n")
            resp = json.loads(sock.makefile("rb").readline())
            assert resp["ok"] is False
            assert "malformed header" in resp["error"]
        assert server.backend.get_ref("pins") == b"pinned"
        # The poison frame cost one session, never the server.
        session = WireSession(host, port)
        try:
            assert session.exchange({"cmd": "stat"})[0]["ok"]
        finally:
            session.close()

    def test_loop_survives_poison_amid_pooled_traffic(self):
        """Other connections stay served after a poisoned one."""
        with AsyncStoreServer(MemoryBackend()) as server:
            host, port = server.address
            backend = RemoteBackend(host, port)
            try:
                backend.put(content_digest(b"before"), b"before")
                with socket.create_connection((host, port),
                                              timeout=5) as sock:
                    sock.sendall(json.dumps(self.POISON[0]).encode() + b"\n")
                    sock.makefile("rb").readline()
                backend.put(content_digest(b"after"), b"after")
                assert backend.get(content_digest(b"after")) == b"after"
            finally:
                backend.close()


class TestConnectionIdentity:
    def test_stale_connection_cannot_evict_fd_successor(self):
        """fds are reused: bookkeeping for a connection that died with
        work in flight must not touch the connection that inherited its
        fd (whitebox — exercises the identity checks directly)."""
        import repro.store.wire_server as mod
        with AsyncStoreServer(MemoryBackend()) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(json.dumps({"cmd": "stat"}).encode() + b"\n")
                assert json.loads(sock.makefile("rb").readline())["ok"]
                (fd, live), = server._conns.items()
                a, b = socket.socketpair()
                try:
                    stale = mod._Connection(a)
                    stale.fd = fd  # simulate the kernel reusing the fd
                    assert not server._live(stale)
                    server._close(stale)  # must not evict the live entry
                    assert server._conns.get(fd) is live
                    # A completion for the stale object is a no-op too.
                    server._finish(stale, ({"ok": True}, b""))
                    assert not stale.outbuf
                finally:
                    a.close()
                    b.close()
                # The live connection still serves on the same session.
                sock.sendall(json.dumps({"cmd": "stat"}).encode() + b"\n")
                assert json.loads(sock.makefile("rb").readline())["ok"]


class TestBackpressure:
    def test_slow_reader_pauses_reads_and_loop_stays_responsive(self,
                                                                tmp_path):
        """A reader that stalls on a multi-MB ``get`` leaves its answer in
        the output buffer: reads from it pause, everyone else is
        served, and it still gets every byte."""
        max_outbuf = 128 * 1024
        blob = os.urandom(2 * (1 << 20))
        digest = content_digest(blob)
        with AsyncStoreServer(FileBackend(tmp_path / "store"),
                              max_outbuf_bytes=max_outbuf) as server:
            host, port = server.address
            seed = RemoteBackend(host, port)
            seed.put(digest, blob)
            seed.close()
            pauses = server.metrics.backpressure_pauses
            with socket.create_connection((host, port), timeout=10) as slow:
                slow.sendall(json.dumps({"cmd": "get", "digest": digest})
                             .encode() + b"\n")
                # ...and read nothing: the server may fill our kernel
                # buffers, the rest waits in its output buffer.
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline and not pauses.value:
                    time.sleep(0.02)
                assert pauses.value == 1
                # While the slow reader stalls, other clients are served.
                other = RemoteBackend(host, port)
                try:
                    start = time.monotonic()
                    assert other.has(digest)
                    assert time.monotonic() - start < 2
                finally:
                    other.close()
                # The slow reader still gets every byte in the end.
                rfile = slow.makefile("rb")
                resp = read_message(rfile)
                assert resp["ok"] and resp["size"] == len(blob)
                assert read_response_body(rfile, resp) == blob


class TestMaxBodyBytes:
    def test_oversized_fixed_body_rejected_cleanly(self):
        with AsyncStoreServer(MemoryBackend(),
                              max_body_bytes=64 * 1024) as server:
            host, port = server.address
            backend = RemoteBackend(host, port)
            try:
                big = os.urandom(100 * 1024)
                with pytest.raises(Exception) as exc_info:
                    backend.put(content_digest(big), big)
                assert "max_body_bytes" in str(exc_info.value)
                # Same session still serves: body was drained, not wedged.
                backend.put(content_digest(b"small"), b"small")
                assert backend.get(content_digest(b"small")) == b"small"
            finally:
                backend.close()
            assert server.stats()["peak_body_bytes"] <= 64 * 1024

class TestCounters:
    def test_traffic_counters(self, server):
        blob = os.urandom(300 * 1024)
        digest = content_digest(blob)
        host, port = server.address
        backend = RemoteBackend(host, port)
        backend.put(digest, blob)
        assert backend.get(digest) == blob
        stats = backend.server_stats()
        backend.close()
        assert stats["connections_served"] == 1
        assert stats["requests_served"] == 3  # put + get + server_stats
        # Both directions moved at least the blob, plus framing.
        assert stats["bytes_in"] >= len(blob)
        assert stats["bytes_out"] >= len(blob)
        assert stats["peak_body_bytes"] >= len(blob)  # memory buffers

    def test_cli_status_line_shape(self, server):
        """What `cache serve` prints on shutdown is the same snapshot
        server_stats exposes over the wire."""
        host, port = server.address
        backend = RemoteBackend(host, port)
        backend.put(content_digest(b"x"), b"x")
        stats = backend.server_stats()
        backend.close()
        assert set(stats) == {"connections_served",
                              "requests_served", "bytes_in", "bytes_out",
                              "peak_body_bytes", "peak_outbuf_bytes"}


class TestThreads:
    def test_the_loop_is_the_only_thread_and_stop_joins_it(self):
        """A memory-backed server runs everything on its loop thread:
        nothing samples or polls beside it, and stop() leaves no thread
        behind."""
        before = set(threading.enumerate())
        server = AsyncStoreServer(MemoryBackend())
        server.start()
        try:
            added = set(threading.enumerate()) - before
            assert [t.name for t in added] == ["store.server-loop"]
        finally:
            server.stop()
        assert set(threading.enumerate()) - before == set()
