"""Wire sessions: pipelined exchanges and pool reconnects.

The store server answers whole sessions of requests per connection.
These tests cover the failure paths: a client dying mid-stream must
leave the server healthy, and a pooled socket killed under the client
must reconnect transparently.
"""

import json
import socket
import threading

import pytest

from repro.store import (
    AsyncStoreServer,
    MemoryBackend,
    RemoteBackend,
    WireSession,
)
from repro.util.hashing import content_digest
from repro.util.retry import NO_RETRY


@pytest.fixture()
def server():
    with AsyncStoreServer(MemoryBackend()) as srv:
        yield srv


class TestSessionMode:
    def test_many_exchanges_one_connection(self, server):
        host, port = server.address
        session = WireSession(host, port)
        try:
            blobs = {content_digest(p): p for p in (b"one", b"two", b"three")}
            for digest, data in blobs.items():
                resp, _ = session.exchange(
                    {"cmd": "put", "digest": digest, "size": len(data)}, data)
                assert resp["ok"]
            for digest, data in blobs.items():
                resp, payload = session.exchange({"cmd": "get",
                                                  "digest": digest})
                assert payload == data
            resp, _ = session.exchange({"cmd": "stat"})
            assert resp["count"] == 3
        finally:
            session.close()
        assert server.connections_served == 1
        assert server.requests_served == 7

    def test_error_response_keeps_session_alive(self, server):
        """A command-level failure (missing blob) is answered and the
        *same* connection keeps serving."""
        host, port = server.address
        session = WireSession(host, port)
        try:
            resp, _ = session.exchange({"cmd": "get",
                                        "digest": "sha256:" + "0" * 64})
            assert resp["ok"] is False and resp.get("not_found")
            digest = content_digest(b"after the error")
            resp, _ = session.exchange(
                {"cmd": "put", "digest": digest, "size": 15},
                b"after the error")
            assert resp["ok"]
        finally:
            session.close()
        assert server.connections_served == 1

    def test_bye_closes_the_session(self, server):
        host, port = server.address
        session = WireSession(host, port)
        session.close()  # sends bye
        # The server closed its side; a fresh session still works.
        fresh = WireSession(host, port)
        try:
            resp, _ = fresh.exchange({"cmd": "stat"})
            assert resp["ok"]
        finally:
            fresh.close()

    def test_mid_stream_disconnect_leaves_server_healthy(self, server):
        """Clients dying at every awkward moment — mid-header, mid-body,
        right after a request — must not wedge the server."""
        host, port = server.address
        digest = content_digest(b"promised body")
        awkward = [
            b"{\"cmd\": \"put\"",  # header never finished
            json.dumps({"cmd": "put", "digest": digest,
                        "size": 1000}).encode() + b"\n" + b"only some",
            json.dumps({"cmd": "stat"}).encode() + b"\n",  # no read-back
        ]
        for payload in awkward:
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(payload)
            # abrupt close, response (if any) never read
        backend = RemoteBackend(host, port)
        try:
            backend.put(digest, b"promised body")
            assert backend.get(digest) == b"promised body"
        finally:
            backend.close()

    def test_malformed_header_ends_session_with_error(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"this is not json\n")
            rfile = sock.makefile("rb")
            resp = json.loads(rfile.readline())
            assert resp["ok"] is False
            # Framing cannot be resynchronized: the server hangs up.
            assert rfile.readline() == b""


class TestSessionPoolReconnect:
    def test_pool_reuses_one_connection(self, server):
        host, port = server.address
        backend = RemoteBackend(host, port)
        try:
            for i in range(20):
                payload = f"blob-{i}".encode()
                backend.put(content_digest(payload), payload)
            assert len(backend) == 20
        finally:
            backend.close()
        assert server.connections_served == 1
        assert backend.connections_opened == 1

    def test_killed_socket_reconnects_transparently(self, server):
        """A pooled socket the network (or a server restart) killed is
        detected on reuse and replaced without surfacing an error."""
        host, port = server.address
        backend = RemoteBackend(host, port)
        try:
            digest = content_digest(b"survives the drop")
            backend.put(digest, b"survives the drop")
            # Simulate the drop: shut down every idle pooled socket
            # under the client's feet.
            for session in backend._pool._idle:
                session.sock.shutdown(socket.SHUT_RDWR)
            assert backend.get(digest) == b"survives the drop"
            assert backend.connections_opened == 2
        finally:
            backend.close()

    def test_fresh_connection_failure_is_an_error(self):
        """Stale-socket retry must not mask a server that is simply not
        there: with retries disabled, the first exchange on a fresh
        connection propagates (the retried variant backs off first but
        ends the same way — tests/store/test_retry.py)."""
        sock = socket.create_server(("127.0.0.1", 0))
        host, port = sock.getsockname()
        sock.close()  # nothing listens here any more
        backend = RemoteBackend(host, port, timeout=2, retry=NO_RETRY)
        with pytest.raises(OSError):
            backend.get_ref("r")

    def test_pool_caps_idle_sessions(self, server):
        """A burst of concurrent checkouts never leaves more than
        max_idle warm sockets behind — extras are closed on check-in."""
        host, port = server.address
        backend = RemoteBackend(host, port, max_sessions=2)
        pool = backend._pool
        # Simulate six in-flight callers: six simultaneous checkouts.
        sessions = [pool._checkout() for _ in range(6)]
        assert pool.stats()["connections_opened"] == 6
        for session in sessions:
            pool._checkin(session)
        stats = backend.pool_stats()
        assert stats == {"idle": 2, "max_idle": 2,
                         "connections_opened": 6, "connections_reaped": 4,
                         "requests_sent": 0}
        # The two kept sessions still work.
        backend.put(content_digest(b"after burst"), b"after burst")
        assert backend.get(content_digest(b"after burst")) == b"after burst"
        assert backend.pool_stats()["requests_sent"] == 2  # put + get
        backend.close()

    def test_pool_reaps_aged_idle_sessions(self, server):
        """A session idle past max_idle_seconds is closed on the next
        pool touch instead of holding its descriptor forever."""
        import time
        host, port = server.address
        backend = RemoteBackend(host, port, max_idle_seconds=0.05)
        backend.put(content_digest(b"warm"), b"warm")
        assert backend.pool_stats()["idle"] == 1
        time.sleep(0.1)
        assert backend.get(content_digest(b"warm")) == b"warm"
        stats = backend.pool_stats()
        assert stats["connections_reaped"] >= 1
        assert stats["connections_opened"] >= 2  # the reaped + its successor
        backend.close()

    def test_pool_stats_shape(self, server):
        host, port = server.address
        backend = RemoteBackend(host, port)
        assert backend.pool_stats() == {"idle": 0, "max_idle": 4,
                                        "connections_opened": 0,
                                        "connections_reaped": 0,
                                        "requests_sent": 0}
        backend.put(content_digest(b"x"), b"x")
        assert backend.pool_stats()["idle"] == 1
        backend.close()

    def test_closed_backend_stays_usable_without_parking_sockets(self,
                                                                 server):
        """After close() each operation connects, and its session closes
        on check-in — a drained pool never re-grows."""
        host, port = server.address
        backend = RemoteBackend(host, port)
        backend.put(content_digest(b"x"), b"x")
        backend.close()
        assert backend.get(content_digest(b"x")) == b"x"
        assert backend.has(content_digest(b"x"))
        assert backend.pool_stats()["idle"] == 0
        assert backend.connections_opened == 3

    def test_concurrent_pooled_clients(self, server):
        """N threads hammer one pooled backend; every op lands and the
        connection count stays near the thread count, not the op count."""
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
        assert len(backend) == 100
        assert server.connections_served <= 8  # ~thread count, not 100
        backend.close()
