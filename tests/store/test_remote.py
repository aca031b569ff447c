"""Remote store: wire protocol, and two caches sharing one server."""

import json
import socket
import threading

import pytest

from repro.containers.store import ArtifactCache, BlobStore
from repro.store import (
    BlobNotFound,
    FileBackend,
    MemoryBackend,
    RemoteBackend,
    RemoteStoreError,
    AsyncStoreServer,
)
from repro.util.hashing import content_digest
from repro.util.retry import NO_RETRY


@pytest.fixture()
def served_memory():
    with AsyncStoreServer(MemoryBackend()) as server:
        backend = RemoteBackend(*server.address)
        yield backend, server.backend
        backend.close()


class TestWireProtocol:
    def test_push_pull_has_delete(self, served_memory):
        remote, local = served_memory
        digest = content_digest(b"over the wire")
        remote.put(digest, b"over the wire")
        assert local.has(digest)          # push landed in the server backend
        assert remote.has(digest)
        assert remote.get(digest) == b"over the wire"
        assert remote.delete(digest)
        assert not local.has(digest)

    def test_get_missing_raises_blob_not_found(self, served_memory):
        remote, _ = served_memory
        with pytest.raises(BlobNotFound):
            remote.get("sha256:" + "1" * 64)

    def test_stat_and_digests(self, served_memory):
        remote, _ = served_memory
        payloads = [b"a", b"bb", b"ccc"]
        for payload in payloads:
            remote.put(content_digest(payload), payload)
        assert len(remote) == 3
        assert remote.total_bytes == 6
        assert set(remote.digests()) == {content_digest(p) for p in payloads}

    def test_refs_round_trip(self, served_memory):
        remote, _ = served_memory
        assert remote.get_ref("artifact-index") is None
        remote.set_ref("artifact-index", b"{}")
        assert remote.get_ref("artifact-index") == b"{}"
        assert remote.refs() == ["artifact-index"]
        assert remote.delete_ref("artifact-index")
        assert remote.get_ref("artifact-index") is None

    def test_corrupt_push_rejected(self, served_memory):
        remote, local = served_memory
        from repro.store import RemoteStoreError
        with pytest.raises(RemoteStoreError, match="integrity"):
            remote.put(content_digest(b"expected"), b"tampered")
        assert len(local) == 0

    def test_large_blob(self, served_memory):
        remote, _ = served_memory
        blob = bytes(range(256)) * 4096  # 1 MiB, exercises chunked reads
        digest = content_digest(blob)
        remote.put(digest, blob)
        assert remote.get(digest) == blob


class TestCasRefWire:
    """The cas_ref op: conflicts resolve server-side, atomically."""

    def test_interleaved_cas_conflict(self, served_memory):
        """Client 1 reads, client 2 swaps, client 1's stale swap loses."""
        remote1, _ = served_memory
        remote2 = RemoteBackend(remote1.host, remote1.port)
        assert remote1.compare_and_set_ref("idx", None, b"base")
        snapshot = remote1.get_ref("idx")
        assert remote2.compare_and_set_ref("idx", snapshot, b"from-2")
        assert not remote1.compare_and_set_ref("idx", snapshot, b"from-1")
        assert remote1.get_ref("idx") == b"from-2"
        # Re-read and retry — the CAS loop every caller runs.
        assert remote1.compare_and_set_ref("idx", remote1.get_ref("idx"),
                                           b"from-1")
        assert remote2.get_ref("idx") == b"from-1"

    def test_concurrent_clients_serialize(self, served_memory):
        """N client threads CAS-increment one counter ref; every increment
        must land — the server-side swap is atomic."""
        remote, _ = served_memory
        remote.set_ref("counter", b"0")
        per_thread = 10

        def bump():
            client = RemoteBackend(remote.host, remote.port)
            for _ in range(per_thread):
                while True:
                    raw = client.get_ref("counter")
                    new = str(int(raw) + 1).encode()
                    if client.compare_and_set_ref("counter", raw, new):
                        break

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert remote.get_ref("counter") == str(4 * per_thread).encode()

    def test_expected_absent_over_the_wire(self, served_memory):
        remote, _ = served_memory
        assert remote.compare_and_set_ref("r", None, b"v")
        assert not remote.compare_and_set_ref("r", None, b"w")
        assert remote.delete_ref("r")
        assert remote.compare_and_set_ref("r", None, b"w")

    def test_empty_expected_differs_from_absent(self, served_memory):
        """b"" and None are different expectations on the wire."""
        remote, _ = served_memory
        assert not remote.compare_and_set_ref("r", b"", b"v")  # absent != ""
        remote.set_ref("r", b"")
        assert remote.compare_and_set_ref("r", b"", b"v")


class TestServerErrorPaths:
    """One request per connection: a bad request gets an error response and
    the server keeps serving."""

    def _raw_request(self, address, payload: bytes) -> bytes:
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)

    def test_unknown_command(self, served_memory):
        remote, _ = served_memory
        with pytest.raises(RemoteStoreError, match="unknown command"):
            remote._round_trip({"cmd": "frobnicate"})

    def test_malformed_header_gets_error_response(self, served_memory):
        remote, _ = served_memory
        resp = self._raw_request((remote.host, remote.port), b"not json\n")
        header = json.loads(resp.split(b"\n", 1)[0])
        assert header["ok"] is False

    def test_short_body_gets_error_response(self, served_memory):
        """A put that promises more bytes than it sends must not wedge or
        poison the server."""
        remote, local = served_memory
        digest = content_digest(b"full payload")
        req = json.dumps({"cmd": "put", "digest": digest, "size": 1000})
        resp = self._raw_request((remote.host, remote.port),
                                 req.encode() + b"\n" + b"only a little")
        header = json.loads(resp.split(b"\n", 1)[0])
        assert header["ok"] is False
        assert len(local) == 0

    def test_server_survives_bad_requests(self, served_memory):
        remote, _ = served_memory
        for garbage in (b"", b"\n", b"{}\n", b"[1,2,3]\n", b"not json\n"):
            try:
                self._raw_request((remote.host, remote.port), garbage)
            except OSError:
                pass
        digest = content_digest(b"still alive")
        remote.put(digest, b"still alive")  # server still serving
        assert remote.get(digest) == b"still alive"


class _FlakyServer:
    """A server that sends a scripted (possibly truncated) response and
    drops the connection — the 'server died mid-response' cases."""

    def __init__(self, response: bytes):
        self._response = response
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.address = self._sock.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        conn, _ = self._sock.accept()
        with conn:
            conn.recv(65536)  # drain whatever the client sent
            if self._response:
                conn.sendall(self._response)

    def close(self):
        self._sock.close()


class TestClientAgainstDyingServer:
    """These pin the *no-retry* failure surface (retry=NO_RETRY): with
    retries disabled the client must fail loudly on the first wire
    fault, never hand back truncated data or assume a swap landed. The
    retried behaviors live in tests/store/test_retry.py."""

    def test_connection_closed_before_header(self):
        server = _FlakyServer(b"")
        try:
            with pytest.raises(RemoteStoreError, match="connection closed"):
                RemoteBackend(*server.address, timeout=5,
                              retry=NO_RETRY).get_ref("r")
        finally:
            server.close()

    def test_server_drops_mid_body(self):
        """Header promises 100 body bytes, the server dies after 10: the
        client must fail loudly, not hand back truncated data."""
        header = json.dumps({"ok": True, "size": 100}).encode() + b"\n"
        server = _FlakyServer(header + b"0123456789")
        try:
            with pytest.raises(RemoteStoreError, match="short body"):
                RemoteBackend(*server.address, timeout=5,
                              retry=NO_RETRY).get(
                    "sha256:" + "0" * 64)
        finally:
            server.close()

    def test_server_drops_mid_cas_response(self):
        """A cas_ref whose response never arrives surfaces as an error —
        the caller's retry loop re-reads rather than assuming success."""
        server = _FlakyServer(b"")
        try:
            with pytest.raises(RemoteStoreError):
                RemoteBackend(*server.address, timeout=5,
                              retry=NO_RETRY).compare_and_set_ref(
                    "idx", None, b"data")
        finally:
            server.close()


class TestSharedStore:
    def test_two_caches_share_one_server(self, served_memory):
        """The ROADMAP scenario: a CI builder publishes, a fleet builder
        (separate cache instance == separate process) hits."""
        remote, _ = served_memory
        producer = ArtifactCache(BlobStore(remote))
        producer.put("preprocess", {"tu": 1}, '{"text_digest": "x"}')

        consumer = ArtifactCache(BlobStore(RemoteBackend(*remote_addr(remote))))
        entry = consumer.get("preprocess", {"tu": 1})
        assert entry is not None
        assert entry.payload == '{"text_digest": "x"}'
        assert consumer.counters("preprocess").hits == 1

    def test_server_over_file_backend_persists(self, tmp_path):
        root = tmp_path / "shared"
        with AsyncStoreServer(FileBackend(root)) as server:
            remote = RemoteBackend(*server.address)
            cache = ArtifactCache(BlobStore(remote))
            cache.put("ir", "key", "module @m\n")
        # Server gone; the blobs and the index survived on disk.
        reopened = ArtifactCache(BlobStore(FileBackend(root)))
        entry = reopened.get("ir", "key")
        assert entry is not None and entry.payload == "module @m\n"


def remote_addr(remote: RemoteBackend) -> tuple[str, int]:
    return remote.host, remote.port
