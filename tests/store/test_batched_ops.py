"""Batched blob operations: one round-trip moves N blobs/probes.

put_many/get_many/has_many/blob_size_many across every bundled backend,
the single-exchange wire behavior, the stat() helper, and the consumers
(gc pricing, transfer) that must ride them.
"""

import pytest

from repro.containers.store import ArtifactCache, BlobStore
from repro.store import (
    BackendError,
    FileBackend,
    MemoryBackend,
    RemoteBackend,
    AsyncStoreServer,
)
from repro.util.hashing import content_digest

MISSING = "sha256:" + "f" * 64


@pytest.fixture(params=["memory", "file", "remote"])
def backend(request, tmp_path):
    if request.param == "memory":
        yield MemoryBackend()
    elif request.param == "file":
        yield FileBackend(tmp_path / "store")
    else:
        with AsyncStoreServer(MemoryBackend()) as server:
            remote = RemoteBackend(*server.address)
            yield remote
            remote.close()


def blobs_of(*payloads: bytes) -> dict[str, bytes]:
    return {content_digest(p): p for p in payloads}


class TestBatchedOps:
    def test_put_many_stores_all(self, backend):
        blobs = blobs_of(b"a", b"bb", b"ccc")
        backend.put_many(blobs)
        for digest, data in blobs.items():
            assert backend.get(digest) == data
        assert len(backend) == 3

    def test_get_many_omits_missing(self, backend):
        blobs = blobs_of(b"x", b"yy")
        backend.put_many(blobs)
        got = backend.get_many(list(blobs) + [MISSING])
        assert got == blobs

    def test_has_many(self, backend):
        blobs = blobs_of(b"here")
        backend.put_many(blobs)
        digest = next(iter(blobs))
        assert backend.has_many([digest, MISSING]) == \
            {digest: True, MISSING: False}

    def test_blob_size_many(self, backend):
        blobs = blobs_of(b"four", b"sevenxx")
        backend.put_many(blobs)
        sizes = backend.blob_size_many(list(blobs) + [MISSING])
        assert sizes == {content_digest(b"four"): 4,
                         content_digest(b"sevenxx"): 7, MISSING: None}

    def test_stat_matches_len_and_total(self, backend):
        backend.put_many(blobs_of(b"a", b"bb"))
        assert backend.stat() == (2, 3)
        assert backend.stat() == (len(backend), backend.total_bytes)

    def test_put_many_integrity_failure_rejected(self, backend):
        good = content_digest(b"good")
        bad = content_digest(b"expected")
        with pytest.raises(Exception) as exc_info:
            backend.put_many({good: b"good", bad: b"tampered"})
        assert "integrity" in str(exc_info.value)
        assert not backend.has(bad)

    def test_empty_batches(self, backend):
        backend.put_many({})
        assert backend.get_many([]) == {}
        assert backend.has_many([]) == {}
        assert backend.blob_size_many([]) == {}


class TestWireEconomics:
    """The point of batching: N probes, one request."""

    def test_has_many_is_one_request(self):
        with AsyncStoreServer(MemoryBackend()) as server:
            remote = RemoteBackend(*server.address)
            blobs = blobs_of(*(f"blob-{i}".encode() for i in range(40)))
            remote.put_many(blobs)
            before = server.requests_served
            probe = remote.has_many(list(blobs))
            assert all(probe.values())
            assert server.requests_served - before == 1
            remote.close()

    def test_loop_probe_costs_n_requests(self):
        with AsyncStoreServer(MemoryBackend()) as server:
            remote = RemoteBackend(*server.address)
            blobs = blobs_of(*(f"blob-{i}".encode() for i in range(10)))
            remote.put_many(blobs)
            before = server.requests_served
            for digest in blobs:
                remote.has(digest)
            assert server.requests_served - before == 10
            remote.close()

    def test_stat_is_one_request(self):
        """The __len__ + total_bytes double round-trip is gone for any
        caller going through BlobStore.stat()."""
        with AsyncStoreServer(MemoryBackend()) as server:
            remote = RemoteBackend(*server.address)
            store = BlobStore(remote)
            store.put("some payload")
            before = server.requests_served
            assert store.stat() == (1, 12)
            assert server.requests_served - before == 1
            # The legacy pair still works — at the legacy price.
            before = server.requests_served
            assert (len(store), store.total_bytes) == (1, 12)
            assert server.requests_served - before == 2
            remote.close()

    def test_put_many_is_one_request(self):
        with AsyncStoreServer(MemoryBackend()) as server:
            remote = RemoteBackend(*server.address)
            before = server.requests_served
            remote.put_many(blobs_of(*(f"p-{i}".encode() for i in range(25))))
            assert server.requests_served - before == 1  # no probe, ever
            assert len(server.backend) == 25
            remote.close()

    def test_large_batches_chunk_under_header_limit(self):
        """More digests than fit one header are split transparently."""
        from repro.store.remote import BATCH_DIGESTS
        with AsyncStoreServer(MemoryBackend()) as server:
            remote = RemoteBackend(*server.address)
            n = BATCH_DIGESTS + 17
            blobs = blobs_of(*(f"chunky-{i}".encode() for i in range(n)))
            remote.put_many(blobs)
            assert len(server.backend) == n
            got = remote.get_many(list(blobs))
            assert got == blobs
            sizes = remote.blob_size_many(list(blobs))
            assert all(sizes[d] == len(data) for d, data in blobs.items())
            remote.close()


class TestFileBackendBatch:
    def test_put_many_bumps_stamp_once(self, tmp_path):
        """A batch is one mutation-lock acquisition and one stamp
        rewrite, not one per blob."""
        backend = FileBackend(tmp_path / "store")
        bumps = []
        original = backend._bump_stamp_locked

        def counting_bump():
            bumps.append(1)
            original()

        backend._bump_stamp_locked = counting_bump
        backend.put_many(blobs_of(*(f"b-{i}".encode() for i in range(10))))
        assert len(bumps) == 1
        # Counters are exact for a second handle.
        fresh = FileBackend(tmp_path / "store")
        assert fresh.stat() == (10, sum(len(f"b-{i}") for i in range(10)))

    def test_put_many_skips_existing(self, tmp_path):
        backend = FileBackend(tmp_path / "store")
        blobs = blobs_of(b"already here")
        backend.put_many(blobs)
        backend.put_many(blobs)  # idempotent, totals unchanged
        assert backend.stat() == (1, len(b"already here"))


class TestBatchedConsumers:
    def test_gc_prices_remotely_without_blob_transfer(self):
        """GC pricing against a store server works through
        blob_size_many (and through the per-blob fallback on an old
        server — exercised in test_wire_sessions)."""
        with AsyncStoreServer(MemoryBackend()) as server:
            remote = RemoteBackend(*server.address)
            cache = ArtifactCache(BlobStore(remote))
            for i in range(6):
                cache.put("ns", {"i": i}, f"payload-{i}-" + "x" * 50)
            report = cache.gc(120)
            assert report.within_budget
            assert report.deleted_blobs > 0
            assert all(d["bytes"] > 0 for d in report.deletions)
            remote.close()

    def test_transfer_round_trip_uses_batches(self, tmp_path):
        """Export from and import into a store server — both directions
        move blobs through the batched wire ops and still round-trip."""
        from repro.store import export_store, import_store
        archive = str(tmp_path / "warm.tar.gz")
        with AsyncStoreServer(MemoryBackend()) as src_server:
            src = RemoteBackend(*src_server.address)
            cache = ArtifactCache(BlobStore(src))
            for i in range(10):
                cache.put("ns", {"i": i}, f"payload-{i}")
            requests_before = src_server.requests_served
            summary = export_store(src, archive)
            assert summary["blobs"] == 10
            # Batched: far fewer wire requests than blobs moved.
            assert src_server.requests_served - requests_before < 10
            src.close()
        with AsyncStoreServer(MemoryBackend()) as dst_server:
            dst = RemoteBackend(*dst_server.address)
            requests_before = dst_server.requests_served
            result = import_store(dst, archive)
            assert result["blobs_added"] == 10
            assert dst_server.requests_served - requests_before < 10
            warm = ArtifactCache(BlobStore(dst))
            assert warm.get("ns", {"i": 3}).payload == "payload-3"
            dst.close()


class TestCacheStatsBatched:
    def test_stats_counts_batched_remote(self):
        """`cache stats` against a server: per-namespace byte pricing
        still attributes payload + referenced bulk blobs, now via batched
        size/get calls."""
        import json
        with AsyncStoreServer(MemoryBackend()) as server:
            remote = RemoteBackend(*server.address)
            cache = ArtifactCache(BlobStore(remote))
            bulk = cache.store.put("bulk text " * 100)
            cache.put("preprocess", "tu", json.dumps({"text_digest": bulk}))
            cache.put("lower", "mod", "machine module payload")
            stats = cache.stats()
            assert stats["entries_by_namespace"] == {"lower": 1,
                                                     "preprocess": 1}
            assert stats["bytes_by_namespace"]["preprocess"] > len("bulk text") * 99
            assert stats["bytes_by_namespace"]["lower"] == \
                len("machine module payload")
            remote.close()
