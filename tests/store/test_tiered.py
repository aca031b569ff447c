"""TieredBackend semantics under contention: single-flight, write-back
ordering, GC interplay, and the pool-drain race the tier exposed.

The backend *contract* (including CAS races) runs in test_backends.py,
where the tiered compositions sit in the shared matrix; the multiwriter
CAS stress runs in test_multiwriter.py. This file covers what is unique
to the hierarchy itself.
"""

import threading
import time

import pytest

from repro.containers.store import ArtifactCache, BlobStore
from repro.store import (BlobNotFound, FileBackend, MemoryBackend,
                         RemoteBackend, AsyncStoreServer, TieredBackend)
from repro.util.hashing import content_digest


class SlowUpstream(MemoryBackend):
    """MemoryBackend that counts gets and can stall them — the probe for
    single-flight de-duplication."""

    def __init__(self, get_delay: float = 0.0):
        super().__init__()
        self.get_delay = get_delay
        self.get_calls: list[str] = []
        self.put_calls: list[str] = []
        self._count_lock = threading.Lock()

    def get(self, digest):
        with self._count_lock:
            self.get_calls.append(digest)
        if self.get_delay:
            time.sleep(self.get_delay)
        return super().get(digest)

    def put(self, digest, data):
        with self._count_lock:
            self.put_calls.append(digest)
        super().put(digest, data)


class TestSingleFlight:
    def test_n_threads_missing_one_digest_fetch_upstream_once(self):
        upstream = SlowUpstream(get_delay=0.05)
        digest = content_digest(b"payload")
        upstream.put(digest, b"payload")
        upstream.put_calls.clear()
        tier = TieredBackend(MemoryBackend(), upstream)

        results, errors = [], []
        barrier = threading.Barrier(16)

        def miss():
            barrier.wait()
            try:
                results.append(tier.get(digest))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=miss) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors
        assert results == [b"payload"] * 16
        assert upstream.get_calls == [digest], \
            "concurrent misses must coalesce into one upstream fetch"
        # One miss (the leader), fifteen hits served from its flight.
        assert tier.tier_misses == 1
        assert tier.tier_hits == 15
        # Promotion: the next reader never leaves the local tier.
        assert tier.get(digest) == b"payload"
        assert upstream.get_calls == [digest]
        # A promoted blob is a cache copy, not a write-back candidate.
        assert tier.pending_blobs == 0

    def test_waiters_share_the_leaders_failure(self):
        upstream = SlowUpstream(get_delay=0.05)
        tier = TieredBackend(MemoryBackend(), upstream)
        missing = "sha256:" + "0" * 64
        errors = []
        barrier = threading.Barrier(8)

        def miss():
            barrier.wait()
            try:
                tier.get(missing)
            except BlobNotFound:
                errors.append(True)

        threads = [threading.Thread(target=miss) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(errors) == 8
        assert upstream.get_calls == [missing]
        # The failed flight is forgotten: a later get retries upstream.
        with pytest.raises(BlobNotFound):
            tier.get(missing)
        assert upstream.get_calls == [missing, missing]


class TestWriteBack:
    def test_puts_are_pending_until_flush(self):
        upstream = SlowUpstream()
        tier = TieredBackend(MemoryBackend(), upstream, flush_max_blobs=100)
        digest = content_digest(b"data")
        tier.put(digest, b"data")
        assert tier.get(digest) == b"data"  # local hit
        assert not upstream.has(digest)     # not yet upstream
        assert tier.has(digest)             # but the tier never lies
        assert tier.flush() == 1
        assert upstream.has(digest)
        assert tier.flush() == 0            # drained

    def test_size_bound_forces_inline_flush(self):
        upstream = SlowUpstream()
        tier = TieredBackend(MemoryBackend(), upstream, flush_max_blobs=4)
        payloads = [b"blob-%d" % i for i in range(4)]
        for payload in payloads:
            tier.put(content_digest(payload), payload)
        assert tier.pending_blobs == 0
        assert all(upstream.has(content_digest(p)) for p in payloads)

    def test_byte_bound_forces_inline_flush(self):
        upstream = SlowUpstream()
        tier = TieredBackend(MemoryBackend(), upstream,
                             flush_max_blobs=1000, flush_max_bytes=64)
        tier.put(content_digest(b"x" * 100), b"x" * 100)
        assert tier.pending_blobs == 0
        assert upstream.has(content_digest(b"x" * 100))

    def test_ref_writes_flush_pending_blobs_first(self):
        """Publish-before-announce: an index ref naming a blob must never
        land upstream before the blob."""
        upstream = SlowUpstream()
        tier = TieredBackend(MemoryBackend(), upstream, flush_max_blobs=100)
        digest = content_digest(b"artifact")
        tier.put(digest, b"artifact")
        assert not upstream.has(digest)
        tier.set_ref("artifact-index/ns", b"index-naming-" + digest.encode())
        assert upstream.has(digest)

        digest2 = content_digest(b"artifact-2")
        tier.put(digest2, b"artifact-2")
        assert not upstream.has(digest2)
        assert tier.compare_and_set_ref("pins", None, b"{}")
        assert upstream.has(digest2)

    def test_close_flushes_and_is_idempotent(self):
        upstream = SlowUpstream()
        tier = TieredBackend(MemoryBackend(), upstream, flush_max_blobs=100)
        digest = content_digest(b"tail")
        tier.put(digest, b"tail")
        tier.close()
        assert upstream.has(digest)
        tier.close()  # second close is a no-op, not an error

    def test_background_flusher_pushes_by_age(self):
        upstream = SlowUpstream()
        # tier_id + flush_interval together: the flusher thread is named
        # after the tier id (regression: a str tier_id used to crash the
        # thread-name format).
        tier = TieredBackend(MemoryBackend(), upstream,
                             flush_max_blobs=100, flush_interval=0.02,
                             tier_id="w-1")
        try:
            digest = content_digest(b"aged")
            tier.put(digest, b"aged")
            deadline = time.monotonic() + 5.0
            while not upstream.has(digest):
                assert time.monotonic() < deadline, \
                    "background flusher never pushed the blob"
                time.sleep(0.01)
        finally:
            tier.close()

    def test_failed_flush_requeues_the_batch(self):
        class FailingOnce(MemoryBackend):
            def __init__(self):
                super().__init__()
                self.fail_next = True

            def put_many(self, blobs):
                if self.fail_next:
                    self.fail_next = False
                    raise ConnectionError("upstream hiccup")
                super().put_many(blobs)

        upstream = FailingOnce()
        tier = TieredBackend(MemoryBackend(), upstream, flush_max_blobs=100)
        digest = content_digest(b"retry-me")
        tier.put(digest, b"retry-me")
        with pytest.raises(ConnectionError):
            tier.flush()
        assert tier.pending_blobs == 1  # nothing silently dropped
        assert tier.flush() == 1
        assert upstream.has(digest)


class TestGCInterplay:
    """The tier + upstream GC contract: an upstream eviction of a
    locally-cached blob is repaired by the next republish's flush, and
    the tier never serves a stale `has` for a blob deleted through it."""

    def test_upstream_eviction_reuploads_on_next_flush(self):
        upstream = SlowUpstream()
        tier = TieredBackend(MemoryBackend(), upstream, flush_max_blobs=100)
        digest = content_digest(b"evictable")
        tier.put(digest, b"evictable")
        tier.flush()
        assert upstream.has(digest)

        upstream.delete(digest)  # upstream GC took it
        assert tier.get(digest) == b"evictable"  # local copy still serves
        # The republish is what signals the blob is still wanted: it
        # re-enqueues even though the local tier already holds the bytes.
        tier.put(digest, b"evictable")
        tier.flush()
        assert upstream.has(digest)

    def test_delete_through_tier_leaves_no_stale_has(self):
        upstream = SlowUpstream()
        tier = TieredBackend(MemoryBackend(), upstream, flush_max_blobs=100)
        digest = content_digest(b"doomed")
        tier.put(digest, b"doomed")
        tier.flush()
        assert tier.delete(digest)
        assert not tier.has(digest)
        assert not upstream.has(digest)
        with pytest.raises(BlobNotFound):
            tier.get(digest)

    def test_delete_cancels_pending_writeback(self):
        upstream = SlowUpstream()
        tier = TieredBackend(MemoryBackend(), upstream, flush_max_blobs=100)
        digest = content_digest(b"never-lands")
        tier.put(digest, b"never-lands")
        assert tier.delete(digest)
        tier.flush()
        assert not upstream.has(digest), \
            "flush resurrected a deleted blob from the write-back queue"
        assert not tier.has(digest)


class TestTieredCache:
    def test_artifact_cache_over_file_over_remote(self, tmp_path):
        """The full deployment composition: ArtifactCache -> BlobStore ->
        TieredBackend(FileBackend, RemoteBackend). A second flat reader
        sees everything the tiered writer published."""
        with AsyncStoreServer(MemoryBackend()) as server:
            tier = TieredBackend(FileBackend(tmp_path / "tier"),
                                 RemoteBackend(*server.address))
            cache = ArtifactCache(BlobStore(tier))
            for i in range(10):
                cache.put("pp", {"i": i}, f"payload-{i}")
            cache.flush_index()
            tier.flush()

            flat = ArtifactCache(BlobStore(RemoteBackend(*server.address)))
            assert len(flat.entries()) == 10
            for i in range(10):
                entry = flat.get("pp", {"i": i})
                assert entry is not None
                assert entry.payload == f"payload-{i}"
            tier.close()


class TestPoolDrainRace:
    """Regression for the close()-vs-in-flight-request race the tier's
    flush thread exposed: RemoteBackend.close must be idempotent, must
    not let the session pool re-grow, and must leave the backend usable
    (one-shot sessions) afterwards."""

    def test_remote_close_is_idempotent_and_nonfatal(self):
        with AsyncStoreServer(MemoryBackend()) as server:
            backend = RemoteBackend(*server.address)
            digest = content_digest(b"x")
            backend.put(digest, b"x")
            backend.close()
            backend.close()  # double close: no error
            # Still usable — later ops run on one-shot sessions.
            assert backend.get(digest) == b"x"
            backend.close()

    def test_checkin_after_close_does_not_regrow_pool(self):
        with AsyncStoreServer(MemoryBackend()) as server:
            backend = RemoteBackend(*server.address)
            pool = backend._pool
            assert pool is not None
            backend.put(content_digest(b"y"), b"y")
            assert pool.stats()["idle"] >= 1
            backend.close()
            assert pool.stats()["idle"] == 0
            # A request that was in flight across close() checks its
            # session back in — the pool must close it, not park it.
            assert backend.has(content_digest(b"y"))
            assert pool.stats()["idle"] == 0

    def test_concurrent_close_and_requests(self):
        with AsyncStoreServer(MemoryBackend()) as server:
            backend = RemoteBackend(*server.address)
            digest = content_digest(b"z")
            backend.put(digest, b"z")
            errors = []
            stop = threading.Event()

            def hammer():
                while not stop.is_set():
                    try:
                        backend.get(digest)
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)
                        return

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for t in threads:
                t.start()
            for _ in range(10):
                backend.close()
                time.sleep(0.005)
            stop.set()
            for t in threads:
                t.join()
            assert not errors
            assert backend._pool.stats()["idle"] == 0

    def test_tier_close_racing_worker_close(self, tmp_path):
        """The exact production race: the tier's close (final flush +
        upstream close) and another component closing the same
        RemoteBackend concurrently."""
        with AsyncStoreServer(MemoryBackend()) as server:
            upstream = RemoteBackend(*server.address)
            tier = TieredBackend(FileBackend(tmp_path / "tier"), upstream,
                                 flush_interval=0.01)
            for i in range(20):
                payload = b"blob-%d" % i
                tier.put(content_digest(payload), payload)
            closers = [threading.Thread(target=tier.close),
                       threading.Thread(target=upstream.close)]
            for t in closers:
                t.start()
            for t in closers:
                t.join()
            # Everything accepted before close must be upstream.
            flat = RemoteBackend(*server.address)
            for i in range(20):
                assert flat.has(content_digest(b"blob-%d" % i))


class _Outage(MemoryBackend):
    """MemoryBackend with a switchable outage: every op raises
    ConnectionError while ``down`` — the scriptable upstream for
    degraded-mode tests."""

    def __init__(self):
        super().__init__()
        self.down = False
        self.gets = 0

    def _check(self):
        if self.down:
            raise ConnectionError("upstream down")

    def put(self, digest, data):
        self._check()
        super().put(digest, data)

    def put_many(self, blobs):
        self._check()
        super().put_many(blobs)

    def get(self, digest):
        self.gets += 1
        self._check()
        return super().get(digest)

    def has(self, digest):
        self._check()
        return super().has(digest)

    def set_ref(self, name, data):
        self._check()
        super().set_ref(name, data)

    def get_ref(self, name):
        self._check()
        return super().get_ref(name)


class TestDegradedMode:
    """Upstream outage: bounded local buffering, fail-fast refs, and
    recovery that drains the backlog."""

    def _degraded_tier(self, **kwargs):
        upstream = _Outage()
        tier = TieredBackend(MemoryBackend(), upstream, **kwargs)
        payload = b"already local"
        self.digest = content_digest(payload)
        tier.put(self.digest, payload)
        upstream.down = True
        with pytest.raises(ConnectionError):
            tier.flush()  # observe the outage; blob stays pending
        assert tier.degraded
        return tier, upstream

    def test_outage_enters_degraded_and_keeps_the_batch(self):
        tier, upstream = self._degraded_tier()
        assert tier.pending_blobs == 1  # re-queued, not dropped
        snap = tier.registry.snapshot()
        assert snap["gauges"]["store.tier.degraded"] == 1
        assert snap["counters"]["store.tier.degraded_entries"] == 1

    def test_local_reads_served_while_degraded(self):
        tier, upstream = self._degraded_tier()
        gets_before = upstream.gets
        assert tier.get(self.digest) == b"already local"
        assert tier.has(self.digest)
        assert upstream.gets == gets_before  # never touched the wire

    def test_read_miss_fails_fast_inside_probe_window(self):
        tier, upstream = self._degraded_tier()
        from repro.store.tiered import TierDegraded
        with pytest.raises(TierDegraded):
            tier.get("sha256:" + "0" * 64)
        assert upstream.gets == 0  # no hammering a known-down upstream
        assert not tier.has("sha256:" + "0" * 64)  # answer from what we hold
        assert tier.registry.snapshot()["counters"][
            "store.tier.degraded_failfast"] >= 1

    def test_refs_fail_fast_while_degraded(self):
        tier, _ = self._degraded_tier()
        from repro.store.tiered import TierDegraded
        with pytest.raises(TierDegraded):
            tier.get_ref("artifact-index")
        with pytest.raises(TierDegraded):
            tier.set_ref("artifact-index", b"{}")
        with pytest.raises(TierDegraded):
            tier.compare_and_set_ref("artifact-index", None, b"{}")

    def test_degraded_puts_buffer_up_to_the_bound(self):
        tier, _ = self._degraded_tier(degraded_max_bytes=64,
                                      flush_max_blobs=1000,
                                      flush_max_bytes=1 << 20)
        from repro.store.tiered import TierDegraded
        small = b"x" * 16
        tier.put(content_digest(small), small)  # fits: buffered locally
        assert tier.get(content_digest(small)) == small
        big = b"y" * 128
        with pytest.raises(TierDegraded, match="backlog"):
            tier.put(content_digest(big), big)
        # The refused put did not corrupt the backlog.
        assert tier.get(content_digest(small)) == small

    def test_recovery_drains_backlog_upstream(self):
        tier, upstream = self._degraded_tier()
        while tier.degraded:
            upstream.down = False
            tier.flush()  # explicit flush always probes
        assert not tier.degraded
        assert upstream.has(self.digest)  # backlog drained
        assert tier.pending_blobs == 0
        assert tier.registry.snapshot()["gauges"]["store.tier.degraded"] == 0

    def test_open_probe_window_recovers_via_read_path(self):
        tier, upstream = self._degraded_tier()
        upstream.down = False
        other = b"upstream only"
        upstream.put(content_digest(other), other)
        tier._probe_after = 0.0  # the window opens (normally by backoff)
        assert tier.get(content_digest(other)) == other  # probe = the miss
        assert not tier.degraded
