"""A cache that defers its index defers the payload blobs with it.

At ``BULK_FLUSH_EVERY`` on a persistent backend nothing ``put`` publishes
is on the store before the next index save, and every save lands the
blobs first, as one batch. Stated as sequences of backend operations,
over every bundled backend (the counting proxy sits where another process
would look: on the shared side of a tier).
"""

import pytest

from test_cache_put_many import (CountingBackend, counted_handle,  # noqa: F401
                                 handle)

from repro.containers.store import (ArtifactCache, BlobStore,
                                    BULK_FLUSH_EVERY)
from repro.store import MemoryBackend
from repro.store.backend import BlobNotFound
from repro.testing.faults import FaultyBackend
from repro.util.hashing import content_digest

NS = "ir"
PAYLOADS = [f"module {i}\n" * 12 for i in range(5)]
WRITES = ("put", "put_many", "set_ref", "compare_and_set_ref", "delete")


def writes(counter: CountingBackend) -> list[str]:
    return [name for name, _first in counter.calls if name in WRITES]


def bulk_cache(backend) -> ArtifactCache:
    return ArtifactCache(BlobStore(backend), flush_every=BULK_FLUSH_EVERY)


def publish(cache: ArtifactCache, payloads=PAYLOADS) -> None:
    for i, payload in enumerate(payloads):
        entry = cache.put(NS, {"unit": i}, payload)
        assert entry.digest == content_digest(payload)


class TestDeferredPublish:
    def test_puts_write_nothing_and_one_flush_lands_blobs_then_index(
            self, handle):
        backend, counter = counted_handle(handle)
        cache = bulk_cache(backend)
        counter.calls.clear()
        publish(cache)
        assert writes(counter) == []
        assert cache.pending_blobs == (
            len(PAYLOADS), sum(len(p.encode()) for p in PAYLOADS))
        for i, payload in enumerate(PAYLOADS):
            assert cache.get(NS, {"unit": i}).payload == payload

        cache.flush_index()
        assert writes(counter) == ["put_many", "compare_and_set_ref"]
        assert cache.pending_blobs == (0, 0)
        counter.calls.clear()
        cache.flush_index()  # nothing pending, nothing dirty
        assert writes(counter) == []

    def test_second_handle_sees_neither_blob_nor_entry_before_the_flush(
            self, handle):
        writer = bulk_cache(handle())
        publish(writer)
        reader = ArtifactCache(BlobStore(handle()))
        assert reader.get(NS, {"unit": 0}) is None
        with pytest.raises(BlobNotFound):
            reader.store.get(content_digest(PAYLOADS[0]))

        writer.flush_index()
        reader = ArtifactCache(BlobStore(handle()))
        for i, payload in enumerate(PAYLOADS):
            assert reader.get(NS, {"unit": i}).payload == payload
            assert reader.store.get_text(content_digest(payload)) == payload

    @pytest.mark.parametrize("boundary", ["entries", "sync", "stats",
                                          "evict"])
    def test_every_saving_operation_lands_the_blobs_first(self, handle,
                                                          boundary):
        backend, counter = counted_handle(handle)
        cache = bulk_cache(backend)
        publish(cache)
        counter.calls.clear()
        if boundary == "evict":
            cache.evict(cache.cache_key(NS, {"unit": 0}))
        else:
            getattr(cache, boundary)()
        assert writes(counter)[:2] == ["put_many", "compare_and_set_ref"]
        assert writes(counter).count("put_many") == 1
        assert cache.pending_blobs == (0, 0)
        for payload in PAYLOADS:
            assert ArtifactCache(BlobStore(handle())).store.has(
                content_digest(payload))

    def test_put_many_lands_what_was_pending_in_its_own_batch(self, handle):
        backend, counter = counted_handle(handle)
        cache = bulk_cache(backend)
        publish(cache)
        counter.calls.clear()
        cache.put_many("preprocess", [({"tu": 0}, "payload")],
                       blobs=["bulk text"])
        # One batch for the five pending blobs and the two new ones, then
        # one save per dirty namespace.
        assert writes(counter) == ["put_many", "compare_and_set_ref",
                                   "compare_and_set_ref"]
        reader = ArtifactCache(BlobStore(handle()))
        assert reader.store.has(content_digest("bulk text"))
        assert reader.get(NS, {"unit": 4}).payload == PAYLOADS[4]

    def test_refused_batch_stays_pending_until_a_flush_lands_it(self, handle):
        faulty = FaultyBackend(handle()).fail_every(2, ops=("put_many",))
        cache = bulk_cache(faulty)
        cache.put(NS, {"unit": "first"}, "first")
        cache.flush_index()  # put_many #1 goes through
        publish(cache)
        with pytest.raises(ConnectionError):
            cache.flush_index()  # put_many #2 is refused
        assert faulty.injected == {"put_many": 1}
        assert cache.pending_blobs[0] == len(PAYLOADS)
        assert cache.get(NS, {"unit": 1}).payload == PAYLOADS[1]
        assert ArtifactCache(BlobStore(handle())).get(NS, {"unit": 1}) is None

        cache.flush_index()
        assert cache.pending_blobs == (0, 0)
        reader = ArtifactCache(BlobStore(handle()))
        for i, payload in enumerate(PAYLOADS):
            assert reader.get(NS, {"unit": i}).payload == payload


class TestWriteThrough:
    def test_flush_every_one_writes_one_blob_and_one_index_per_put(
            self, handle):
        backend, counter = counted_handle(handle)
        cache = ArtifactCache(BlobStore(backend))
        counter.calls.clear()
        publish(cache, PAYLOADS[:2])
        assert writes(counter) == ["put_many", "compare_and_set_ref"] * 2
        assert cache.pending_blobs == (0, 0)

    def test_a_memory_backend_never_buffers(self):
        counter = CountingBackend(MemoryBackend())
        cache = bulk_cache(counter)
        publish(cache)
        assert writes(counter) == ["put_many"] * len(PAYLOADS)
        assert cache.pending_blobs == (0, 0)
        assert counter.has(content_digest(PAYLOADS[0]))
