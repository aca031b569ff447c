"""ArtifactCache over persistent backends: index round-trip and LRU order."""

import json

import pytest

from repro.containers.store import ArtifactCache, BlobStore
from repro.store import (
    INDEX_REF_PREFIX,
    FileBackend,
    MemoryBackend,
    RemoteBackend,
    AsyncStoreServer,
    index_ref_name,
)


def file_cache(tmp_path, name="store"):
    return ArtifactCache(BlobStore(FileBackend(tmp_path / name)))


class TestIndexPersistence:
    def test_cold_cache_sees_warm_entries(self, tmp_path):
        warm = file_cache(tmp_path)
        warm.put("preprocess", {"k": 1}, "payload-1")
        warm.put("ir", {"k": 2}, "payload-2")

        cold = file_cache(tmp_path)  # fresh instance == fresh process
        assert len(cold) == 2
        assert cold.get("preprocess", {"k": 1}).payload == "payload-1"
        assert cold.get("ir", {"k": 2}).payload == "payload-2"
        # Those were real lookups: counted as hits in the cold process.
        assert cold.counters("preprocess").hits == 1

    def test_cold_hit_is_payload_only(self, tmp_path):
        warm = file_cache(tmp_path)
        warm.put("ir", "key", "text", obj=object())
        cold = file_cache(tmp_path)
        entry = cold.get("ir", "key")
        assert entry.payload == "text"
        assert entry.obj is None  # live objects never cross processes

    def test_memory_cache_unchanged(self):
        cache = ArtifactCache()
        cache.put("ns", "k", "v")
        assert cache.get("ns", "k").payload == "v"
        assert not cache.stats()["persistent"]

    def test_index_blob_is_access_ordered(self, tmp_path):
        cache = file_cache(tmp_path)
        cache.put("ns", "a", "va")
        cache.put("ns", "b", "vb")
        cache.get("ns", "a")  # refreshes a: now more recent than b
        # Hit bumps are batched; the next save persists them.
        cache.flush_index()
        raw = cache.store.backend.get_ref(index_ref_name("ns"))
        blob = json.loads(raw.decode("utf-8"))
        seqs = {key: seq for key, _ns, _digest, seq in blob["entries"]}
        key_a = cache.cache_key("ns", "a")
        key_b = cache.cache_key("ns", "b")
        assert seqs[key_a] > seqs[key_b]

    def test_lru_order_survives_reopen(self, tmp_path):
        warm = file_cache(tmp_path)
        warm.put("ns", "old", "vo")
        warm.put("ns", "new", "vn")
        warm.get("ns", "old")
        warm.flush_index()  # a build flushes when it ends; do it explicitly

        cold = file_cache(tmp_path)
        entries = cold.entries()
        seq = {key: record.seq for key, record in entries.items()}
        assert seq[cold.cache_key("ns", "old")] > seq[cold.cache_key("ns", "new")]

    def test_entries_know_their_namespace(self, tmp_path):
        cache = file_cache(tmp_path)
        cache.put("preprocess", "p", "v1")
        cache.put("lower", "l", "v2")
        namespaces = sorted(r.namespace for r in cache.entries().values())
        assert namespaces == ["lower", "preprocess"]

    def test_stats_reports_store_and_index(self, tmp_path):
        cache = file_cache(tmp_path)
        cache.put("preprocess", "p", "payload")
        cache.pin("image/app", cache.store.put("manifest"))
        stats = cache.stats()
        assert stats["persistent"]
        assert stats["entries_by_namespace"] == {"preprocess": 1}
        assert stats["blobs"] == 2
        assert list(stats["pins"]) == ["image/app"]


class TestConcurrentWriters:
    """Two cooperating processes over one backend must converge on the
    union of their entries — not last-writer-wins dropping publishes."""

    def test_concurrent_publishes_both_survive(self, tmp_path):
        backend_dir = tmp_path / "shared"
        a = ArtifactCache(BlobStore(FileBackend(backend_dir)))
        b = ArtifactCache(BlobStore(FileBackend(backend_dir)))  # same store
        a.put("ir", "from-a", "payload-a")
        b.put("ir", "from-b", "payload-b")  # b never saw a's entry in RAM

        fresh = ArtifactCache(BlobStore(FileBackend(backend_dir)))
        assert fresh.get("ir", "from-a") is not None
        assert fresh.get("ir", "from-b") is not None

    def test_concurrent_publish_not_orphaned_by_gc(self, tmp_path):
        """The blob behind a concurrently-published entry must not be
        GC'd as an orphan."""
        backend_dir = tmp_path / "shared"
        a = ArtifactCache(BlobStore(FileBackend(backend_dir)))
        b = ArtifactCache(BlobStore(FileBackend(backend_dir)))
        entry_a = a.put("ir", "from-a", "payload-a " * 20)
        b.put("ir", "from-b", "payload-b " * 20)

        collector = ArtifactCache(BlobStore(FileBackend(backend_dir)))
        collector.gc(10_000)  # generous budget: nothing should be evicted
        assert collector.store.has(entry_a.digest)
        assert collector.get("ir", "from-a").payload == entry_a.payload

    def test_eviction_not_resurrected_by_merge(self, tmp_path):
        cache = file_cache(tmp_path)
        cache.put("ns", "victim", "v")
        key = cache.cache_key("ns", "victim")
        cache.evict(key)
        cache.put("ns", "other", "o")  # save merges from backend
        assert key not in cache.entries()
        assert cache.get("ns", "victim") is None

    def test_fresh_republish_beats_tombstone(self, tmp_path):
        """Evicting a key must not swallow another writer's *later*
        republish of the same key — only the stale record stays dead."""
        backend_dir = tmp_path / "shared"
        a = ArtifactCache(BlobStore(FileBackend(backend_dir)))
        a.put("ir", "key", "v1")
        b = ArtifactCache(BlobStore(FileBackend(backend_dir)))
        a.evict(a.cache_key("ir", "key"))
        b.put("ir", "key", "v2")  # fresh republish by the other writer
        a.put("ir", "other", "o")  # a's save merges: must adopt b's v2
        entry = a.get("ir", "key")
        assert entry is not None and entry.payload == "v2"

    def test_republish_from_lagging_writer_beats_tombstone(self, tmp_path):
        """A writer whose local seq counter lags (it opened the store
        early and idled) republishing the *identical payload* of a key a
        busy writer evicted must still win over the tombstone."""
        backend_dir = tmp_path / "shared"
        lagging = ArtifactCache(BlobStore(FileBackend(backend_dir)))
        busy = ArtifactCache(BlobStore(FileBackend(backend_dir)))
        for i in range(30):  # busy's counter runs far ahead of lagging's
            busy.put("ns", {"i": i}, f"v{i}")
        busy.put("ir", "key", "same payload")
        busy.evict(busy.cache_key("ir", "key"))  # tombstone with high seq
        lagging.put("ir", "key", "same payload")  # same digest, low counter
        busy.put("ns", "more", "x")  # busy's save must not drop the republish
        fresh = ArtifactCache(BlobStore(FileBackend(backend_dir)))
        entry = fresh.get("ir", "key")
        assert entry is not None and entry.payload == "same payload"

    def test_foreign_eviction_not_resurrected_by_carrier(self, tmp_path):
        """A cache that merely *carries* an entry (adopted at init, never
        re-published) must not write it back after another writer's GC
        evicted it."""
        backend_dir = tmp_path / "shared"
        seed = ArtifactCache(BlobStore(FileBackend(backend_dir)))
        seed.put("ir", "victim", "v")
        key = seed.cache_key("ir", "victim")

        carrier = ArtifactCache(BlobStore(FileBackend(backend_dir)))
        assert key in carrier.entries()  # adopted, not dirty

        collector = ArtifactCache(BlobStore(FileBackend(backend_dir)))
        collector.gc(0)  # evicts everything unpinned, including victim

        carrier.put("ir", "other", "o")  # must not resurrect victim
        fresh = ArtifactCache(BlobStore(FileBackend(backend_dir)))
        assert fresh.get("ir", "victim") is None
        assert fresh.get("ir", "other") is not None


# -- the acceptance scenario: interleaved two-writer publish -------------------


class _PersistentMemory(MemoryBackend):
    """In-process backend that persists its index like file/remote do, so
    the interleave scenario runs against pure-memory CAS too."""

    persistent = True


class InterposingBackend:
    """Delegate to ``inner``, firing ``on_index_write`` exactly once, just
    before the first attempt to write the index ref.

    That is the critical instant of the race: writer A has read the index
    and serialized its view, and writer B's publish lands before A's write
    hits the store. Under blind ``set_ref`` persistence A would overwrite
    B (last-writer-wins, B's entry lost); under CAS A's first swap fails,
    A re-reads, merges B's state, and retries.
    """

    persistent = True

    def __init__(self, inner, on_index_write):
        self._inner = inner
        self._on_index_write = on_index_write
        self._fired = False

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __len__(self):
        return len(self._inner)

    @property
    def total_bytes(self):
        return self._inner.total_bytes

    def _maybe_fire(self, name):
        # Index refs are sharded per namespace; fire on the first write
        # to any of them (the legacy monolithic name included).
        if name.startswith(INDEX_REF_PREFIX) and not self._fired:
            self._fired = True
            self._on_index_write()

    def set_ref(self, name, data):
        self._maybe_fire(name)
        self._inner.set_ref(name, data)

    def compare_and_set_ref(self, name, expected, data):
        self._maybe_fire(name)
        return self._inner.compare_and_set_ref(name, expected, data)


@pytest.fixture(params=["memory", "file", "remote"])
def shared_backend(request, tmp_path):
    """One shared store, reachable through two independent handles —
    modelling two builder processes — for every backend kind."""
    if request.param == "memory":
        backend = _PersistentMemory()
        yield backend, backend
    elif request.param == "file":
        yield (FileBackend(tmp_path / "shared"),
               FileBackend(tmp_path / "shared"))
    else:
        with AsyncStoreServer(MemoryBackend()) as server:
            yield (RemoteBackend(*server.address),
                   RemoteBackend(*server.address))


class TestInterleavedPublish:
    """ISSUE 3 acceptance: write A reads the index, write B publishes,
    write A publishes — both entries and both writers' access-order
    updates survive, on every backend."""

    def test_both_publishes_survive(self, shared_backend):
        handle_a, handle_b = shared_backend
        writer_b = ArtifactCache(BlobStore(handle_b))

        def b_publishes():
            writer_b.put("ir", "from-b", "payload-b")

        writer_a = ArtifactCache(
            BlobStore(InterposingBackend(handle_a, b_publishes)))
        writer_a.put("ir", "from-a", "payload-a")  # race happens in here

        fresh = ArtifactCache(BlobStore(handle_b))
        assert fresh.get("ir", "from-a").payload == "payload-a"
        assert fresh.get("ir", "from-b").payload == "payload-b"

    def test_both_access_order_updates_survive(self, shared_backend):
        handle_a, handle_b = shared_backend
        seed = ArtifactCache(BlobStore(handle_b))
        seed.put("ir", "k1", "v1")
        seed.put("ir", "k2", "v2")
        seed.flush_index()
        baseline = {key: record.seq for key, record in seed.entries().items()}

        writer_b = ArtifactCache(BlobStore(handle_b))

        def b_bumps_k2():
            assert writer_b.get("ir", "k2") is not None
            writer_b.flush_index()

        writer_a = ArtifactCache(
            BlobStore(InterposingBackend(handle_a, b_bumps_k2)))
        assert writer_a.get("ir", "k1") is not None
        writer_a.flush_index()  # race happens in here

        final = ArtifactCache(BlobStore(handle_b)).entries()
        k1 = seed.cache_key("ir", "k1")
        k2 = seed.cache_key("ir", "k2")
        assert final[k1].seq > baseline[k1], "writer A's bump was lost"
        assert final[k2].seq > baseline[k2], "writer B's bump was lost"

    def test_interleaved_pins_both_survive(self, shared_backend):
        handle_a, handle_b = shared_backend
        store_b = BlobStore(handle_b)
        digest_a = store_b.put("manifest-a")
        digest_b = store_b.put("manifest-b")
        writer_b = ArtifactCache(store_b)

        fired = []

        class PinInterposer(InterposingBackend):
            def _maybe_fire(self, name):
                from repro.store import PINS_REF
                if name == PINS_REF and not fired:
                    fired.append(True)
                    writer_b.pin("image/b", digest_b)

        writer_a = ArtifactCache(
            BlobStore(PinInterposer(handle_a, lambda: None)))
        writer_a.pin("image/a", digest_a)

        pins = ArtifactCache(BlobStore(handle_b)).pins()
        assert pins == {"image/a": digest_a, "image/b": digest_b}


class TestCrashedWriterResidue:
    def test_tmp_files_invisible_to_store(self, tmp_path):
        """A writer killed between mkstemp and rename leaves .tmp-* files;
        they must not surface as (malformed) blobs anywhere."""
        from repro.store import export_store, import_store

        backend = FileBackend(tmp_path / "store")
        digest = BlobStore(backend).put("real blob")
        shard = tmp_path / "store" / "objects" / digest.split(":")[1][:2]
        (shard / ".tmp-crashed").write_bytes(b"partial write")

        reopened = FileBackend(tmp_path / "store")
        assert len(reopened) == 1
        assert reopened.digests() == [digest]
        assert reopened.total_bytes == len(b"real blob")
        archive = str(tmp_path / "a.tar.gz")
        assert export_store(reopened, archive)["blobs"] == 1
        assert import_store(FileBackend(tmp_path / "dst"), archive)[
            "blobs_added"] == 1


class TestPins:
    def test_pin_unpin_round_trip(self, tmp_path):
        cache = file_cache(tmp_path)
        digest = cache.store.put("precious")
        cache.pin("release/v1", digest)
        assert cache.pins() == {"release/v1": digest}
        # Pins live in the backend: a cold process sees them.
        cold = file_cache(tmp_path)
        assert cold.pins() == {"release/v1": digest}
        assert cold.unpin("release/v1")
        assert not cold.unpin("release/v1")
        assert cold.pins() == {}
