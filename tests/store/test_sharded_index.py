"""Per-namespace index shards: layout and contention.

The ArtifactCache persists its index as one ref per namespace
(``artifact-index/<ns>``): writers in different namespaces CAS different
refs (zero retries) and payloads are O(namespace). The bare
``artifact-index`` ref of the pre-sharding layout is outside input: a
cache ignores it, an import rejects it.
"""

import json

import pytest

from repro.containers.store import ArtifactCache, BlobStore
from repro.store import (
    INDEX_REF_PREFIX,
    AsyncStoreServer,
    BackendError,
    FileBackend,
    RemoteBackend,
    index_ref_name,
    index_ref_names,
)

#: The one-blob index ref a pre-sharding writer kept.
PRE_SHARDING_REF = "artifact-index"


def file_cache(tmp_path, name="store", **kwargs):
    return ArtifactCache(BlobStore(FileBackend(tmp_path / name)), **kwargs)


class TestShardLayout:
    def test_put_creates_one_ref_per_namespace(self, tmp_path):
        cache = file_cache(tmp_path)
        cache.put("preprocess", "p", "v1")
        cache.put("lower", "l", "v2")
        refs = set(cache.store.backend.refs())
        assert index_ref_name("preprocess") in refs
        assert index_ref_name("lower") in refs
        assert PRE_SHARDING_REF not in refs  # no monolithic blob, ever

    def test_shard_payload_holds_only_its_namespace(self, tmp_path):
        cache = file_cache(tmp_path)
        for i in range(5):
            cache.put("preprocess", {"i": i}, f"p{i}")
        cache.put("lower", "l", "v")
        raw = cache.store.backend.get_ref(index_ref_name("lower"))
        entries = json.loads(raw.decode())["entries"]
        assert len(entries) == 1
        assert all(ns == "lower" for _k, ns, _d, _s in entries)

    def test_save_rewrites_only_dirty_namespaces(self, tmp_path):
        """Publishing `lower` artifacts must not rewrite the (possibly
        huge) `preprocess` shard."""
        cache = file_cache(tmp_path)
        for i in range(10):
            cache.put("preprocess", {"i": i}, f"p{i}")
        before = cache.store.backend.get_ref(index_ref_name("preprocess"))
        cache.put("lower", "l", "v")
        after = cache.store.backend.get_ref(index_ref_name("preprocess"))
        assert before == after

    def test_cold_cache_merges_all_shards(self, tmp_path):
        warm = file_cache(tmp_path)
        warm.put("preprocess", "p", "v1")
        warm.put("ir", "i", "v2")
        warm.put("lower", "l", "v3")
        cold = file_cache(tmp_path)
        assert len(cold.entries()) == 3
        assert cold.get("preprocess", "p").payload == "v1"
        assert cold.get("lower", "l").payload == "v3"

    def test_lru_order_is_global_across_shards(self, tmp_path):
        cache = file_cache(tmp_path)
        cache.put("preprocess", "old", "vo")
        cache.put("lower", "new", "vn")
        cache.get("preprocess", "old")  # cross-shard recency bump
        cache.flush_index()
        cold = file_cache(tmp_path)
        seq = {key: record.seq for key, record in cold.entries().items()}
        assert seq[cold.cache_key("preprocess", "old")] > \
            seq[cold.cache_key("lower", "new")]


def seed_pre_sharding_store(tmp_path, name="store"):
    """A store as a pre-sharding writer left it: blobs on disk, and every
    index entry in one bare ``artifact-index`` ref."""
    writer = file_cache(tmp_path, name=name)
    writer.put("preprocess", "p", "old-p")
    writer.put("lower", "l", "old-l")
    backend = FileBackend(tmp_path / name)
    rows = []
    for ref in index_ref_names(backend):
        rows += json.loads(backend.get_ref(ref).decode())["entries"]
        backend.delete_ref(ref)
    backend.set_ref(PRE_SHARDING_REF, json.dumps(
        {"version": 1, "seq": len(rows), "entries": sorted(rows)}).encode())
    return backend


class TestPreShardingLayoutIsOutsideInput:
    def test_cache_ignores_a_bare_index_ref(self, tmp_path):
        """The old layout is not migrated: its entries are cache misses
        (always correct), the ref is left alone, and GC treats the blobs
        it named as the orphans they now are."""
        backend = seed_pre_sharding_store(tmp_path)
        before = backend.get_ref(PRE_SHARDING_REF)
        cache = file_cache(tmp_path)
        assert cache.entries() == {}
        assert cache.get("preprocess", "p") is None
        cache.put("lower", "fresh", "new-l")
        assert backend.get_ref(PRE_SHARDING_REF) == before
        assert file_cache(tmp_path).get("lower", "fresh").payload == "new-l"
        assert cache.gc(10_000_000).deleted_blobs == 2

    def test_import_rejects_a_pre_sharding_archive(self, tmp_path):
        from repro.store import export_store, import_store
        seed_pre_sharding_store(tmp_path, name="old")
        archive = str(tmp_path / "old.tar.gz")
        export_store(FileBackend(tmp_path / "old"), archive)
        dst = FileBackend(tmp_path / "dst")
        with pytest.raises(BackendError, match="pre-sharding index layout"):
            import_store(dst, archive)
        assert dst.refs() == []  # rejected before any ref was written


class TestShardContention:
    def test_cross_namespace_writers_never_cas_conflict(self, tmp_path):
        """The acceptance property: an interleaved publish in another
        *namespace* lands on another ref, so our save's first CAS wins."""
        root = tmp_path / "shared"
        FileBackend(root)
        writer_b = ArtifactCache(BlobStore(FileBackend(root)))

        fired = []

        class Interposer:
            persistent = True

            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def __len__(self):
                return len(self._inner)

            def compare_and_set_ref(self, name, expected, data):
                if name.startswith(INDEX_REF_PREFIX) and not fired:
                    fired.append(True)
                    writer_b.put("preprocess", "from-b", "payload-b")
                return self._inner.compare_and_set_ref(name, expected, data)

        writer_a = ArtifactCache(BlobStore(Interposer(FileBackend(root))))
        writer_a.put("lower", "from-a", "payload-a")  # race happens in here
        assert fired, "interposer never fired"
        assert writer_a.cas_retries == 0  # different shard: no conflict
        fresh = ArtifactCache(BlobStore(FileBackend(root)))
        assert fresh.get("lower", "from-a").payload == "payload-a"
        assert fresh.get("preprocess", "from-b").payload == "payload-b"

    def test_same_namespace_conflict_still_merges(self, tmp_path):
        """Within one namespace PR-3's CAS retry-merge still runs — and
        is now visible through the retry counter."""
        root = tmp_path / "shared"
        FileBackend(root)
        writer_b = ArtifactCache(BlobStore(FileBackend(root)))

        fired = []

        class Interposer:
            persistent = True

            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def __len__(self):
                return len(self._inner)

            def compare_and_set_ref(self, name, expected, data):
                if name.startswith(INDEX_REF_PREFIX) and not fired:
                    fired.append(True)
                    writer_b.put("lower", "from-b", "payload-b")
                return self._inner.compare_and_set_ref(name, expected, data)

        writer_a = ArtifactCache(BlobStore(Interposer(FileBackend(root))))
        writer_a.put("lower", "from-a", "payload-a")
        assert writer_a.cas_retries >= 1  # same shard: the swap was beaten
        fresh = ArtifactCache(BlobStore(FileBackend(root)))
        assert fresh.get("lower", "from-a").payload == "payload-a"
        assert fresh.get("lower", "from-b").payload == "payload-b"


@pytest.fixture(params=["file", "remote"])
def shared_root(request, tmp_path):
    if request.param == "file":
        root = tmp_path / "shared"
        FileBackend(root)
        yield lambda: FileBackend(root)
    else:
        with AsyncStoreServer(FileBackend(tmp_path / "served")) as server:
            host, port = server.address
            yield lambda: RemoteBackend(host, port)


class TestShardsAcrossBackends:
    def test_entries_and_stats_see_all_shards(self, shared_root):
        a = ArtifactCache(BlobStore(shared_root()))
        b = ArtifactCache(BlobStore(shared_root()))
        a.put("preprocess", "p", "va")
        b.put("lower", "l", "vb")
        stats = ArtifactCache(BlobStore(shared_root())).stats()
        assert stats["entries_by_namespace"] == {"lower": 1, "preprocess": 1}
        assert stats["index_cas_retries"] == 0

    def test_eviction_propagates_per_shard(self, shared_root):
        a = ArtifactCache(BlobStore(shared_root()))
        a.put("ir", "victim", "v")
        a.put("lower", "keeper", "k")
        b = ArtifactCache(BlobStore(shared_root()))
        a.evict(a.cache_key("ir", "victim"))
        # Foreign evictions land at b's next merge boundary (entries(),
        # stats, any save) — same contract as the monolithic index.
        assert a.cache_key("ir", "victim") not in b.entries()
        assert b.get("ir", "victim") is None
        assert b.get("lower", "keeper") is not None


class TestImportWithShards:
    def test_sharded_archive_round_trip(self, tmp_path):
        from repro.store import export_store, import_store
        src = file_cache(tmp_path, name="src")
        src.put("preprocess", "p", "vp")
        src.put("lower", "l", "vl")
        src.pin("image/app", src.store.put("manifest"))
        archive = str(tmp_path / "sharded.tar.gz")
        export_store(FileBackend(tmp_path / "src"), archive)
        import_store(FileBackend(tmp_path / "dst"), archive)
        warm = file_cache(tmp_path, name="dst")
        assert warm.get("preprocess", "p").payload == "vp"
        assert warm.get("lower", "l").payload == "vl"
        assert list(warm.pins()) == ["image/app"]

    def test_imported_entries_enter_lru_as_newest_globally(self, tmp_path):
        """Cross-shard seq floor: imported entries must not undercut a
        locally hot entry in *another* namespace."""
        from repro.store import export_store, import_store
        src = file_cache(tmp_path, name="src")
        src.put("preprocess", "imported", "vi")
        archive = str(tmp_path / "a.tar.gz")
        export_store(FileBackend(tmp_path / "src"), archive)

        dst_root = tmp_path / "dst"
        local = ArtifactCache(BlobStore(FileBackend(dst_root)))
        for i in range(20):  # push the `lower` shard's seq high
            local.put("lower", {"i": i}, f"v{i}")
        import_store(FileBackend(dst_root), archive)
        merged = ArtifactCache(BlobStore(FileBackend(dst_root)))
        entries = merged.entries()
        imported_seq = entries[merged.cache_key("preprocess", "imported")].seq
        local_max = max(rec.seq for key, rec in entries.items()
                        if rec.namespace == "lower")
        assert imported_seq > local_max
