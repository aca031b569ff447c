"""Per-namespace index shards: layout, format and contention.

The ArtifactCache persists its index as one ref per namespace
(``artifact-index/<ns>``): writers in different namespaces CAS different
refs (zero retries) and payloads are O(namespace) — a 16-byte header and
72 bytes per entry. The bare ``artifact-index`` ref of the pre-sharding
layout is outside input: a cache ignores it, an import rejects it. A
shard in any other format reads as empty.
"""

import json

import pytest

from repro.cli import main
from repro.containers.store import ArtifactCache, BlobStore
from repro.store import (
    INDEX_REF_PREFIX,
    PINS_REF,
    ArtifactIndex,
    AsyncStoreServer,
    BackendError,
    FileBackend,
    MemoryBackend,
    RemoteBackend,
    index_ref_name,
    index_ref_names,
)
from repro.store import index as index_module
from repro.store.index import parse_shard, render_shard, stored_rows
from repro.util.hashing import canonical_json, content_digest

#: A shard's header and one row, in bytes.
HEADER_BYTES, ROW_BYTES = 16, 72

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
        entries = parse_shard(raw, "lower")[1]
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
    rows = list(stored_rows(backend))
    for ref in index_ref_names(backend):
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


class TestShardFormat:
    def test_a_shard_is_a_header_and_72_bytes_a_row(self, tmp_path):
        cache = file_cache(tmp_path)
        cache.put_many("lower", [({"i": i}, f"l{i}") for i in range(5)])
        raw = cache.store.backend.get_ref(index_ref_name("lower"))
        seq, rows = parse_shard(raw, "lower")
        assert len(rows) == 5
        assert len(raw) == HEADER_BYTES + ROW_BYTES * len(rows)
        assert [row[0] for row in rows] == sorted(cache.entries())
        assert [row[1:] for row in rows] == [
            ["lower", record.digest, record.seq]
            for _key, record in sorted(cache.entries().items())]
        assert render_shard(seq, rows) == raw

    @pytest.mark.parametrize("forge", [
        lambda raw, rows: canonical_json(
            {"version": 1, "seq": 1, "entries": rows}).encode(),
        lambda raw, rows: raw[:-1],
        lambda raw, rows: raw + b"\0",
        lambda raw, rows: b"XIDY" + raw[4:],
        lambda raw, rows: raw[:4] + (3).to_bytes(4, "big") + raw[8:],
        lambda raw, rows: b"",
    ], ids=["json-era", "truncated", "overlong", "magic", "version", "empty"])
    def test_a_foreign_shard_is_a_cache_miss(self, tmp_path, forge):
        """A ref under the prefix that is not in the shard format lists
        nothing: its entries are misses, and the next save replaces it."""
        cache = file_cache(tmp_path)
        cache.put("lower", "l", "v")
        backend = cache.store.backend
        name = index_ref_name("lower")
        raw = backend.get_ref(name)
        backend.set_ref(name, forge(raw, parse_shard(raw, "lower")[1]))
        assert list(stored_rows(backend)) == []
        cold = file_cache(tmp_path)
        assert cold.entries() == {}
        assert cold.get("lower", "l") is None
        cold.put("lower", "l", "v")
        assert backend.get_ref(name) == raw
        assert file_cache(tmp_path).get("lower", "l").payload == "v"

    def test_an_entry_maps_a_digest_to_a_digest(self):
        """A row holds two raw digests: anything else is refused at
        ``set`` rather than packed into something it is not."""
        index = ArtifactIndex(MemoryBackend())
        digest = content_digest("payload")
        for key, payload in (("ir/0", digest), (digest, "blob-1"),
                             (digest.upper(), digest), (digest[:-1], digest)):
            with pytest.raises(ValueError, match="digest"):
                index.set(key, "ir", payload)
        assert len(index) == 0 and not index.dirty


#: A ``deploy`` small enough to run twice in a test.
DEPLOY = ["deploy", "--app", "lulesh", "--system", "ault23", "--mode", "ir",
          "--json"]


def deploy(capsys, root) -> dict:
    assert main([*DEPLOY, "--store", str(root)]) == 0
    return json.loads(capsys.readouterr().out)


def seed_json_era_store(capsys, root) -> tuple[set[str], str]:
    """A store as a writer of JSON shards left it after a ``deploy``: its
    ``configure`` and ``lower`` entries name payloads in codecs no reader
    is kept for (today's payloads, their format renamed to v1), and a pin
    protects one of them. Returns those payloads' digests and the pinned
    one."""
    deploy(capsys, root)
    backend = FileBackend(root)
    store = BlobStore(backend)
    foreign: set[str] = set()
    for name in index_ref_names(backend):
        namespace = name[len(INDEX_REF_PREFIX):]
        seq, rows = parse_shard(backend.get_ref(name), namespace)
        for row in rows:
            if namespace in ("configure", "lower"):
                payload = json.loads(store.get(row[2]))
                payload["format"] = payload["format"].rsplit("-", 1)[0] + "-v1"
                row[2] = store.put(canonical_json(payload))
                foreign.add(row[2])
        backend.set_ref(name, canonical_json(
            {"version": 1, "seq": seq, "entries": rows}).encode())
    pinned = min(foreign)
    pins = json.loads(backend.get_ref(PINS_REF))
    backend.set_ref(PINS_REF, canonical_json(
        {**pins, "old/configuration": pinned}).encode())
    return foreign, pinned


class TestAnOldStoreIsAColdCache:
    """A store written before binary shards — and before the codecs its
    ``configure`` and ``lower`` payloads are in — is a cold cache: its
    JSON shards read as empty, so no old payload is reached through the
    index, a ``deploy`` recomputes, and GC reclaims what only the old
    index named. An old *image* opened with ``--image`` is another
    matter: it names its configuration layer by digest, not through the
    index, and still refuses that layer's foreign codec."""

    def test_a_deploy_on_it_matches_a_fresh_store(self, capsys, tmp_path):
        fresh = deploy(capsys, tmp_path / "fresh")
        seed_json_era_store(capsys, tmp_path / "old")
        again = deploy(capsys, tmp_path / "old")
        assert again["tag"] == fresh["tag"]
        assert again["deploy_cache"] == fresh["deploy_cache"]
        assert again["build_stats"]["cache_hits"] == \
            fresh["build_stats"]["cache_hits"]

    def test_gc_reclaims_the_unindexed_payloads_but_not_a_pinned_one(
            self, capsys, tmp_path):
        root = tmp_path / "old"
        foreign, pinned = seed_json_era_store(capsys, root)
        deploy(capsys, root)
        assert main(["cache", "gc", "--store", str(root), "--max-bytes",
                     str(10 ** 9), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["deleted_blobs"] == len(foreign) - 1
        present = BlobStore(FileBackend(root)).has_many(sorted(foreign))
        assert {d for d, held in present.items() if held} == {pinned}


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


class RacingBackend:
    """A file store on which ``race()`` runs once, just before the first
    index CAS after ``arm()`` — another writer's swap lands in between
    our read and our swap."""

    persistent = True

    def __init__(self, inner):
        self._inner = inner
        self.race = None

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def compare_and_set_ref(self, name, expected, data):
        race, self.race = self.race, None
        if race is not None:
            race()
        return self._inner.compare_and_set_ref(name, expected, data)


class TestASaveMergesOnlyAnotherWritersChange:
    """A handle remembers the shard bytes it last read or wrote; a save
    that re-reads exactly those has nothing to merge and parses nothing.
    Any other bytes — a second handle's publish or eviction, a lost
    swap — are merged as before."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        calls: list[str] = []

        def counting_parse_shard(raw, namespace):
            calls.append(namespace)
            return parse_shard(raw, namespace)

        monkeypatch.setattr(index_module, "parse_shard", counting_parse_shard)
        return calls

    @staticmethod
    def key(name):
        return content_digest(f"key/{name}")

    def stored_keys(self, backend):
        return {row[0] for row in stored_rows(backend)}

    def test_a_save_over_its_own_last_write_does_not_merge(
            self, tmp_path, parsed):
        backend = FileBackend(tmp_path)
        index = ArtifactIndex(backend)
        for name in ("a", "b", "c"):
            index.set(self.key(name), "lower", content_digest(name))
            index.save()
        index.load()  # a reload of its own write parses nothing either
        assert parsed == []
        assert self.stored_keys(backend) == {self.key(n) for n in "abc"}

    def test_a_second_handles_publish_between_our_saves_is_adopted(
            self, tmp_path, parsed):
        backend = FileBackend(tmp_path)
        ours, theirs = ArtifactIndex(backend), ArtifactIndex(backend)
        ours.set(self.key("a"), "lower", content_digest("a"))
        ours.save()
        theirs.load()
        theirs.set(self.key("b"), "lower", content_digest("b"))
        theirs.save()
        ours.set(self.key("c"), "lower", content_digest("c"))
        ours.save()
        assert ours.get(self.key("b")).digest == content_digest("b")
        assert self.stored_keys(backend) == {self.key(n) for n in "abc"}
        assert ours.cas_retries == 0

    def test_a_second_handles_eviction_drops_our_clean_key(
            self, tmp_path, parsed):
        backend = FileBackend(tmp_path)
        dropped: list[str] = []
        ours = ArtifactIndex(backend, on_drop=dropped.append)
        theirs = ArtifactIndex(backend)
        for name in ("a", "b"):
            ours.set(self.key(name), "lower", content_digest(name))
        ours.save()
        theirs.load()
        theirs.evict(self.key("a"))
        theirs.save()
        ours.set(self.key("c"), "lower", content_digest("c"))
        ours.save()
        assert ours.get(self.key("a")) is None
        assert dropped == [self.key("a")]
        assert self.stored_keys(backend) == {self.key("b"), self.key("c")}

    def test_a_lost_swap_rereads_and_merges(self, tmp_path, parsed):
        racing = RacingBackend(FileBackend(tmp_path))
        ours = ArtifactIndex(racing)
        theirs = ArtifactIndex(FileBackend(tmp_path))
        ours.set(self.key("a"), "lower", content_digest("a"))
        ours.save()

        def publish():
            theirs.load()
            theirs.set(self.key("b"), "lower", content_digest("b"))
            theirs.save()

        racing.race = publish
        parsed.clear()
        # The save reads its own last write (no merge), loses the swap to
        # the publish, re-reads and merges it.
        ours.set(self.key("c"), "lower", content_digest("c"))
        ours.save()
        assert ours.cas_retries == 1
        assert parsed == ["lower", "lower"]  # theirs.load(), our re-read
        assert ours.get(self.key("b")).digest == content_digest("b")
        assert self.stored_keys(racing) == {self.key(n) for n in "abc"}


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
