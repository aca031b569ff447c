"""LRU garbage collection: budgets, eviction order, pin protection."""

import json
import os

import pytest

from repro.containers.store import ArtifactCache, BlobStore
from repro.store import FileBackend, MemoryBackend


def fill(cache: ArtifactCache, n: int, size: int = 100) -> list[str]:
    """Publish n distinct entries of ~size bytes; returns their keys in
    publish (== recency) order, oldest first."""
    keys = []
    for i in range(n):
        payload = f"entry-{i}:" + "x" * (size - len(f"entry-{i}:"))
        cache.put("ns", {"i": i}, payload)
        keys.append(cache.cache_key("ns", {"i": i}))
    return keys


class TestCollect:
    def test_bounds_store_to_budget(self):
        cache = ArtifactCache()
        fill(cache, 10, size=100)
        assert cache.store.total_bytes == 1000
        report = cache.gc(450)
        assert report.within_budget
        assert cache.store.total_bytes <= 450
        assert report.freed_bytes >= 550

    def test_evicts_least_recently_used_first(self):
        cache = ArtifactCache()
        fill(cache, 4, size=100)
        cache.get("ns", {"i": 0})  # refresh the oldest entry
        cache.gc(250)
        # i=0 was refreshed; i=1 and i=2 were the LRU victims.
        assert cache.get("ns", {"i": 0}) is not None
        assert cache.get("ns", {"i": 3}) is not None
        assert cache.get("ns", {"i": 1}) is None
        assert cache.get("ns", {"i": 2}) is None

    def test_orphan_blobs_deleted_before_entries(self):
        cache = ArtifactCache()
        cache.store.put("orphan " * 100)  # referenced by nothing
        keys = fill(cache, 2, size=50)
        report = cache.gc(100)
        assert report.within_budget
        # Both entries survived: the orphan alone freed enough.
        assert all(cache.entries().get(k) for k in keys)
        assert report.evicted_entries == 0
        assert report.deleted_blobs == 1

    def test_payload_referenced_blob_freed_with_entry(self):
        """A preprocess-style entry owns a bulk text blob via its payload
        digest; evicting the entry frees the bulk blob too."""
        cache = ArtifactCache()
        bulk = cache.store.put("bulk preprocessed text " * 50)
        cache.put("preprocess", "tu", json.dumps({"text_digest": bulk}))
        assert cache.store.has(bulk)
        report = cache.gc(0)
        assert not cache.store.has(bulk)
        assert report.evicted_entries == 1
        assert ("preprocess", cache.cache_key("preprocess", "tu")) in report.evicted

    def test_shared_blob_survives_partial_eviction(self):
        """Two entries pointing at one payload blob: evicting one must not
        delete the other's data."""
        cache = ArtifactCache()
        cache.put("ns", "a", "shared payload")
        cache.put("ns", "b", "shared payload")  # same digest
        filler = fill(cache, 3, size=200)
        del filler
        cache.get("ns", "b")  # make "a" the LRU of the two
        digest = cache.entries()[cache.cache_key("ns", "a")].digest
        while cache.entries().get(cache.cache_key("ns", "a")) is not None:
            # Tighten until "a" goes; "b" is fresher and must still work.
            cache.gc(cache.store.total_bytes - 1)
        assert cache.store.has(digest)
        assert cache.get("ns", "b").payload == "shared payload"


class TestPinnedManifests:
    def _image_like(self, cache: ArtifactCache) -> tuple[str, list[str]]:
        """A manifest blob referencing layer blobs by digest, OCI-style."""
        layers = [cache.store.put(f"layer-{i} " * 60) for i in range(3)]
        manifest = cache.store.put(json.dumps(
            {"layers": [{"digest": d} for d in layers]}))
        return manifest, layers

    def test_pinned_manifest_closure_never_evicted(self):
        cache = ArtifactCache()
        manifest, layers = self._image_like(cache)
        cache.pin("image/app", manifest)
        fill(cache, 5, size=100)
        report = cache.gc(0)  # impossible budget: everything unpinned goes
        for digest in [manifest, *layers]:
            assert cache.store.has(digest)
        assert not report.within_budget
        assert report.pinned_blobs == 4

    def test_unpinned_manifest_is_collectable(self):
        cache = ArtifactCache()
        manifest, layers = self._image_like(cache)
        cache.pin("image/app", manifest)
        cache.unpin("image/app")
        cache.gc(0)
        assert not cache.store.has(manifest)
        assert not any(cache.store.has(d) for d in layers)

    def test_entry_eviction_spares_pinned_payload(self):
        """An index entry may be evicted while its blob stays pinned."""
        cache = ArtifactCache()
        entry = cache.put("lower", "key", "machine module payload " * 20)
        cache.pin("keep", entry.digest)
        fill(cache, 2, size=300)
        cache.gc(0)
        assert cache.entries().get(cache.cache_key("lower", "key")) is None
        assert cache.store.has(entry.digest)

    def test_gc_stops_once_only_pins_remain(self):
        """When pins exceed the budget, GC must not strip the index for
        zero gain: eviction stops as soon as no bytes can be freed."""
        cache = ArtifactCache()
        manifest, _ = self._image_like(cache)
        cache.pin("image/app", manifest)
        entry = cache.put("ns", "fresh", "v")
        # Make the pinned graph dominate, then ask for an impossible budget.
        report = cache.gc(0)
        assert report.after_bytes > 0
        # The tiny unpinned entry blob was freed; the entry for it is gone,
        # but GC did not loop uselessly once only pinned bytes remained.
        assert not cache.store.has(entry.digest)


class TestGCRacingPublisher:
    """GC concurrent with a publisher: fresh publishes survive the sweep,
    and GC's evictions stick even against writers carrying stale state."""

    def test_publish_after_snapshot_not_swept_as_orphan(self, tmp_path,
                                                        monkeypatch):
        """An entry published between GC's index snapshot and its orphan
        sweep must keep its blobs: the sweep re-reads the live index."""
        backend_dir = tmp_path / "shared"
        collector = ArtifactCache(BlobStore(FileBackend(backend_dir)))
        fill(collector, 3, size=100)
        publisher = ArtifactCache(BlobStore(FileBackend(backend_dir)))

        published = {}
        orig_entries = collector.entries

        def entries_then_publish():
            snapshot = orig_entries()
            bulk = publisher.store.put("fresh bulk text " * 20)
            entry = publisher.put("preprocess", "fresh",
                                  json.dumps({"text_digest": bulk}))
            published.update(digest=entry.digest, bulk=bulk)
            return snapshot

        monkeypatch.setattr(collector, "entries", entries_then_publish)
        collector.gc(100_000)  # generous budget: only the orphan sweep runs
        assert collector.store.has(published["digest"])
        assert collector.store.has(published["bulk"])
        fresh = ArtifactCache(BlobStore(FileBackend(backend_dir)))
        assert fresh.get("preprocess", "fresh") is not None

    def test_eviction_spares_blob_shared_with_fresh_publish(self, tmp_path,
                                                            monkeypatch):
        """Phase-2 eviction drops a snapshot entry's refcounts; if a
        concurrent publish shares the evicted entry's digest, the blob is
        still live and must survive the delete."""
        backend_dir = tmp_path / "shared"
        collector = ArtifactCache(BlobStore(FileBackend(backend_dir)))
        shared_payload = "shared lowered module " * 10
        collector.put("lower", "old-key", shared_payload)  # becomes the LRU
        fill(collector, 3, size=200)
        publisher = ArtifactCache(BlobStore(FileBackend(backend_dir)))

        published = {}
        orig_evict = collector.evict

        def evict_then_publish(key):
            record = orig_evict(key)
            if not published:  # fresh same-digest publish right after evict
                entry = publisher.put("lower", "fresh-key", shared_payload)
                published["digest"] = entry.digest
            return record

        monkeypatch.setattr(collector, "evict", evict_then_publish)
        collector.gc(collector.store.total_bytes - 1)  # evict just the LRU
        assert collector.store.has(published["digest"])
        fresh = ArtifactCache(BlobStore(FileBackend(backend_dir)))
        assert fresh.get("lower", "fresh-key").payload == shared_payload

    def test_grace_window_spares_unindexed_young_blob(self, tmp_path):
        """A publisher writes its blob *before* its index entry; a GC with
        a grace window must not sweep that not-yet-referenced blob."""
        backend_dir = tmp_path / "shared"
        cache = ArtifactCache(BlobStore(FileBackend(backend_dir)))
        in_flight = cache.store.put("blob written, index write still pending")
        report = cache.gc(100_000, grace_seconds=3600)
        assert cache.store.has(in_flight)
        assert report.deleted_blobs == 0
        assert report.grace_seconds == 3600
        # Without the window the same blob is an orphan and is collected.
        assert cache.gc(100_000).deleted_blobs == 1
        assert not cache.store.has(in_flight)

    def test_grace_window_keeps_warm_index_intact(self, tmp_path):
        """When every blob is in grace, eviction can free nothing — GC
        must keep the warm index rather than strip it for zero gain."""
        cache = ArtifactCache(BlobStore(FileBackend(tmp_path / "s")))
        fill(cache, 4, size=100)
        report = cache.gc(0, grace_seconds=3600)
        assert report.evicted_entries == 0
        assert report.deleted_blobs == 0
        assert len(cache.entries()) == 4
        assert not report.within_budget

    def test_gc_eviction_sticks_against_stale_carrier(self, tmp_path):
        """After GC evicts an entry, a writer that still carries it in RAM
        must not resurrect it with its next save."""
        backend_dir = tmp_path / "shared"
        seed = ArtifactCache(BlobStore(FileBackend(backend_dir)))
        fill(seed, 4, size=100)
        victim_key = seed.cache_key("ns", {"i": 0})

        carrier = ArtifactCache(BlobStore(FileBackend(backend_dir)))
        collector = ArtifactCache(BlobStore(FileBackend(backend_dir)))
        report = collector.gc(250)
        assert any(key == victim_key for _ns, key in report.evicted)

        carrier.put("ns", "new-work", "payload")
        final = ArtifactCache(BlobStore(FileBackend(backend_dir)))
        assert final.get("ns", {"i": 0}) is None
        assert final.get("ns", "new-work") is not None


class TestGCOnFileBackend:
    def test_gc_persists_across_reopen(self, tmp_path):
        cache = ArtifactCache(BlobStore(FileBackend(tmp_path / "s")))
        fill(cache, 6, size=100)
        cache.gc(300)
        reopened = ArtifactCache(BlobStore(FileBackend(tmp_path / "s")))
        assert reopened.store.total_bytes <= 300
        assert len(reopened.entries()) == len(cache.entries())

    def test_report_json_is_serializable(self):
        cache = ArtifactCache(BlobStore(MemoryBackend()))
        fill(cache, 3)
        blob = json.loads(json.dumps(cache.gc(150).to_json()))
        assert blob["within_budget"]
        assert blob["evicted_entries"] >= 1


class TestDryRun:
    """`cache gc --dry-run`: the priced plan, with nothing deleted."""

    def test_dry_run_mutates_nothing(self):
        cache = ArtifactCache()
        keys = fill(cache, 10, size=100)
        before_bytes = cache.store.total_bytes
        report = cache.gc(450, dry_run=True)
        assert report.dry_run
        assert cache.store.total_bytes == before_bytes
        assert len(cache.store) == 10
        assert all(cache.entries().get(k) for k in keys)
        # The report still *plans* the eviction a live run would perform.
        assert report.evicted_entries > 0
        assert report.planned_freed_bytes >= 550
        assert report.projected_after_bytes <= 450
        assert report.within_budget

    def test_dry_run_prices_what_a_live_run_frees(self):
        """Plan first, execute second: identical victims, identical bytes."""
        def build():
            cache = ArtifactCache()
            fill(cache, 8, size=100)
            cache.get("ns", {"i": 0})  # same recency shape both times
            return cache

        planned = build().gc(300, dry_run=True)
        executed = build().gc(300)
        assert planned.evicted == executed.evicted
        assert planned.deleted_blobs == executed.deleted_blobs
        assert planned.planned_freed_bytes == executed.freed_bytes
        assert planned.projected_after_bytes == executed.after_bytes

    def test_dry_run_reports_per_namespace_totals(self):
        cache = ArtifactCache()
        cache.put("preprocess", "a", "p" * 300)
        cache.put("lower", "b", "l" * 200)
        cache.store.put("orphan " * 20)
        report = cache.gc(0, dry_run=True)
        by_ns = report.by_namespace
        assert by_ns["preprocess"]["entries"] == 1
        assert by_ns["preprocess"]["bytes"] == 300
        assert by_ns["lower"]["bytes"] == 200
        assert by_ns["(orphan)"]["blobs"] == 1
        # Every planned deletion is itemized with its byte cost.
        assert sum(d["bytes"] for d in report.deletions) == \
            report.planned_freed_bytes

    def test_dry_run_respects_pins(self):
        cache = ArtifactCache()
        entry = cache.put("ns", "precious", "irreplaceable " * 30)
        cache.pin("keep", entry.digest)
        fill(cache, 3, size=100)
        report = cache.gc(0, dry_run=True)
        assert all(d["digest"] != entry.digest for d in report.deletions)
        assert not report.within_budget  # pinned bytes alone bust the budget

    def test_dry_run_on_file_backend(self, tmp_path):
        cache = ArtifactCache(BlobStore(FileBackend(str(tmp_path / "s"))))
        fill(cache, 5, size=100)
        report = cache.gc(200, dry_run=True)
        assert report.dry_run and report.evicted_entries > 0
        # Nothing was deleted on disk; a fresh handle still sees it all.
        fresh = ArtifactCache(BlobStore(FileBackend(str(tmp_path / "s"))))
        assert len(fresh.entries()) == 5

    def test_live_run_carries_the_same_plan_fields(self):
        cache = ArtifactCache()
        fill(cache, 6, size=100)
        report = cache.gc(250)
        assert not report.dry_run
        assert report.planned_freed_bytes == report.freed_bytes
        assert report.by_namespace["ns"]["entries"] == report.evicted_entries


def _age_blob(cache: ArtifactCache, digest: str, seconds: float) -> None:
    """Backdate a blob's stored-at clock — the one blob_age_seconds reads."""
    backend = cache.store.backend
    if isinstance(backend, FileBackend):
        path = backend._blob_path(digest)
        stat = os.stat(path)
        os.utime(path, (stat.st_atime - seconds, stat.st_mtime - seconds))
    else:
        backend._created[digest] -= seconds


HUGE = 2 ** 62  # effectively no byte budget: isolates the TTL phase


class TestTTL:
    """`cache gc --max-age-seconds`: expiry by blob age, independent of
    the byte budget, priced in dry runs like everything else."""

    def test_expires_old_entries_keeps_young_ones(self):
        cache = ArtifactCache()
        keys = fill(cache, 5, size=100)
        for key in keys[:2]:
            _age_blob(cache, cache.entries()[key].digest, 7200)
        report = cache.gc(HUGE, max_age_seconds=3600)
        assert report.expired_entries == 2
        assert report.evicted_entries == 0  # budget was infinite
        assert {key for _ns, key in report.expired} == set(keys[:2])
        assert cache.get("ns", {"i": 0}) is None
        assert cache.get("ns", {"i": 1}) is None
        for i in range(2, 5):
            assert cache.get("ns", {"i": i}) is not None
        # The expired entries' blobs were actually freed.
        assert cache.store.total_bytes == 300

    def test_expiry_ignores_byte_budget(self):
        """TTL fires even when the store is comfortably under budget —
        it bounds the store in *time*, not bytes."""
        cache = ArtifactCache()
        keys = fill(cache, 3, size=100)
        _age_blob(cache, cache.entries()[keys[0]].digest, 100.0)
        report = cache.gc(HUGE, max_age_seconds=50.0)
        assert report.within_budget
        assert report.expired_entries == 1

    def test_no_ttl_means_no_expiry(self):
        cache = ArtifactCache()
        keys = fill(cache, 3, size=100)
        _age_blob(cache, cache.entries()[keys[0]].digest, 7200)
        report = cache.gc(HUGE)
        assert report.expired_entries == 0
        assert report.max_age_seconds is None
        assert len(cache.entries()) == 3

    def test_dry_run_prices_expiry_without_deleting(self):
        def build():
            cache = ArtifactCache()
            keys = fill(cache, 4, size=100)
            for key in keys[:2]:
                _age_blob(cache, cache.entries()[key].digest, 7200)
            return cache

        planning = build()
        plan = planning.gc(HUGE, dry_run=True, max_age_seconds=3600)
        assert plan.expired_entries == 2
        assert plan.planned_freed_bytes == 200
        assert len(planning.entries()) == 4  # nothing touched
        assert planning.store.total_bytes == 400
        # The live run does exactly what the plan priced.
        executed = build().gc(HUGE, max_age_seconds=3600)
        assert executed.expired == plan.expired
        assert executed.freed_bytes == plan.planned_freed_bytes

    def test_expired_blob_shared_with_young_entry_survives(self):
        cache = ArtifactCache()
        cache.put("ns", "old", "shared payload")
        cache.put("ns", "young", "shared payload")  # same digest
        digest = cache.entries()[cache.cache_key("ns", "old")].digest
        # Age the *entry* via recency but the blob is shared and the
        # young entry still references it after the old one expires.
        # (blob age is per-digest, so expire by re-publishing "old"
        # under its own distinct payload instead)
        cache.put("ns", "old", "old distinct payload")
        old_digest = cache.entries()[cache.cache_key("ns", "old")].digest
        _age_blob(cache, old_digest, 7200)
        report = cache.gc(HUGE, max_age_seconds=3600)
        assert report.expired_entries == 1
        assert cache.store.has(digest)
        assert cache.get("ns", "young").payload == "shared payload"

    def test_expired_pinned_payload_blob_survives(self):
        cache = ArtifactCache()
        entry = cache.put("ns", "precious", "irreplaceable " * 10)
        cache.pin("keep", entry.digest)
        _age_blob(cache, entry.digest, 7200)
        report = cache.gc(HUGE, max_age_seconds=3600)
        # The index entry expires, but the pinned blob keeps its bytes.
        assert report.expired_entries == 1
        assert cache.store.has(entry.digest)

    def test_ttl_then_lru_do_not_double_evict(self):
        """Combined sweep: expired keys are not revisited by the LRU
        phase, and the LRU phase makes up the remaining budget."""
        cache = ArtifactCache()
        keys = fill(cache, 6, size=100)
        for key in keys[:2]:
            _age_blob(cache, cache.entries()[key].digest, 7200)
        report = cache.gc(200, max_age_seconds=3600)
        assert report.expired_entries == 2
        assert report.evicted_entries >= 2  # LRU finished the job
        expired = {key for _ns, key in report.expired}
        evicted = {key for _ns, key in report.evicted}
        assert not expired & evicted
        assert cache.store.total_bytes <= 200

    def test_ttl_on_file_backend_uses_mtime(self, tmp_path):
        cache = ArtifactCache(BlobStore(FileBackend(tmp_path / "s")))
        keys = fill(cache, 3, size=100)
        _age_blob(cache, cache.entries()[keys[0]].digest, 7200)
        report = cache.gc(HUGE, max_age_seconds=3600)
        assert report.expired_entries == 1
        fresh = ArtifactCache(BlobStore(FileBackend(tmp_path / "s")))
        assert fresh.get("ns", {"i": 0}) is None
        assert fresh.get("ns", {"i": 1}) is not None

    def test_negative_ttl_rejected(self):
        with pytest.raises(ValueError):
            ArtifactCache().gc(HUGE, max_age_seconds=-1)

    def test_report_json_carries_ttl_fields(self):
        cache = ArtifactCache()
        keys = fill(cache, 2, size=100)
        _age_blob(cache, cache.entries()[keys[0]].digest, 7200)
        blob = json.loads(json.dumps(
            cache.gc(HUGE, max_age_seconds=3600).to_json()))
        assert blob["max_age_seconds"] == 3600
        assert blob["expired_entries"] == 1
        assert blob["expired"][0]["key"] == keys[0]
