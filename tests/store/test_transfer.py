"""Store export/import: archives move warm caches between machines."""

from repro.containers.store import ArtifactCache, BlobStore
from repro.store import FileBackend, MemoryBackend, export_store, import_store


def warm_cache(backend) -> ArtifactCache:
    cache = ArtifactCache(BlobStore(backend))
    cache.put("preprocess", "a", "payload-a")
    cache.put("ir", "b", "module @m\n")
    cache.pin("image/app", cache.store.put("manifest blob"))
    return cache


class TestExportImport:
    def test_adversarial_ref_names_survive_archives(self, tmp_path):
        """'a/b' and 'a%2fb' are distinct refs and must stay distinct
        through an export/import round trip (same escaping as on disk)."""
        src = MemoryBackend()
        for name in ("a/b", "a%2fb", "%", ".odd"):
            src.set_ref(name, name.encode())
        archive = str(tmp_path / "refs.tar.gz")
        export_store(src, archive)
        dst = MemoryBackend()
        import_store(dst, archive)
        assert sorted(dst.refs()) == sorted(["a/b", "a%2fb", "%", ".odd"])
        for name in ("a/b", "a%2fb", "%", ".odd"):
            assert dst.get_ref(name) == name.encode()

    def test_import_races_concurrent_publisher(self, tmp_path):
        """An import landing while a builder publishes must keep both the
        archive's entries and the builder's — the merge goes through CAS."""
        from repro.store import INDEX_REF_PREFIX
        src = FileBackend(tmp_path / "src")
        warm_cache(src)
        archive = str(tmp_path / "store.tar.gz")
        export_store(src, archive)

        dst = FileBackend(tmp_path / "dst")
        builder = ArtifactCache(BlobStore(FileBackend(tmp_path / "dst")))

        class RacingBackend:
            """dst, but a builder publish lands between import's index
            read and its write — the blind-set_ref lost-write window."""

            persistent = True

            def __init__(self, inner):
                self._inner = inner
                self._fired = False

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def __len__(self):
                return len(self._inner)

            def compare_and_set_ref(self, name, expected, data):
                if name.startswith(INDEX_REF_PREFIX) and not self._fired:
                    self._fired = True
                    builder.put("ir", "live-work", "fresh payload")
                return self._inner.compare_and_set_ref(name, expected, data)

            def set_ref(self, name, data):
                if name.startswith(INDEX_REF_PREFIX) and not self._fired:
                    self._fired = True
                    builder.put("ir", "live-work", "fresh payload")
                self._inner.set_ref(name, data)

        import_store(RacingBackend(dst), archive)
        merged = ArtifactCache(BlobStore(FileBackend(tmp_path / "dst")))
        assert merged.get("ir", "live-work").payload == "fresh payload"
        assert merged.get("preprocess", "a").payload == "payload-a"
    def test_round_trip_preserves_blobs_refs_and_index(self, tmp_path):
        src = FileBackend(tmp_path / "src")
        warm_cache(src)
        archive = str(tmp_path / "store.tar.gz")
        summary = export_store(src, archive)
        assert summary["blobs"] == 3

        dst = FileBackend(tmp_path / "dst")
        result = import_store(dst, archive)
        assert result["blobs_added"] == 3

        imported = ArtifactCache(BlobStore(dst))
        assert imported.get("preprocess", "a").payload == "payload-a"
        assert imported.get("ir", "b").payload == "module @m\n"
        assert list(imported.pins()) == ["image/app"]

    def test_import_is_idempotent(self, tmp_path):
        src = FileBackend(tmp_path / "src")
        warm_cache(src)
        archive = str(tmp_path / "store.tar.gz")
        export_store(src, archive)
        dst = FileBackend(tmp_path / "dst")
        import_store(dst, archive)
        again = import_store(dst, archive)
        assert again["blobs_added"] == 0
        assert again["blobs_skipped"] == 3

    def test_import_merges_into_existing_index(self, tmp_path):
        """Importing must not clobber entries the destination already has —
        local entries stay, unseen ones are adopted behind them in LRU
        order."""
        src = FileBackend(tmp_path / "src")
        warm_cache(src)
        archive = str(tmp_path / "store.tar.gz")
        export_store(src, archive)

        dst_backend = FileBackend(tmp_path / "dst")
        local = ArtifactCache(BlobStore(dst_backend))
        local.put("lower", "mine", "local payload")
        import_store(dst_backend, archive)

        merged = ArtifactCache(BlobStore(dst_backend))
        assert merged.get("lower", "mine").payload == "local payload"
        assert merged.get("preprocess", "a").payload == "payload-a"
        entries = merged.entries()
        local_seq = entries[merged.cache_key("lower", "mine")].seq
        imported_seq = entries[merged.cache_key("preprocess", "a")].seq
        assert imported_seq > local_seq  # imported entries enter as newest

    def test_export_is_deterministic(self, tmp_path):
        backend = FileBackend(tmp_path / "src")
        warm_cache(backend)
        a, b = str(tmp_path / "a.tar.gz"), str(tmp_path / "b.tar.gz")
        export_store(backend, a)
        export_store(backend, b)
        # Same store -> byte-identical archive contents (member order and
        # mtimes are pinned); only gzip's embedded mtime could differ, so
        # compare the decompressed streams.
        import gzip
        assert gzip.open(a).read() == gzip.open(b).read()

    def test_memory_to_file_transfer(self, tmp_path):
        mem = MemoryBackend()
        cache = warm_cache(mem)
        # In-memory caches skip per-op index writes; flush before export.
        cache.flush_index()
        archive = str(tmp_path / "store.tar.gz")
        export_store(mem, archive)
        dst = FileBackend(tmp_path / "dst")
        import_store(dst, archive)
        assert ArtifactCache(BlobStore(dst)).get("ir", "b") is not None
