"""Backend semantics: memory/file parity, sharded layout, refs, accounting."""

import os
import threading

import pytest

from repro.containers.store import ArtifactCache, BlobStore
from repro.store import (Backend, BackendError, BlobNotFound, FileBackend,
                         MemoryBackend, TieredBackend)
from repro.util.hashing import content_digest


class PrimitivesOnlyBackend(Backend):
    """What a new backend must write and nothing more — here borrowed
    from MemoryBackend, function by function: every batched, metadata and
    streaming operation is the base class's."""

    persistent = True
    __init__ = MemoryBackend.__init__
    put, get, has, delete = (MemoryBackend.put, MemoryBackend.get,
                             MemoryBackend.has, MemoryBackend.delete)
    digests, __len__, total_bytes = (MemoryBackend.digests,
                                     MemoryBackend.__len__,
                                     MemoryBackend.total_bytes)
    set_ref, get_ref, delete_ref, refs, compare_and_set_ref = (
        MemoryBackend.set_ref, MemoryBackend.get_ref,
        MemoryBackend.delete_ref, MemoryBackend.refs,
        MemoryBackend.compare_and_set_ref)


def backends(tmp_path):
    # The tiered compositions run the identical contract: a tier in front
    # of a backend must be observationally equivalent to the backend.
    return [
        MemoryBackend(),
        PrimitivesOnlyBackend(),
        FileBackend(tmp_path / "file-store"),
        TieredBackend(MemoryBackend(), MemoryBackend()),
        TieredBackend(FileBackend(tmp_path / "tier-local"),
                      FileBackend(tmp_path / "tier-upstream")),
    ]


class TestBackendContract:
    """Every backend speaks the same protocol with the same semantics."""

    def test_put_get_has_delete(self, tmp_path):
        for backend in backends(tmp_path):
            digest = content_digest(b"hello")
            assert not backend.has(digest)
            backend.put(digest, b"hello")
            assert backend.has(digest)
            assert backend.get(digest) == b"hello"
            assert backend.delete(digest)
            assert not backend.has(digest)
            assert not backend.delete(digest)  # second delete is a no-op

    def test_get_missing_raises(self, tmp_path):
        for backend in backends(tmp_path):
            with pytest.raises(BlobNotFound):
                backend.get("sha256:" + "0" * 64)

    def test_integrity_checked_on_write(self, tmp_path):
        for backend in backends(tmp_path):
            wrong = content_digest(b"other")
            with pytest.raises(BackendError, match="integrity"):
                backend.put(wrong, b"hello")
            assert not backend.has(wrong)

    def test_total_bytes_is_incremental(self, tmp_path):
        for backend in backends(tmp_path):
            d1 = content_digest(b"aaaa")
            d2 = content_digest(b"bb")
            backend.put(d1, b"aaaa")
            backend.put(d1, b"aaaa")  # idempotent: no double counting
            backend.put(d2, b"bb")
            assert backend.total_bytes == 6
            assert len(backend) == 2
            backend.delete(d1)
            assert backend.total_bytes == 2
            assert len(backend) == 1

    def test_digests_enumerates_blobs(self, tmp_path):
        for backend in backends(tmp_path):
            digests = {content_digest(payload)
                       for payload in (b"x", b"y", b"z")}
            for payload in (b"x", b"y", b"z"):
                backend.put(content_digest(payload), payload)
            assert set(backend.digests()) == digests

    def test_refs_are_mutable_named_state(self, tmp_path):
        for backend in backends(tmp_path):
            assert backend.get_ref("artifact-index") is None
            backend.set_ref("artifact-index", b"v1")
            backend.set_ref("pins", b"{}")
            assert backend.get_ref("artifact-index") == b"v1"
            backend.set_ref("artifact-index", b"v2")  # refs may be rewritten
            assert backend.get_ref("artifact-index") == b"v2"
            assert set(backend.refs()) == {"artifact-index", "pins"}
            assert backend.delete_ref("pins")
            assert not backend.delete_ref("pins")
            assert set(backend.refs()) == {"artifact-index"}

    def test_ref_names_may_contain_slashes(self, tmp_path):
        for backend in backends(tmp_path):
            backend.set_ref("image/lulesh", b"d")
            assert backend.get_ref("image/lulesh") == b"d"
            assert "image/lulesh" in backend.refs()

    def test_malformed_digest_is_graceful_everywhere(self, tmp_path):
        """A digest without a ':' (or otherwise malformed) must never leak
        an IndexError: get raises BlobNotFound, has/delete report False."""
        for backend in backends(tmp_path):
            for bad in ("nocolon", "sha256:short", "sha256:", "md5:" + "0" * 64,
                        "sha256:" + "g" * 64):
                with pytest.raises(BlobNotFound):
                    backend.get(bad)
                assert backend.has(bad) is False
                assert backend.delete(bad) is False

    def test_derived_ops_need_only_the_primitives(self, tmp_path):
        """Batched, metadata and streaming operations answer the same on
        every backend — inherited from the base class or native."""
        missing = "sha256:" + "f" * 64
        for backend in backends(tmp_path):
            blobs = {content_digest(p): p for p in (b"alpha", b"be")}
            backend.put_many(blobs)
            wanted = list(blobs) + [missing]
            assert backend.get_many(wanted) == blobs
            assert backend.has_many(wanted) == \
                {**dict.fromkeys(blobs, True), missing: False}
            assert backend.blob_size_many(wanted) == \
                {**{d: len(p) for d, p in blobs.items()}, missing: None}
            assert backend.blob_size(missing) is None
            assert backend.blob_age_seconds(missing) is None
            assert backend.stat() == (2, 7)
            streamed = content_digest(b"streamed")
            writer = backend.open_blob_writer(streamed)
            writer.write(b"stre")
            writer.write(b"amed")
            writer.commit()
            with backend.open_blob(streamed) as fh:
                assert fh.read() == b"streamed"

    def test_a_primitives_only_backend_is_abstract_until_complete(self):
        class Partial(Backend):
            persistent = False

        with pytest.raises(TypeError):
            Partial()

    def test_gc_collects_through_inherited_ops(self):
        """GC prices and sweeps (get_many, blob_size_many, stat) against
        a backend that wrote only the primitives; with no age data every
        blob is young under a grace window and none is deleted."""
        cache = ArtifactCache(BlobStore(PrimitivesOnlyBackend()))
        for i in range(5):
            cache.put("ns", {"i": i}, f"payload-{i}-" + "y" * 40)
        assert cache.gc(100, grace_seconds=60).deleted_blobs == 0
        report = cache.gc(100)
        assert report.within_budget
        assert report.deleted_blobs > 0


class TestCompareAndSetRef:
    """The CAS primitive every multi-writer loop is built on."""

    def test_create_if_absent(self, tmp_path):
        for backend in backends(tmp_path):
            assert backend.compare_and_set_ref("r", None, b"v1")
            assert backend.get_ref("r") == b"v1"
            # A second expected-absent swap must lose: the ref now exists.
            assert not backend.compare_and_set_ref("r", None, b"v2")
            assert backend.get_ref("r") == b"v1"

    def test_swap_requires_current_value(self, tmp_path):
        for backend in backends(tmp_path):
            backend.set_ref("r", b"v1")
            assert not backend.compare_and_set_ref("r", b"stale", b"v2")
            assert backend.get_ref("r") == b"v1"
            assert backend.compare_and_set_ref("r", b"v1", b"v2")
            assert backend.get_ref("r") == b"v2"

    def test_expected_none_on_deleted_ref(self, tmp_path):
        for backend in backends(tmp_path):
            backend.set_ref("r", b"v1")
            backend.delete_ref("r")
            assert not backend.compare_and_set_ref("r", b"v1", b"v2")
            assert backend.compare_and_set_ref("r", None, b"v2")

    def test_exactly_one_racing_writer_wins(self, tmp_path):
        """N threads CAS from the same snapshot; exactly one may succeed."""
        for backend in backends(tmp_path):
            backend.set_ref("r", b"base")
            wins = []

            def attempt(i):
                if backend.compare_and_set_ref("r", b"base", b"w%d" % i):
                    wins.append(i)

            threads = [threading.Thread(target=attempt, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(wins) == 1
            assert backend.get_ref("r") == b"w%d" % wins[0]

    def test_cas_is_cross_process_on_file_backend(self, tmp_path):
        """Two handles on one directory model two processes: a swap through
        one invalidates the other's snapshot."""
        root = tmp_path / "shared"
        a, b = FileBackend(root), FileBackend(root)
        assert a.compare_and_set_ref("idx", None, b"from-a")
        assert not b.compare_and_set_ref("idx", None, b"from-b")
        assert b.compare_and_set_ref("idx", b"from-a", b"from-b")
        assert a.get_ref("idx") == b"from-b"

    def test_merge_loop_retries_short_circuits_and_gives_up(self):
        """`cas_merge_ref`, the loop every shared ref is rewritten by."""
        from repro.store.backend import CAS_ATTEMPTS, cas_merge_ref

        class LosesTheFirstSwaps(MemoryBackend):
            swaps = 0

            def compare_and_set_ref(self, name, expected, data):
                self.swaps += 1
                return self.swaps > self.lost and \
                    super().compare_and_set_ref(name, expected, data)

        backend, retries = LosesTheFirstSwaps(), []
        backend.lost = 2
        assert cas_merge_ref(backend, "r", lambda raw: (raw or b"") + b"x",
                             lambda: retries.append(1))
        assert (backend.get_ref("r"), len(retries)) == (b"x", 2)
        # Merging to the bytes already there skips the swap; None abandons.
        assert cas_merge_ref(backend, "r", lambda raw: raw)
        assert not cas_merge_ref(backend, "r", lambda raw: None)
        assert backend.swaps == 3
        backend.lost = 10 ** 6
        with pytest.raises(BackendError, match="did not converge"):
            cas_merge_ref(backend, "r", lambda raw: raw + b"y")
        assert backend.swaps == 3 + CAS_ATTEMPTS


class TestRefNameEscaping:
    """_ref_path/refs() must round-trip any name — including names that
    contain the escape sequences themselves."""

    ADVERSARIAL = ["a/b", "a%2fb", "%2f", "%", "%%", "%25", "%252f",
                   ".hidden", ".tmp-x", "a.b", "a/b/c", "a%/b.", "%2e"]

    def test_adversarial_names_round_trip(self, tmp_path):
        backend = FileBackend(tmp_path / "store")
        for i, name in enumerate(self.ADVERSARIAL):
            backend.set_ref(name, b"v%d" % i)
        assert sorted(backend.refs()) == sorted(self.ADVERSARIAL)
        for i, name in enumerate(self.ADVERSARIAL):
            assert backend.get_ref(name) == b"v%d" % i, name
            assert backend.delete_ref(name)
        assert backend.refs() == []

    def test_distinct_names_never_collide(self, tmp_path):
        """'a%2fb' and 'a/b' are different refs and must stay different."""
        backend = FileBackend(tmp_path / "store")
        backend.set_ref("a/b", b"slash")
        backend.set_ref("a%2fb", b"literal")
        assert backend.get_ref("a/b") == b"slash"
        assert backend.get_ref("a%2fb") == b"literal"

    def test_property_any_name_round_trips(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        names = st.lists(
            st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                    min_size=1, max_size=40),
            min_size=1, max_size=8, unique=True)

        @hypothesis.given(names=names)
        @hypothesis.settings(max_examples=60, deadline=None)
        def round_trips(names):
            backend = FileBackend(tmp_path / "prop-store")
            try:
                for name in names:
                    backend.set_ref(name, name.encode("utf-8"))
                assert sorted(backend.refs()) == sorted(names)
                for name in names:
                    assert backend.get_ref(name) == name.encode("utf-8")
            finally:
                for name in names:
                    backend.delete_ref(name)

        round_trips()


class TestFileBackend:
    def test_sharded_object_layout(self, tmp_path):
        backend = FileBackend(tmp_path / "store")
        digest = backend_put = content_digest(b"payload")
        backend.put(digest, b"payload")
        hexpart = backend_put.split(":", 1)[1]
        expected = tmp_path / "store" / "objects" / hexpart[:2] / hexpart[2:]
        assert expected.is_file()
        assert expected.read_bytes() == b"payload"

    def test_reopen_recovers_state_and_accounting(self, tmp_path):
        backend = FileBackend(tmp_path / "store")
        d1 = content_digest(b"persisted")
        backend.put(d1, b"persisted")
        backend.set_ref("artifact-index", b"{}")

        reopened = FileBackend(tmp_path / "store")
        assert reopened.get(d1) == b"persisted"
        assert reopened.total_bytes == len(b"persisted")
        assert len(reopened) == 1
        assert reopened.get_ref("artifact-index") == b"{}"

    def test_no_temp_files_left_behind(self, tmp_path):
        backend = FileBackend(tmp_path / "store")
        backend.put(content_digest(b"data"), b"data")
        backend.set_ref("r", b"v")
        leftovers = [p for p, _, files in os.walk(tmp_path) for f in files
                     if f.startswith(".tmp-")]
        assert leftovers == []

    def test_shard_directory_is_created_once_not_per_write(
            self, tmp_path, monkeypatch):
        backend = FileBackend(tmp_path / "store")
        created = []
        real_makedirs = os.makedirs

        def counting_makedirs(path, *args, **kwargs):
            created.append(os.fspath(path))
            return real_makedirs(path, *args, **kwargs)

        monkeypatch.setattr(os, "makedirs", counting_makedirs)
        payloads = [f"blob-{i}".encode() for i in range(600)]
        backend.put_many({content_digest(p): p for p in payloads[:300]})
        for payload in payloads[300:]:
            backend.put(content_digest(payload), payload)
        backend.set_ref("r", b"v")
        shards = {content_digest(p).split(":", 1)[1][:2] for p in payloads}
        # 600 blobs over at most 256 shards: many writes find theirs made.
        assert len(payloads) > len(shards)
        assert sorted(created) == sorted(
            str(tmp_path / "store" / "objects" / shard) for shard in shards)
        assert len(backend) == len(payloads)

    def test_concurrent_puts_are_safe(self, tmp_path):
        backend = FileBackend(tmp_path / "store")
        payloads = [f"blob-{i}".encode() for i in range(32)]

        def put_all():
            for payload in payloads:
                backend.put(content_digest(payload), payload)

        threads = [threading.Thread(target=put_all) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(backend) == len(payloads)
        assert backend.total_bytes == sum(len(p) for p in payloads)

    def test_counters_track_second_handle_mutations(self, tmp_path):
        """Two handles on one store (== two processes): puts and deletes
        through either handle must be visible in both handles' accounting,
        or `cache stats` and GC budgets lie."""
        root = tmp_path / "shared"
        ours, theirs = FileBackend(root), FileBackend(root)
        d1, d2 = content_digest(b"aaaa"), content_digest(b"bb")
        theirs.put(d1, b"aaaa")
        assert ours.total_bytes == 4
        assert len(ours) == 1
        ours.put(d2, b"bb")  # our own mutation must not trigger bad counts
        assert ours.total_bytes == 6 and theirs.total_bytes == 6
        theirs.delete(d1)
        assert ours.total_bytes == 2
        assert len(ours) == 1
        assert len(theirs) == 1

    def test_counters_survive_interleaved_writers(self, tmp_path):
        root = tmp_path / "shared"
        handles = [FileBackend(root) for _ in range(3)]
        payloads = [f"w{i}-{j}".encode() for i in range(3) for j in range(5)]
        for i, payload in enumerate(payloads):
            handles[i % 3].put(content_digest(payload), payload)
        expected = sum(len(p) for p in payloads)
        for handle in handles:
            assert handle.total_bytes == expected
            assert len(handle) == len(payloads)


class TestBlobStoreOverBackends:
    """BlobStore call sites are backend-agnostic (the tentpole's layering)."""

    def test_default_is_memory(self):
        store = BlobStore()
        assert isinstance(store.backend, MemoryBackend)

    def test_delete_primitive(self, tmp_path):
        for backend in backends(tmp_path):
            store = BlobStore(backend)
            digest = store.put("to be deleted")
            assert store.delete(digest)
            assert not store.has(digest)
            assert not store.delete(digest)

    def test_total_bytes_tracks_deletes(self, tmp_path):
        store = BlobStore(FileBackend(tmp_path / "store"))
        d1 = store.put("abc")
        store.put("defg")
        assert store.total_bytes == 7
        store.delete(d1)
        assert store.total_bytes == 4

    def test_copy_blob_across_backend_kinds(self, tmp_path):
        src = BlobStore(MemoryBackend())
        dst = BlobStore(FileBackend(tmp_path / "store"))
        digest = src.put("shared artifact")
        src.copy_blob(digest, dst)
        assert dst.get_text(digest) == "shared artifact"
