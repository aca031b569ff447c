"""``ArtifactCache.put_many``: a stage's results published as one batch.

The contract is "what the equivalent ``store.put`` + ``put`` sequence
would have left behind, for one backend batch and one index save", so
every test states it against that sequence or against counts of backend
operations — never against a clock. Each runs over the four bundled
backends; on the tiered one the proxies sit on the *shared* side, where
another process would look.
"""

import itertools
import json
import threading

import pytest

from test_persistent_cache import InterposingBackend, _PersistentMemory

from repro.apps import app_model, five_isa_configs
from repro.containers.store import (ArtifactCache, BlobStore,
                                    BULK_FLUSH_EVERY)
from repro.core import build_ir_container
from repro.store import (AsyncStoreServer, FileBackend, MemoryBackend,
                         RemoteBackend, TieredBackend)
from repro.store.index import INDEX_REF_PREFIX, index_ref_name
from repro.store.gc import referenced_digests
from repro.util.hashing import content_digest

NS = "preprocess"
TEXTS = [f"preprocessed text of unit {i}\n" * 20 for i in range(6)]


def payload_for(text: str) -> str:
    return json.dumps({"text_digest": content_digest(text),
                       "has_omp": len(text) % 2 == 0}, sort_keys=True)


def batch(texts=TEXTS):
    return [({"tu": i}, payload_for(text)) for i, text in enumerate(texts)]


class CountingBackend:
    """Forwards everything to ``inner`` and records each call as
    ``(operation, first argument)``."""

    def __init__(self, inner):
        self._inner = inner
        self.calls: list[tuple] = []

    def __len__(self):
        return len(self._inner)

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls.append((name, args[0] if args else None))
            return attr(*args, **kwargs)
        return counted

    def count(self, op):
        return sum(1 for name, _first in self.calls if name == op)


@pytest.fixture(params=["memory", "file", "remote", "tiered"])
def handle(request, tmp_path):
    """``handle(wrap)`` opens one more handle on the test's shared store,
    with ``wrap`` applied where the shared store is reached."""
    root = tmp_path / "shared"
    tiers = itertools.count()
    opened = []

    def same(backend):
        return backend

    if request.param == "remote":
        with AsyncStoreServer(MemoryBackend()) as server:
            def remote(wrap=same):
                opened.append(RemoteBackend(*server.address))
                return wrap(opened[-1])
            yield remote
            for backend in opened:
                backend.close()
        return
    memory = _PersistentMemory()
    yield {
        "memory": lambda wrap=same: wrap(memory),
        "file": lambda wrap=same: wrap(FileBackend(root)),
        "tiered": lambda wrap=same: TieredBackend(
            FileBackend(tmp_path / f"tier-{next(tiers)}"),
            wrap(FileBackend(root))),
    }[request.param]


def counted_handle(handle):
    """A new handle whose shared side is counted: ``(backend, counter)``."""
    counter = CountingBackend(None)

    def wrap(inner):
        counter._inner = inner
        return counter
    return handle(wrap), counter


def lru_view(cache: ArtifactCache) -> list[tuple[str, str, str]]:
    """``(key, namespace, digest)`` in access order, oldest first."""
    return [(key, record.namespace, record.digest) for key, record
            in sorted(cache.entries().items(), key=lambda kv: kv[1].seq)]


class TestSameAsSequentialPublish:
    def test_entries_digests_and_lookups_match(self, handle):
        sequential = ArtifactCache(BlobStore(_PersistentMemory()))
        expected = []
        for text, (parts, payload) in zip(TEXTS, batch()):
            assert sequential.store.put(text) == content_digest(text)
            expected.append(sequential.put(NS, parts, payload))

        cache = ArtifactCache(BlobStore(handle()))
        assert cache.put_many(NS, batch(), blobs=TEXTS) == expected

        fresh = ArtifactCache(BlobStore(handle()))
        assert lru_view(fresh) == lru_view(sequential)
        assert (sorted(fresh.store.backend.digests())
                == sorted(sequential.store.backend.digests()))
        for text, (parts, payload) in zip(TEXTS, batch()):
            assert fresh.get(NS, parts) == sequential.get(NS, parts)
            assert fresh.store.get_text(content_digest(text)) == text
        assert fresh.counters(NS).hits == len(TEXTS)

    def test_key_named_twice_keeps_the_last(self, handle):
        cache = ArtifactCache(BlobStore(handle()))
        entries = cache.put_many(
            NS, [("k", "first"), ("other", "x"), ("k", "second")])
        assert [e.payload for e in entries] == ["first", "x", "second"]
        assert [e.digest for e in entries] == [
            content_digest(p) for p in ("first", "x", "second")]
        fresh = ArtifactCache(BlobStore(handle()))
        assert fresh.get(NS, "k").payload == "second"
        assert len(fresh.entries()) == 2

    def test_republish_replaces_a_stale_live_object(self, handle):
        cache = ArtifactCache(BlobStore(handle()))
        cache.put(NS, "k", "v1", obj=object())
        cache.put_many(NS, [("k", "v2")])
        entry = cache.get(NS, "k")
        assert entry.payload == "v2" and entry.obj is None
        assert cache.get(NS, "k").obj is None

    def test_republish_clears_a_tombstone(self, handle):
        cache = ArtifactCache(BlobStore(handle()))
        cache.put_many(NS, [("k", "v"), ("kept", "w")])
        assert cache.evict(cache.cache_key(NS, "k")) is not None
        assert ArtifactCache(BlobStore(handle())).get(NS, "k") is None
        # The same payload again: the very digest the tombstone records.
        cache.put_many(NS, [("k", "v")])
        assert cache.cache_key(NS, "k") in cache.entries()
        fresh = ArtifactCache(BlobStore(handle()))
        assert fresh.get(NS, "k").payload == "v"
        assert fresh.get(NS, "kept").payload == "w"


class TestOrderingAndRaces:
    def test_blobs_are_stored_before_the_index_names_them(self, handle):
        reader = handle()
        seen = []

        class CheckingBackend(CountingBackend):
            def compare_and_set_ref(self, name, expected, data):
                if name.startswith(INDEX_REF_PREFIX):
                    named = {digest for _key, _ns, digest, _seq
                             in json.loads(data)["entries"]}
                    payloads = reader.get_many(sorted(named))
                    assert set(payloads) == named
                    bulk = set().union(*map(referenced_digests,
                                            payloads.values()))
                    assert all(reader.has_many(sorted(bulk)).values())
                    seen.append((len(named), len(bulk)))
                return self._inner.compare_and_set_ref(name, expected, data)

        cache = ArtifactCache(BlobStore(handle(CheckingBackend)))
        cache.put_many(NS, batch(), blobs=TEXTS)
        assert seen == [(len(TEXTS), len(TEXTS))]

    def test_two_racing_batches_both_survive_the_merge(self, handle):
        writer_b = ArtifactCache(BlobStore(handle()))
        theirs = [({"b": i}, f"from-b-{i}") for i in range(4)]

        def b_publishes():
            writer_b.put_many(NS, theirs)

        writer_a = ArtifactCache(BlobStore(handle(
            lambda backend: InterposingBackend(backend, b_publishes))))
        writer_a.put_many(NS, batch(), blobs=TEXTS)  # the race is in here
        assert writer_a.cas_retries >= 1

        fresh = ArtifactCache(BlobStore(handle()))
        assert len(fresh.entries()) == len(TEXTS) + len(theirs)
        for parts, payload in batch() + theirs:
            assert fresh.get(NS, parts).payload == payload

    def test_concurrent_batches_and_single_puts_lose_nothing(self, handle):
        """More writers than cores, each with its own handle, mixing
        batches with single puts on one shard: the CAS merge keeps all."""
        writers, batches, size = 6, 3, 8

        def publish(writer):
            cache = ArtifactCache(BlobStore(handle()))
            for b in range(batches):
                cache.put_many(NS, [((writer, b, i), f"{writer}-{b}-{i}")
                                    for i in range(size)])
                cache.put(NS, (writer, b), f"{writer}-{b}")

        threads = [threading.Thread(target=publish, args=(w,))
                   for w in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)

        fresh = ArtifactCache(BlobStore(handle()))
        assert len(fresh.entries()) == writers * batches * (size + 1)
        for w in range(writers):
            for b in range(batches):
                assert fresh.get(NS, (w, b)).payload == f"{w}-{b}"
                for i in range(size):
                    assert (fresh.get(NS, (w, b, i)).payload
                            == f"{w}-{b}-{i}")


class TestOperationCounts:
    @pytest.mark.parametrize("flush_every", [1, BULK_FLUSH_EVERY])
    def test_one_blob_batch_and_one_index_save(self, handle, flush_every):
        backend, shared = counted_handle(handle)
        cache = ArtifactCache(BlobStore(backend), flush_every=flush_every)
        shared.calls.clear()
        cache.put_many(NS, batch(), blobs=TEXTS)
        assert [ref for op, ref in shared.calls
                if op == "compare_and_set_ref"] == [index_ref_name(NS)]
        assert shared.count("put_many") == 1 and shared.count("put") == 0
        # Durable and visible when the call returns, whatever flush_every.
        assert len(ArtifactCache(BlobStore(handle())).entries()) == len(TEXTS)
        shared.calls.clear()
        cache.flush_index()
        assert shared.count("compare_and_set_ref") == 0

    def test_empty_batch_touches_nothing(self, handle):
        ArtifactCache(BlobStore(handle())).put(NS, "warm", "payload")
        backend, shared = counted_handle(handle)
        cache = ArtifactCache(BlobStore(backend))
        # A hit leaves a dirty LRU bump behind; an empty batch is not the
        # operation boundary that flushes it.
        assert cache.get(NS, "warm").payload == "payload"
        shared.calls.clear()
        assert cache.put_many(NS, []) == []
        assert cache.put_many(NS, iter(()), blobs=iter(())) == []
        assert shared.calls == []

    def test_a_hit_is_one_read_and_a_vanished_blob_is_a_miss(self, handle):
        backend, shared = counted_handle(handle)
        cache = ArtifactCache(BlobStore(backend))
        entry = cache.put(NS, "k", "payload")
        shared.calls.clear()
        assert ArtifactCache(BlobStore(handle())).get(NS, "k") == entry
        assert cache.get(NS, "k") == entry
        assert shared.count("has") == 0
        assert shared.count("get") + shared.count("get_many") <= 1

        assert cache.store.delete(entry.digest)
        misses = cache.counters(NS).misses
        assert cache.get(NS, "k") is None
        assert cache.counters(NS).misses == misses + 1


def test_cold_build_saves_the_preprocess_index_once(tmp_path):
    """The number the batch exists for: a cold ``build_ir_container`` on a
    file store no longer rewrites the ``preprocess`` shard once per
    translation unit."""
    backend = CountingBackend(FileBackend(tmp_path / "store"))
    cache = ArtifactCache(BlobStore(backend))
    result = build_ir_container(app_model("gromacs", scale=0.02),
                                five_isa_configs(), cache=cache)
    assert result.stats.preprocess_ops > 20
    index_cas = [ref for op, ref in backend.calls
                 if op == "compare_and_set_ref"
                 and ref.startswith(INDEX_REF_PREFIX)]
    assert 1 <= index_cas.count(index_ref_name("preprocess")) <= 2
    assert len(index_cas) < result.stats.total_tus
    # ... and a second, fully warm build publishes nothing.
    backend.calls.clear()
    warm = build_ir_container(app_model("gromacs", scale=0.02),
                              five_isa_configs(), cache=cache)
    assert warm.stats.preprocess_ops == 0
    assert backend.count("put_many") == 0
