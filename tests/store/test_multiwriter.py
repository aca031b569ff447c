"""Multi-writer stress: N writers hammer one store, zero lost writes.

This is the paper's fleet-build scenario at its most hostile: many
builders (threads in one process, and genuinely separate processes)
publishing into one shared ``FileBackend`` / ``AsyncStoreServer``
concurrently. Before the CAS retry-merge loop, the access-ordered index
and the pin set were last-writer-wins and these tests lose entries;
with it, every writer's publishes, recency bumps, and pins survive.
"""

import os
import subprocess
import sys
import threading

import repro
from repro.containers.store import ArtifactCache, BlobStore
from repro.store import (FileBackend, MemoryBackend, RemoteBackend,
                         AsyncStoreServer, TieredBackend)

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _publish(cache: ArtifactCache, writer: str, count: int) -> None:
    for i in range(count):
        cache.put("stress", {"writer": writer, "i": i},
                  f"payload-{writer}-{i}")


def _assert_all_present(cache: ArtifactCache, writers: int, count: int,
                        namespace: str = "stress") -> None:
    for w in range(writers):
        for i in range(count):
            entry = cache.get(namespace, {"writer": f"w{w}", "i": i})
            assert entry is not None, f"lost entry: writer w{w}, i={i}"
            assert entry.payload == f"payload-w{w}-{i}"


class TestThreadWriters:
    WRITERS = 6
    PER_WRITER = 12

    def test_file_backend_threads_lose_nothing(self, tmp_path):
        """Each thread gets its own FileBackend handle on one directory —
        the closest in-process model of separate builder processes."""
        root = tmp_path / "shared"
        FileBackend(root)  # create the layout once

        def work(w):
            _publish(ArtifactCache(BlobStore(FileBackend(root))),
                     f"w{w}", self.PER_WRITER)

        threads = [threading.Thread(target=work, args=(w,))
                   for w in range(self.WRITERS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        fresh = ArtifactCache(BlobStore(FileBackend(root)))
        assert len(fresh.entries()) == self.WRITERS * self.PER_WRITER
        _assert_all_present(fresh, self.WRITERS, self.PER_WRITER)

    def test_store_server_threads_lose_nothing(self):
        with AsyncStoreServer(MemoryBackend()) as server:
            def work(w):
                backend = RemoteBackend(*server.address)
                _publish(ArtifactCache(BlobStore(backend)),
                         f"w{w}", self.PER_WRITER)

            threads = [threading.Thread(target=work, args=(w,))
                       for w in range(self.WRITERS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            fresh = ArtifactCache(BlobStore(RemoteBackend(*server.address)))
            assert len(fresh.entries()) == self.WRITERS * self.PER_WRITER
            _assert_all_present(fresh, self.WRITERS, self.PER_WRITER)

    def test_concurrent_pins_lose_nothing(self, tmp_path):
        root = tmp_path / "shared"
        store = BlobStore(FileBackend(root))
        digests = {f"pin-{w}-{i}": store.put(f"manifest-{w}-{i}")
                   for w in range(4) for i in range(5)}

        def work(w):
            cache = ArtifactCache(BlobStore(FileBackend(root)))
            for i in range(5):
                cache.pin(f"pin-{w}-{i}", digests[f"pin-{w}-{i}"])

        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert ArtifactCache(BlobStore(FileBackend(root))).pins() == digests

    def test_writers_racing_gc_lose_no_fresh_publish(self, tmp_path):
        """Publishers race a GC loop running with a grace window: every
        publish must survive with its blob intact."""
        root = tmp_path / "shared"
        FileBackend(root)
        stop = threading.Event()

        def collect_loop():
            cache = ArtifactCache(BlobStore(FileBackend(root)))
            while not stop.is_set():
                cache.gc(10_000_000, grace_seconds=3600)

        collector = threading.Thread(target=collect_loop)
        collector.start()
        try:
            writers = [threading.Thread(
                target=lambda w=w: _publish(
                    ArtifactCache(BlobStore(FileBackend(root))),
                    f"w{w}", self.PER_WRITER))
                for w in range(3)]
            for t in writers:
                t.start()
            for t in writers:
                t.join()
        finally:
            stop.set()
            collector.join()

        fresh = ArtifactCache(BlobStore(FileBackend(root)))
        _assert_all_present(fresh, 3, self.PER_WRITER)


class TestTieredWriters:
    """The same CAS stress with every writer behind its *own* local tier
    — the farm deployment shape. Refs delegate upstream and every ref
    write flushes the write-back queue first, so N tiered writers must
    converge exactly like N flat ones: no lost entries, no index entry
    whose payload blob is missing upstream."""

    WRITERS = 6
    PER_WRITER = 12

    def _stress(self, make_tiered, fresh_backend):
        threads = [threading.Thread(
            target=lambda w=w: _publish(
                ArtifactCache(BlobStore(make_tiered(w))),
                f"w{w}", self.PER_WRITER))
            for w in range(self.WRITERS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        fresh = ArtifactCache(BlobStore(fresh_backend()))
        assert len(fresh.entries()) == self.WRITERS * self.PER_WRITER
        _assert_all_present(fresh, self.WRITERS, self.PER_WRITER)
        # Every published payload must be resolvable from the *flat*
        # upstream — nothing may be stranded in a writer's local tier.
        for entry in fresh.entries().values():
            assert fresh.store.has(entry.digest), \
                f"blob {entry.digest} never flushed upstream"

    def test_file_over_file_tiers_lose_nothing(self, tmp_path):
        root = tmp_path / "shared"
        FileBackend(root)  # create the layout once
        self._stress(
            lambda w: TieredBackend(FileBackend(tmp_path / f"tier-{w}"),
                                    FileBackend(root)),
            lambda: FileBackend(root))

    def test_file_over_remote_tiers_lose_nothing(self, tmp_path):
        with AsyncStoreServer(MemoryBackend()) as server:
            self._stress(
                lambda w: TieredBackend(FileBackend(tmp_path / f"tier-{w}"),
                                        RemoteBackend(*server.address)),
                lambda: RemoteBackend(*server.address))


class TestShardedNamespaces:
    """ISSUE 5 acceptance: writers in *different namespaces* share no
    index ref, so publishing concurrently costs zero CAS retries — on a
    FileBackend and through a AsyncStoreServer alike. The retry counter is
    exposed on ArtifactCache stats."""

    PER_WRITER = 40

    def _race(self, make_backend, namespaces):
        caches = [ArtifactCache(BlobStore(make_backend()))
                  for _ in namespaces]
        barrier = threading.Barrier(len(namespaces))

        def work(cache, namespace):
            barrier.wait()
            for i in range(self.PER_WRITER):
                cache.put(namespace, {"i": i}, f"payload-{namespace}-{i}")

        threads = [threading.Thread(target=work, args=(cache, ns))
                   for cache, ns in zip(caches, namespaces)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return caches

    def _assert_zero_retries(self, caches, make_backend, namespaces):
        for cache, namespace in zip(caches, namespaces):
            assert cache.stats()["index_cas_retries"] == 0, \
                f"writer in {namespace!r} hit index CAS contention"
        fresh = ArtifactCache(BlobStore(make_backend()))
        for namespace in namespaces:
            for i in range(self.PER_WRITER):
                entry = fresh.get(namespace, {"i": i})
                assert entry is not None, f"lost {namespace}/{i}"
                assert entry.payload == f"payload-{namespace}-{i}"

    def test_cross_namespace_zero_cas_retries_file(self, tmp_path):
        root = tmp_path / "shared"
        FileBackend(root)
        namespaces = ("preprocess", "lower")
        caches = self._race(lambda: FileBackend(root), namespaces)
        self._assert_zero_retries(caches, lambda: FileBackend(root),
                                  namespaces)

    def test_cross_namespace_zero_cas_retries_server(self):
        with AsyncStoreServer(MemoryBackend()) as server:
            make = lambda: RemoteBackend(*server.address)  # noqa: E731
            namespaces = ("preprocess", "lower")
            caches = self._race(make, namespaces)
            self._assert_zero_retries(caches, make, namespaces)


_WORKER = """
import sys
from repro.containers.store import ArtifactCache, BlobStore
from repro.store import FileBackend, RemoteBackend

kind, target, writer, count = sys.argv[1:5]
if kind == "file":
    backend = FileBackend(target)
else:
    host, port = target.split(":")
    backend = RemoteBackend(host, int(port))
cache = ArtifactCache(BlobStore(backend))
for i in range(int(count)):
    cache.put("stress", {"writer": writer, "i": i},
              f"payload-{writer}-{i}")
cache.pin(f"pin/{writer}", cache.store.put(f"manifest-{writer}"))
"""


def _run_workers(kind: str, target: str, writers: int, count: int) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    procs = [subprocess.Popen(
        [sys.executable, "-c", _WORKER, kind, target, f"w{w}", str(count)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for w in range(writers)]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()


class TestProcessWriters:
    """The real thing: separate interpreters, one store."""

    WRITERS = 4
    PER_WRITER = 8

    def test_processes_on_one_file_backend(self, tmp_path):
        root = str(tmp_path / "shared")
        FileBackend(root)
        _run_workers("file", root, self.WRITERS, self.PER_WRITER)

        fresh = ArtifactCache(BlobStore(FileBackend(root)))
        assert len(fresh.entries()) == self.WRITERS * self.PER_WRITER
        _assert_all_present(fresh, self.WRITERS, self.PER_WRITER)
        pins = fresh.pins()
        assert sorted(pins) == [f"pin/w{w}" for w in range(self.WRITERS)]

    def test_processes_on_one_store_server(self, tmp_path):
        with AsyncStoreServer(FileBackend(tmp_path / "served")) as server:
            host, port = server.address
            _run_workers("remote", f"{host}:{port}",
                         self.WRITERS, self.PER_WRITER)
            fresh = ArtifactCache(BlobStore(RemoteBackend(host, port)))
            assert len(fresh.entries()) == self.WRITERS * self.PER_WRITER
            _assert_all_present(fresh, self.WRITERS, self.PER_WRITER)
            assert len(fresh.pins()) == self.WRITERS
