"""Store hot-path I/O: pooled sessions, sharded refs, the wire server.

A farm-shaped publish/probe workload (N concurrent builders pushing
artifacts into one shared AsyncStoreServer, then probing and pulling
their peers' blobs) must cost one TCP connection per builder. A second
workload races two index writers in *different namespaces* on one
FileBackend: the sharded index must finish with zero CAS retries.

The sweep then drives {1, 8, 32, 128} concurrent sessions x
{4 KiB, 256 KiB, 4 MiB} blobs against the server and asserts every cell
completes, and that the server's peak resident body stays O(chunk) for
streamed multi-MB blobs.

Results land in ``benchmarks/BENCH_store_io.json`` via the conftest hook.
"""

import os
import threading
import time

from repro.containers.store import ArtifactCache, BlobStore
from repro.store import (
    AsyncStoreServer,
    FileBackend,
    MemoryBackend,
    RemoteBackend,
)
from repro.store.wire import CHUNK_SIZE
from repro.util.hashing import content_digest

from conftest import print_table

CLIENTS = 4
PUTS = 60          # artifacts published per client
PROBES = 90        # existence probes per client (scheduler-style)
GETS = 15          # peer-blob pulls per client


def _farm_workload(host: str, port: int) -> dict:
    """CLIENTS concurrent builders publish/probe/pull against one server.
    Returns per-run counters."""
    barrier = threading.Barrier(CLIENTS)
    errors: list[Exception] = []
    ops = {"puts": 0, "probes": 0, "gets": 0}
    ops_lock = threading.Lock()

    def builder(idx: int) -> None:
        backend = RemoteBackend(host, port)
        try:
            barrier.wait()
            digests = []
            for i in range(PUTS):
                payload = f"client-{idx} artifact-{i} ".encode() * 8
                digest = content_digest(payload)
                backend.put(digest, payload)
                digests.append(digest)
            # Scheduler-style probing: one batched probe for the whole
            # warm set, then per-key spot checks.
            backend.has_many(digests)
            for i in range(PROBES):
                backend.has(digests[i % len(digests)])
            for i in range(GETS):
                backend.get(digests[i % len(digests)])
            with ops_lock:
                ops["puts"] += PUTS
                ops["probes"] += PROBES + 1
                ops["gets"] += GETS
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
        finally:
            backend.close()

    start = time.perf_counter()
    threads = [threading.Thread(target=builder, args=(i,))
               for i in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    seconds = time.perf_counter() - start
    assert not errors, errors
    return {"seconds": seconds, **ops}


def test_pooled_sessions_cost_one_connection_per_client(bench_json):
    """The whole farm workload rides one TCP connection per builder."""
    with AsyncStoreServer(MemoryBackend()) as server:
        host, port = server.address
        run = _farm_workload(host, port)
        run["connections"] = server.connections_served
        run["requests"] = server.requests_served

    print_table(
        f"Store wire I/O: pooled sessions (farm workload, {CLIENTS} clients)",
        ("connections", "requests", "seconds"),
        [(run["connections"], run["requests"], f"{run['seconds']:.3f}")])
    bench_json("store_io", {"wire": {
        "clients": CLIENTS,
        "ops_per_client": PUTS + PROBES + 1 + GETS,
        **run,
    }})

    assert run["connections"] == CLIENTS, run
    assert run["requests"] == CLIENTS * (PUTS + PROBES + 1 + GETS), run


def test_batched_probe_is_one_round_trip(bench_json):
    """The per-ISA lower-index probe pattern: N has() calls vs one
    has_many() — the wire cost drops from N requests to 1."""
    with AsyncStoreServer(MemoryBackend()) as server:
        backend = RemoteBackend(*server.address)
        digests = []
        for i in range(64):
            payload = f"probe-blob-{i}".encode()
            digests.append(content_digest(payload))
            backend.put(digests[-1], payload)
        before = server.requests_served
        for digest in digests:
            backend.has(digest)
        loop_requests = server.requests_served - before
        before = server.requests_served
        assert all(backend.has_many(digests).values())
        batched_requests = server.requests_served - before
        backend.close()

    print_table("Index probe: has() loop vs has_many()",
                ("strategy", "wire requests"),
                [("per-key has()", loop_requests),
                 ("has_many()", batched_requests)])
    bench_json("store_io", {"batched_probe": {
        "digests": len(digests),
        "loop_requests": loop_requests,
        "batched_requests": batched_requests,
    }})
    assert loop_requests == len(digests)
    assert batched_requests == 1


WRITERS = 2
PUBLISHES = 80


def _index_contention(root) -> dict:
    """WRITERS concurrent publishers, each in its own namespace, each
    flushing the index on every put (flush_every=1) — the worst case for
    index-ref contention."""
    FileBackend(root)  # create the layout once
    caches = [ArtifactCache(BlobStore(FileBackend(root)))
              for _ in range(WRITERS)]
    barrier = threading.Barrier(WRITERS)
    errors: list[Exception] = []

    def publisher(idx: int) -> None:
        cache = caches[idx]
        namespace = f"namespace-{idx}"
        try:
            barrier.wait()
            for i in range(PUBLISHES):
                cache.put(namespace, {"i": i}, f"payload-{idx}-{i}")
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    start = time.perf_counter()
    threads = [threading.Thread(target=publisher, args=(i,))
               for i in range(WRITERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    seconds = time.perf_counter() - start
    assert not errors, errors

    # Zero lost writes — the CAS merge guarantees it; the shards only
    # change what the guarantee *costs*.
    fresh = ArtifactCache(BlobStore(FileBackend(root)))
    entries = fresh.entries()
    assert len(entries) == WRITERS * PUBLISHES, len(entries)
    return {"seconds": seconds,
            "cas_retries": sum(c.cas_retries for c in caches)}


def test_sharded_index_has_no_cross_namespace_cas(tmp_path, bench_json):
    """Cross-namespace publishing: zero CAS retries."""
    sharded = _index_contention(tmp_path / "sharded")

    print_table(
        "Index-ref contention: per-namespace shards "
        f"({WRITERS} writers x {PUBLISHES} publishes, flush_every=1)",
        ("CAS retries", "seconds"),
        [(sharded["cas_retries"], f"{sharded['seconds']:.3f}")])
    bench_json("store_io", {"index_contention": {
        "writers": WRITERS,
        "publishes_per_writer": PUBLISHES,
        **sharded,
    }})

    assert sharded["cas_retries"] == 0, sharded


# -- concurrency x blob-size sweep ---------------------------------------------

SWEEP_CLIENTS = (1, 8, 32, 128)
SWEEP_SIZES = ((4 * 1024, "4KiB"), (256 * 1024, "256KiB"),
               (4 * 1024 * 1024, "4MiB"))
#: Per-cell wire-byte budget: put+get pairs per client are scaled so no
#: single cell moves much more than this (the 1-pair floor makes the
#: 128x4MiB corner the exception).
SWEEP_BYTES_TARGET = 32 * (1 << 20)
#: Pair cap for tiny blobs, so low-byte cells still run long enough to
#: time (requests, not bytes, dominate them).
SWEEP_MAX_PAIRS = 48


def _pairs_for(clients: int, size: int) -> int:
    pairs = SWEEP_BYTES_TARGET // (clients * size * 2)
    return max(1, min(SWEEP_MAX_PAIRS, pairs))


#: Per-socket-operation client timeout inside the sweep. A server whose
#: clients starve past this under load scores a DNF for the cell, which
#: fails the test.
SWEEP_CLIENT_TIMEOUT = 20.0


def _sweep_cell(clients: int, size: int) -> dict:
    """`clients` concurrent pooled sessions each put+get `pairs` unique
    blobs of `size` bytes against one server."""
    pairs = _pairs_for(clients, size)
    with AsyncStoreServer(MemoryBackend()) as server:
        host, port = server.address
        barrier = threading.Barrier(clients + 1)
        errors: list[Exception] = []

        def client(idx: int) -> None:
            backend = RemoteBackend(host, port,
                                    timeout=SWEEP_CLIENT_TIMEOUT)
            try:
                blobs = []
                for i in range(pairs):
                    seed = f"sweep-{idx}-{i}-".encode()
                    payload = (seed * (size // len(seed) + 1))[:size]
                    blobs.append((content_digest(payload), payload))
                barrier.wait(timeout=120)
                for digest, payload in blobs:
                    backend.put(digest, payload)
                for digest, payload in blobs:
                    if backend.get(digest) != payload:  # pragma: no cover
                        raise AssertionError(f"corrupt read-back: {digest}")
            except Exception as exc:
                errors.append(exc)
            finally:
                backend.close()

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(clients)]
        for t in threads:
            t.start()
        barrier.wait(timeout=120)  # start the clock after payload prep
        start = time.perf_counter()
        for t in threads:
            t.join()
        seconds = time.perf_counter() - start
        stats = server.stats()
    moved = clients * pairs * size * 2
    cell = {"pairs_per_client": pairs, "completed": not errors,
            "peak_body_bytes": stats["peak_body_bytes"]}
    if errors:
        cell["client_errors"] = len(errors)
        cell["first_error"] = repr(errors[0])
    else:
        cell["seconds"] = round(seconds, 4)
        cell["mb_per_s"] = round(moved / seconds / (1 << 20), 1)
    return cell


def test_concurrency_blob_size_sweep(bench_json):
    """The server must *sustain* the whole concurrency x size grid,
    including 128 concurrent sessions. Absolute throughput is recorded,
    not asserted (one shared CPU, GIL on both sides)."""
    results: dict[str, dict] = {}
    for clients in SWEEP_CLIENTS:
        for size, size_label in SWEEP_SIZES:
            results[f"{clients}x{size_label}"] = _sweep_cell(clients, size)

    print_table(
        "Store server sweep: sessions x blob size",
        ("clients x size", "pairs/client", "seconds", "MB/s"),
        [(key, cell["pairs_per_client"],
          f"{cell['seconds']:.3f}" if cell["completed"] else "DNF",
          cell.get("mb_per_s", "-")) for key, cell in results.items()])
    bench_json("store_io", {"concurrency_sweep": results})

    incomplete = [key for key, cell in results.items()
                  if not cell["completed"]]
    assert not incomplete, (incomplete, results)


def test_streamed_bodies_keep_server_memory_flat(tmp_path, bench_json):
    """The memory story behind streaming: a 4 MiB blob put+get through
    the server against a file store must move the server's
    peak-resident-body high-water mark by one chunk, not one blob."""
    blob_bytes = 4 * (1 << 20)
    payload = os.urandom(blob_bytes)
    digest = content_digest(payload)
    with AsyncStoreServer(FileBackend(tmp_path / "store")) as server:
        backend = RemoteBackend(*server.address)
        start = time.perf_counter()
        backend.put(digest, payload)
        got = backend.get(digest)
        seconds = time.perf_counter() - start
        backend.close()
        stats = server.stats()
    assert got == payload

    print_table(
        "Streamed 4 MiB put+get through the store server (file store)",
        ("metric", "value"),
        [("blob bytes", blob_bytes),
         ("chunk bytes", CHUNK_SIZE),
         ("peak_body_bytes", stats["peak_body_bytes"]),
         ("seconds", f"{seconds:.3f}")])
    bench_json("store_io", {"streamed_memory": {
        "blob_bytes": blob_bytes,
        "chunk_bytes": CHUNK_SIZE,
        "peak_body_bytes": stats["peak_body_bytes"],
        "peak_outbuf_bytes": stats["peak_outbuf_bytes"],
        "seconds": round(seconds, 4),
    }})
    # O(chunk), not O(blob): the whole point of streamed bodies.
    assert stats["peak_body_bytes"] <= 4 * CHUNK_SIZE, stats
    assert stats["peak_body_bytes"] < blob_bytes // 8, stats
