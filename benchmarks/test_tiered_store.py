"""Tiered store vs flat clients on a warm farm workload.

The tiered-store acceptance benchmark: the same warm read-mostly
workload (every worker repeatedly resolving one shared artifact set —
the shape of a lower/deploy wave replaying a build from the store) runs
twice against one AsyncStoreServer — once with flat `RemoteBackend` clients,
once with each client behind its own `TieredBackend` (FileBackend tier
over the same remote). Upstream load comes from the server's own
`stats()["requests_served"]`; the tiered run must cost >=5x fewer
upstream requests, because after the first round every read is a local
tier hit. A second measurement shows the write path: publishing through
the tier batches N puts into a handful of `put_many` flushes.

Results land in ``benchmarks/BENCH_tiered_store.json`` via the conftest
hook so the trajectory is tracked from this PR on.
"""

import threading
import time

from repro.store import (
    FileBackend,
    MemoryBackend,
    RemoteBackend,
    AsyncStoreServer,
    TieredBackend,
)
from repro.util.hashing import content_digest

from conftest import print_table

WORKERS = 3        # concurrent farm clients
ARTIFACTS = 40     # shared warm artifact set (IR modules, manifests...)
ROUNDS = 8         # warm replays per client (lower+deploy jobs per batch)


def _seed(host: str, port: int) -> list[str]:
    backend = RemoteBackend(host, port)
    digests = []
    for i in range(ARTIFACTS):
        payload = f"artifact-{i} ".encode() * 32
        digests.append(content_digest(payload))
        backend.put(digests[-1], payload)
    backend.close()
    return digests


def _warm_workload(host: str, port: int, digests: list[str],
                   make_backend) -> float:
    """Every worker replays the warm set ROUNDS times: probe, then read.
    Returns wall-clock seconds; upstream cost is read off the server."""
    barrier = threading.Barrier(WORKERS)
    errors: list[Exception] = []

    def worker(idx: int) -> None:
        backend = make_backend(idx)
        try:
            barrier.wait()
            for _ in range(ROUNDS):
                for digest in digests:
                    assert backend.has(digest)
                    backend.get(digest)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
        finally:
            backend.close()

    start = time.perf_counter()
    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(WORKERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    seconds = time.perf_counter() - start
    assert not errors, errors
    return seconds


def test_warm_tiered_workers_offload_the_shared_store(tmp_path, bench_json):
    """>=5x fewer upstream requests with per-worker tiers, same reads."""
    results = {}
    for mode in ("flat", "tiered"):
        with AsyncStoreServer(MemoryBackend()) as server:
            host, port = server.address
            digests = _seed(host, port)
            seeded = server.requests_served

            if mode == "flat":
                def make_backend(idx):
                    return RemoteBackend(host, port)
            else:
                def make_backend(idx):
                    return TieredBackend(
                        FileBackend(tmp_path / f"tier-{idx}"),
                        RemoteBackend(host, port), tier_id=f"bench-{idx}")

            seconds = _warm_workload(host, port, digests, make_backend)
            results[mode] = {
                "seconds": round(seconds, 4),
                "upstream_requests": server.requests_served - seeded,
            }

    flat, tiered = results["flat"], results["tiered"]
    ratio = flat["upstream_requests"] / max(1, tiered["upstream_requests"])
    reads = WORKERS * ROUNDS * ARTIFACTS

    print_table(
        "Warm farm reads: flat clients vs per-worker tiers "
        f"({WORKERS} workers x {ROUNDS} rounds x {ARTIFACTS} artifacts)",
        ("mode", "upstream requests", "seconds"),
        [(mode, run["upstream_requests"], f"{run['seconds']:.3f}")
         for mode, run in results.items()]
        + [("ratio", f"{ratio:.1f}x fewer", "-")])
    bench_json("tiered_store", {"warm_reads": {
        "workers": WORKERS,
        "rounds": ROUNDS,
        "artifacts": ARTIFACTS,
        "logical_reads": reads,
        "flat": flat,
        "tiered": tiered,
        "upstream_request_ratio": ratio,
    }})

    # The acceptance bar: the local tiers must absorb the warm rereads.
    assert ratio >= 5.0, results
    # And the tiers cannot have answered from thin air: each worker paid
    # at most one fetch per artifact (plus pooled-session bookkeeping).
    assert tiered["upstream_requests"] < flat["upstream_requests"]


PUBLISHES = 64


def test_write_back_batches_publishes(bench_json):
    """The write path: N puts through the tier flush upstream as a few
    `put_many` batches instead of N wire requests."""
    results = {}
    for mode in ("flat", "tiered"):
        with AsyncStoreServer(MemoryBackend()) as server:
            host, port = server.address
            remote = RemoteBackend(host, port)
            backend = remote if mode == "flat" else \
                TieredBackend(MemoryBackend(), remote, flush_max_blobs=32)
            before = server.requests_served
            for i in range(PUBLISHES):
                payload = f"{mode}-publish-{i} ".encode() * 16
                backend.put(content_digest(payload), payload)
            if mode == "tiered":
                backend.flush()
            results[mode] = server.requests_served - before
            backend.close()

    print_table(
        f"Publish path: {PUBLISHES} puts, flat vs write-back tier",
        ("mode", "upstream requests"),
        [(mode, count) for mode, count in results.items()])
    bench_json("tiered_store", {"write_back": {
        "publishes": PUBLISHES,
        "flat_requests": results["flat"],
        "tiered_requests": results["tiered"],
    }})
    assert results["flat"] == PUBLISHES
    # 64 puts at flush_max_blobs=32 is 2-3 put_many flushes.
    assert results["tiered"] <= PUBLISHES // 8, results
