"""Persistent artifact store: warm, cold, and shared builds.

Walks the three store tiers ISSUE 2 adds underneath the artifact cache:

1. **Warm (file)** — build LULESH's IR container into a file-backed store,
   then rebuild and deploy with *fresh* store/cache objects, simulating a
   new process: zero preprocess, zero IR-compile, zero lowering operations,
   everything replayed from disk (IR modules re-parsed from canonical text,
   machine modules deserialized from JSON payloads).
2. **Shared (remote)** — serve the same store over a local socket and let a
   second "builder" hit it through the push/pull/has wire protocol.
3. **Bounded (GC)** — pin the image manifest, then garbage-collect to a
   byte budget: least-recently-used entries go first, the pinned image
   graph never does.

Run:  PYTHONPATH=src python examples/persistent_store.py
"""

import tempfile

from repro.apps import lulesh_configs, lulesh_model
from repro.containers import ArtifactCache, BlobStore
from repro.core import build_ir_container, deploy_ir_container
from repro.discovery import get_system
from repro.store import AsyncStoreServer, FileBackend, RemoteBackend

OPTIONS = {"WITH_MPI": "OFF", "WITH_OPENMP": "ON"}


def build_and_deploy(backend, system_name="ault23"):
    """One cold process: fresh store/cache objects over the backend."""
    store = BlobStore(backend)
    cache = ArtifactCache(store)
    result = build_ir_container(lulesh_model(), lulesh_configs(),
                                store=store, cache=cache)
    before = cache.snapshot().get("lower", (0, 0))
    dep = deploy_ir_container(result, lulesh_model(), OPTIONS,
                              get_system(system_name), store, cache=cache)
    lower_misses = cache.snapshot().get("lower", (0, 0))[1] - before[1]
    return result, dep, cache, lower_misses


def main() -> None:
    root = tempfile.mkdtemp(prefix="xaas-store-")
    print(f"store: {root}\n")

    # -- 1: cold store, then a cold *process* against the warm store --------
    result, dep, cache, lowers = build_and_deploy(FileBackend(root))
    print("first build :", result.stats.summary())
    print(f"              {result.stats.preprocess_ops} preprocess ops, "
          f"{result.stats.ir_compile_ops} IR compiles, {lowers} lowerings")
    cache.pin("image/lulesh", result.image.digest)

    result2, dep2, cache2, lowers2 = build_and_deploy(FileBackend(root))
    print("cold process:", f"{result2.stats.preprocess_ops} preprocess ops, "
          f"{result2.stats.ir_compile_ops} IR compiles, {lowers2} lowerings "
          f"(identical image: {result2.image.digest == result.image.digest})")

    # -- 2: share the store between processes over a socket ------------------
    with AsyncStoreServer(FileBackend(root)) as server:
        host, port = server.address
        print(f"\nserving the store on {host}:{port}")
        _, dep3, _, lowers3 = build_and_deploy(RemoteBackend(host, port),
                                               system_name="ault25")
        print(f"remote builder deployed to ault25 ({dep3.simd_name}): "
              f"{lowers3} new lowerings (new ISA), preprocess/IR free")

    # -- 3: bound the store with LRU GC; the pinned image survives -----------
    cache4 = ArtifactCache(BlobStore(FileBackend(root)))
    stats = cache4.stats()
    budget = stats["total_bytes"] // 2
    report = cache4.gc(budget)
    print(f"\ngc to {budget} bytes: {report.before_bytes} -> "
          f"{report.after_bytes} bytes, evicted {report.evicted_entries} "
          f"entries, deleted {report.deleted_blobs} blobs, "
          f"{report.pinned_blobs} pinned blobs kept")
    still_deployable = cache4.store.has(result.image.digest)
    print(f"pinned image manifest still present: {still_deployable}")


if __name__ == "__main__":
    main()
