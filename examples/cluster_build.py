"""Build-farm cluster: one batch, many workers, one shared store.

Walks the cluster subsystem ISSUE 4 adds on top of the staged pipeline
and the persistent store:

1. **Cold farm build** — a `LocalCluster` (coordinator + 2 workers)
   decomposes a LULESH batch into jobs (one stage job per
   configuration, lower per ISA, deploy per system) and
   runs it against a file-backed store. Workers exchange *artifact keys*
   over the wire; every artifact moves through the store. Zero duplicate
   lowerings, byte-identical to a single-process `deploy_batch`.
2. **Store-aware rerun** — the same batch again: the client probes the
   store's `lower` index, finds every ISA already lowered, submits *no*
   lower jobs, and the deploys are born ready (routed to the front).
3. **Crash recovery** — a worker that dies mid-job loses its lease; the
   job re-queues with the dead worker excluded and finishes elsewhere.

Run:  PYTHONPATH=src python examples/cluster_build.py
"""

import tempfile
import threading

from repro.cluster import (
    ClusterWorker,
    Coordinator,
    CoordinatorClient,
    LocalCluster,
    cluster_build,
)
from repro.containers import ArtifactCache, BlobStore
from repro.store import FileBackend

SYSTEMS = ["ault23", "ault25", "dev-machine"]


def farm_builds(root: str) -> None:
    with LocalCluster(workers=2, store_dir=root) as cluster:
        print("== cold farm build ==")
        report = cluster.build("lulesh", SYSTEMS)
        print(f"plan: {report.plan_summary}")
        print(f"cold ISA groups: {report.cold_groups}")
        for dep in report.deployments:
            print(f"  {dep['system']:<12} {dep['simd']:<10} {dep['tag']}")
        print(f"lowerings: {report.lowerings_performed} performed, "
              f"{report.duplicate_lowerings} duplicated across workers")

        print("\n== store-aware rerun ==")
        rerun = cluster.build("lulesh", SYSTEMS)
        print(f"warm ISA groups: {rerun.warm_groups} (no lower jobs at all: "
              f"{not any('/lower/' in j for j in rerun.jobs)})")
        print(f"lowerings performed: {rerun.lowerings_performed}")


class CrashOnce(ClusterWorker):
    """Raises on its first lower job, then behaves."""

    crashed = False

    def execute(self, job):
        if job.kind == "lower" and not self.crashed:
            CrashOnce.crashed = True
            raise RuntimeError("simulated worker crash")
        return super().execute(job)


def crash_recovery(root: str) -> None:
    print("\n== crash recovery ==")
    store = BlobStore(FileBackend(root))
    cache = ArtifactCache(store)
    with Coordinator() as coordinator:
        host, port = coordinator.address
        flaky = CrashOnce(CoordinatorClient(host, port), store, cache=cache,
                          worker_id="flaky")
        steady = ClusterWorker(CoordinatorClient(host, port), store,
                               cache=cache, worker_id="steady")
        stop = threading.Event()
        threads = [threading.Thread(target=w.run, kwargs={"stop": stop},
                                    daemon=True) for w in (flaky, steady)]
        for thread in threads:
            thread.start()
        try:
            report = cluster_build(CoordinatorClient(host, port), "lulesh",
                                   ["ault23"], store, cache=cache)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
    retried = [(job_id, rec) for job_id, rec in report.jobs.items()
               if rec["attempts"]]
    for job_id, rec in retried:
        print(f"  {job_id}: {rec['attempts']} failed attempt(s), "
              f"finished on {rec['worker']!r}")
    print(f"deployed anyway: {report.deployments[0]['tag']}")


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        farm_builds(root + "/farm")
        crash_recovery(root + "/recovery")


if __name__ == "__main__":
    main()
