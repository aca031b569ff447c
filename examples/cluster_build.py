"""Build-farm cluster: one batch, many workers, one shared store.

Walks the cluster subsystem on top of the staged pipeline and the
persistent store:

1. **Cold farm build** — a `LocalCluster` (coordinator + 2 workers)
   decomposes a LULESH batch into jobs (one stage job per source
   share, as many as configurations, one deploy job per ISA group) and
   runs it against a file-backed store. Workers exchange *artifact keys*
   over the wire; every artifact moves through the store. Zero duplicate
   lowerings, byte-identical to a single-process `deploy_batch`.
2. **Warm rerun** — the same batch again: every ISA group is already
   lowered in the store, so each group's deploy job finds every machine
   module there and lowers nothing.

Run:  PYTHONPATH=src python examples/cluster_build.py
"""

import tempfile

from repro.cluster import LocalCluster

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

        print("\n== warm rerun ==")
        rerun = cluster.build("lulesh", SYSTEMS)
        print(f"warm ISA groups: {rerun.warm_groups}")
        print(f"lowerings: {rerun.lowerings_performed} performed, "
              f"{rerun.lowerings_reused} reused from the store")


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        farm_builds(root)


if __name__ == "__main__":
    main()
