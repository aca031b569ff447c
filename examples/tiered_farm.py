"""Tiered store: worker-private tiers over one shared store.

1. **TieredBackend up close** — a put writes through to the shared
   store in the same call, and a read miss is promoted into the local
   tier, so the next read never leaves it.
2. **Tiered farm build** — a `LocalCluster` of two forked workers, each
   behind its own `FileBackend` tier (`local_tier_dir`), over one shared
   store. Zero duplicate lowering, and the warm rerun is served from the
   workers' local tiers; their tier counters reach the coordinator's
   registry on the heartbeat, under each worker's label, where `cluster
   status` reads them.

Run:  PYTHONPATH=src python examples/tiered_farm.py
"""

import tempfile

from repro.cluster import LocalCluster
from repro.store import MemoryBackend, TieredBackend
from repro.telemetry import totals_by_label
from repro.util.hashing import content_digest

SYSTEMS = ["ault23", "ault25"]


def tier_mechanics() -> None:
    print("== TieredBackend mechanics ==")
    upstream = MemoryBackend()
    tier = TieredBackend(MemoryBackend(), upstream)

    digest = content_digest(b"module")
    tier.put(digest, b"module")
    print(f"after put: upstream has it: {upstream.has(digest)}")

    cold = content_digest(b"cold blob")
    upstream.put(cold, b"cold blob")
    tier.get(cold)
    tier.get(cold)
    print(f"two reads of an upstream-only blob: misses={tier.tier_misses}, "
          f"hits={tier.tier_hits}")


def tiered_farm(root: str) -> None:
    print("\n== tiered farm build ==")
    with LocalCluster(workers=2, store_dir=root + "/shared",
                      local_tier_dir=root + "/tiers") as cluster:
        report = cluster.build("lulesh", SYSTEMS)
        print(f"deployed {len(report.deployments)} systems, "
              f"duplicate lowerings: {report.duplicate_lowerings}")
        rerun = cluster.build("lulesh", SYSTEMS)
        print(f"warm rerun: {rerun.lowerings_performed} lowerings "
              f"performed, warm groups {rerun.warm_groups}")
        counters = cluster.client.telemetry()["telemetry"]["metrics"][
            "counters"]
        for worker_id, counts in sorted(
                totals_by_label(counters, "worker").items()):
            print(f"  {worker_id}: tier hits="
                  f"{counts.get('store.tier.hits', 0)} misses="
                  f"{counts.get('store.tier.misses', 0)}")


def main() -> None:
    tier_mechanics()
    with tempfile.TemporaryDirectory() as root:
        tiered_farm(root)


if __name__ == "__main__":
    main()
