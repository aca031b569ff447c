"""Tiered data plane under the farm: workers with private local tiers
over one shared store must build byte-identically to a flat farm, with
zero duplicate lowering and real tier traffic."""

import pytest
from farm_driver import run_with_workers

from repro.apps import lulesh_configs, lulesh_model
from repro.cluster import ClusterWorker, Coordinator, CoordinatorClient, \
    cluster_build
from repro.containers import ArtifactCache, BlobStore
from repro.core import build_ir_container, deploy_batch
from repro.discovery import get_system
from repro.store import FileBackend

SYSTEMS = ["ault23", "ault25"]
OPTS = {"WITH_MPI": "OFF", "WITH_OPENMP": "ON"}


@pytest.fixture(scope="module")
def flat_reference():
    """One process, no farm, no tier: the ground truth bytes."""
    app = lulesh_model()
    store = BlobStore()
    cache = ArtifactCache(store)
    result = build_ir_container(app, lulesh_configs(), store=store,
                                cache=cache)
    batch = deploy_batch(result, app, OPTS,
                         [get_system(n) for n in SYSTEMS], store, cache=cache)
    return result, batch


class TieredFarm:
    """Two ClusterWorkers, each behind its own FileBackend tier, over one
    shared file-backed store — the `cluster worker --local-tier` topology
    in-process, turned by the test thread, so tier counters stay
    inspectable."""

    def __init__(self, tmp_path):
        self.store_dir = str(tmp_path / "shared-store")
        self.tier_root = str(tmp_path / "tiers")
        self.coordinator = Coordinator()

    def __enter__(self):
        self.address = self.coordinator.start()
        self.workers = [ClusterWorker(CoordinatorClient(*self.address),
                                      BlobStore(FileBackend(self.store_dir)),
                                      worker_id=f"tiered-{i}",
                                      local_tier_dir=self.tier_root)
                        for i in range(2)]
        return self

    def build(self, systems=SYSTEMS):
        store = BlobStore(FileBackend(self.store_dir))
        return run_with_workers(self.workers, lambda: cluster_build(
            CoordinatorClient(*self.address), "lulesh", systems, store))

    def __exit__(self, *exc_info):
        for worker in self.workers:
            worker.client.close()
            worker.tier.close()
        self.coordinator.stop()


class TestTieredFarmBuild:
    def test_tiered_build_is_byte_identical_with_zero_duplicates(
            self, tmp_path, flat_reference):
        result, batch = flat_reference
        with TieredFarm(tmp_path) as farm:
            report = farm.build()

            assert report.image_digest == result.image.digest
            reference = {d.system.name: d for d in batch.deployments}
            for dep in report.deployments:
                ref = reference[dep["system"]]
                assert dep["tag"] == ref.tag
                assert dep["image_digest"] == ref.image.digest
            assert report.duplicate_lowerings == 0
            assert all(rec["state"] == "done"
                       for rec in report.jobs.values())

            # The data plane really ran tiered: reads went through the
            # private tiers.
            traffic = sum(w.tier.tier_hits + w.tier.tier_misses
                          for w in farm.workers)
            assert traffic > 0

        # Puts wrote through: a flat cold-process reader finds every
        # published entry's blob on the *shared* store.
        flat = ArtifactCache(BlobStore(FileBackend(farm.store_dir)))
        entries = flat.entries()
        assert any(rec.namespace == "lower" for rec in entries.values())
        for record in entries.values():
            assert flat.store.has(record.digest), \
                f"{record.namespace} blob stranded in a worker tier"

    def test_warm_rerun_hits_the_tiers(self, tmp_path):
        """Second build over the same tier dirs: every group is warm — its
        deploy job lowers nothing — and the workers' reads come from their
        local tiers."""
        with TieredFarm(tmp_path) as farm:
            first = farm.build()
            hits_after_first = sum(w.tier.tier_hits for w in farm.workers)
            second = farm.build()
            assert first.cold_groups and not first.warm_groups
            assert second.warm_groups == first.cold_groups
            assert not second.cold_groups
            assert first.lowerings_performed > 0
            assert second.lowerings_performed == 0
            assert second.lowerings_reused == \
                first.lowerings_performed + first.lowerings_reused
            assert second.duplicate_lowerings == 0
            hits_after_second = sum(w.tier.tier_hits for w in farm.workers)
            assert hits_after_second > hits_after_first, \
                "warm rerun produced no local-tier hits"

    def test_restarted_worker_reuses_its_tier_dir(self, tmp_path):
        """worker_tier_id is stable: the same --worker-id lands in the
        same tier directory across restarts (re-warming from local disk),
        and distinct ids never collide."""
        import os
        with TieredFarm(tmp_path) as farm:
            farm.build()
            tier_dirs = sorted(os.listdir(farm.tier_root))
            assert tier_dirs == ["tiered-0", "tiered-1"]
        store = BlobStore(FileBackend(farm.store_dir))
        rejoined = ClusterWorker(
            CoordinatorClient("127.0.0.1", 1),  # never contacted here
            store, worker_id="tiered-0", local_tier_dir=farm.tier_root)
        assert rejoined.worker_tier_id == "tiered-0"
        # The re-attached tier still holds the first run's promotions.
        local_digests = rejoined.tier.local.digests()
        assert local_digests, "restart found an empty tier"
        rejoined.tier.close()

    def test_each_worker_cache_reads_through_its_own_tier(self, tmp_path):
        """Every worker opens its own bulk ArtifactCache, and a tiered
        worker's cache sits over its tier, so no read goes around it."""
        from repro.containers.store import BULK_FLUSH_EVERY
        shared = FileBackend(str(tmp_path / "shared-store"))
        workers = [ClusterWorker(CoordinatorClient("127.0.0.1", 1),
                                 BlobStore(shared), worker_id=f"own-{i}",
                                 local_tier_dir=str(tmp_path / "tiers"))
                   for i in range(2)]
        try:
            assert workers[0].cache is not workers[1].cache
            for worker in workers:
                assert worker.cache.store.backend is worker.tier
                assert worker.tier.upstream is shared
                assert worker.cache.flush_every == BULK_FLUSH_EVERY
        finally:
            for worker in workers:
                worker.tier.close()
