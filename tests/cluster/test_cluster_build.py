"""End-to-end cluster builds: equivalence, dedup, and store-aware routing."""

import pytest

from repro.apps import lulesh_configs, lulesh_model
from repro.cluster import LocalCluster
from repro.containers import ArtifactCache, BlobStore
from repro.core import build_ir_container, deploy_batch
from repro.discovery import get_system
from repro.store import FileBackend

SYSTEMS = ["ault23", "ault25", "ault01-04", "dev-machine"]
OPTS = {"WITH_MPI": "OFF", "WITH_OPENMP": "ON"}


@pytest.fixture(scope="module")
def single_process_reference():
    """The classic path: one process, one deploy_batch."""
    app = lulesh_model()
    store = BlobStore()
    cache = ArtifactCache(store)
    result = build_ir_container(app, lulesh_configs(), store=store,
                                cache=cache)
    batch = deploy_batch(result, app, OPTS,
                         [get_system(n) for n in SYSTEMS], store, cache=cache)
    return result, batch


class TestClusterEqualsSingleProcess:
    @pytest.fixture(scope="class")
    def cluster_report(self):
        with LocalCluster(workers=3) as cluster:
            yield cluster.build("lulesh", SYSTEMS)

    def test_all_systems_deployed_in_request_order(self, cluster_report):
        assert [d["system"] for d in cluster_report.deployments] == SYSTEMS

    def test_image_digest_matches_single_process(self, cluster_report,
                                                 single_process_reference):
        result, _ = single_process_reference
        assert cluster_report.image_digest == result.image.digest

    def test_deployments_byte_identical_to_single_process(
            self, cluster_report, single_process_reference):
        _, batch = single_process_reference
        reference = {d.system.name: d for d in batch.deployments}
        for dep in cluster_report.deployments:
            ref = reference[dep["system"]]
            assert dep["tag"] == ref.tag
            assert dep["simd"] == ref.simd_name
            assert dep["lowered_count"] == ref.lowered_count
            assert dep["image_digest"] == ref.image.digest

    def test_zero_duplicate_lowerings_via_store_stats(self, cluster_report):
        """Every (IR, ISA) pair lowered exactly once across all workers."""
        assert cluster_report.lowerings_performed == \
            cluster_report.lower_entries_created
        assert cluster_report.duplicate_lowerings == 0

    def test_cold_store_means_no_warm_groups(self, cluster_report):
        assert cluster_report.warm_groups == []
        assert len(cluster_report.cold_groups) == 2  # AVX_512 + AVX2_256

    def test_every_job_completed(self, cluster_report):
        assert all(rec["state"] == "done"
                   for rec in cluster_report.jobs.values())


class TestStoreAwareRouting:
    def test_second_build_routes_every_group_warm(self):
        with LocalCluster(workers=2) as cluster:
            first = cluster.build("lulesh", SYSTEMS)
            second = cluster.build("lulesh", SYSTEMS)
        assert first.cold_groups and not first.warm_groups
        assert second.warm_groups and not second.cold_groups
        assert second.lowerings_performed == 0
        assert second.lowerings_reused > 0
        # Warm groups get no lower job at all — only deploys (and the
        # re-submitted stage jobs, which are all-hit no-ops).
        assert not any("/lower/" in job_id for job_id in second.jobs)

    def test_partially_warm_store_splits_groups(self, tmp_path):
        """Deploy one ISA first; the second batch must treat exactly that
        ISA as warm and only lower the other."""
        store_dir = str(tmp_path / "store")
        with LocalCluster(workers=2, store_dir=store_dir) as cluster:
            # ault23 alone: lowers AVX_512 only.
            warmup = cluster.build("lulesh", ["ault23"])
            assert warmup.cold_groups == ["x86_64/AVX_512"]
            report = cluster.build("lulesh", SYSTEMS)
        assert report.warm_groups == ["x86_64/AVX_512"]
        assert report.cold_groups == ["x86_64/AVX2_256"]
        # Only the cold ISA's lowerings actually ran.
        avx2_lowerings = report.lowerings_performed
        assert avx2_lowerings > 0
        assert report.duplicate_lowerings == 0


class TestDuplicateIRCompiles:
    def test_counts_compiles_beyond_the_images_distinct_irs(self):
        """One worker runs the jobs one after the other, so the count is
        exact: LULESH's 20 per-configuration IRs for an image of 14 (the
        six OpenMP-free units compiled once more under -fopenmp)."""
        with LocalCluster(workers=1) as cluster:
            cold = cluster.build("lulesh", SYSTEMS)
            warm = cluster.build("lulesh", SYSTEMS)
        compiled = sum(rec["result"].get("ir_compile_ops", 0)
                       for rec in cold.jobs.values())
        assert (compiled, cold.build_stats["final_irs"]) == (20, 14)
        assert cold.duplicate_ir_compiles == 6
        assert cold.to_json()["duplicate_ir_compiles"] == 6
        assert warm.duplicate_ir_compiles == 0  # nothing compiled at all


class TestFileBackedCluster:
    def test_thread_workers_share_a_file_store(self, tmp_path):
        store_dir = str(tmp_path / "store")
        with LocalCluster(workers=2, store_dir=store_dir) as cluster:
            report = cluster.build("lulesh", ["ault23", "ault25"])
        assert len(report.deployments) == 2
        assert report.duplicate_lowerings == 0
        # A brand-new process-equivalent handle sees the persisted state.
        cache = ArtifactCache(BlobStore(FileBackend(store_dir)))
        stats = cache.stats()
        assert stats["entries_by_namespace"].get("lower", 0) == \
            report.lower_entries_created
        assert stats["entries_by_namespace"].get("configure", 0) > 0

    def test_incompatible_system_skipped_when_asked(self):
        with LocalCluster(workers=2) as cluster:
            report = cluster.build("lulesh", ["ault23", "clariden"],
                                   skip_incompatible=True)
        assert [d["system"] for d in report.deployments] == ["ault23"]
        assert "clariden" in report.incompatible


class TestSubprocessWorkers:
    def test_process_mode_builds_and_dedups(self, tmp_path):
        """Two real worker subprocesses sharing one FileBackend store."""
        store_dir = str(tmp_path / "store")
        with LocalCluster(workers=2, mode="process",
                          store_dir=store_dir) as cluster:
            report = cluster.build("lulesh", ["ault23", "ault25",
                                              "dev-machine"])
        assert [d["system"] for d in report.deployments] == \
            ["ault23", "ault25", "dev-machine"]
        # Per-job counters are exact here (each subprocess runs serially):
        # summed lowering misses must equal new store entries — zero dups.
        assert report.lowerings_performed == report.lower_entries_created
        assert report.duplicate_lowerings == 0
        workers_used = {rec["worker"] for rec in report.jobs.values()}
        # Every job ran on a real subprocess worker (how many of the two
        # got work depends on startup timing).
        assert workers_used and workers_used <= {"proc-0", "proc-1"}


class TestLongLivedCoordinator:
    def test_unreachable_coordinator_raises_cluster_error(self):
        """With retries pinned off, a dead coordinator surfaces
        immediately (the retried behavior lives in
        tests/cluster/test_fault_tolerance.py)."""
        from repro.cluster import ClusterError, CoordinatorClient
        from repro.util.retry import NO_RETRY
        import socket

        import pytest as _pytest
        # Grab a port that is definitely closed.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = CoordinatorClient("127.0.0.1", port, timeout=0.5,
                                   retry=NO_RETRY)
        with _pytest.raises(ClusterError, match="unreachable"):
            client.fetch("w1")

    def test_gc_between_builds_does_not_resurrect_published_keys(self):
        """Coordinator memory must not outvote a fresh store probe: after
        GC evicts the lowered modules, a second build on the *same*
        coordinator must re-lower (cold groups, a lower job, zero
        duplicates) rather than let stale published keys unblock the
        deploys early."""
        from repro.cluster import (
            ClusterWorker,
            Coordinator,
            CoordinatorClient,
            cluster_build,
        )
        import threading

        store = BlobStore()
        cache = ArtifactCache(store)
        with Coordinator() as coordinator:
            host, port = coordinator.address
            workers = [ClusterWorker(CoordinatorClient(host, port), store,
                                     cache=cache, worker_id=f"w{i}")
                       for i in range(2)]
            stop = threading.Event()
            threads = [threading.Thread(target=w.run, kwargs={"stop": stop},
                                        daemon=True) for w in workers]
            for thread in threads:
                thread.start()
            try:
                first = cluster_build(CoordinatorClient(host, port),
                                      "lulesh", ["ault23", "ault25"], store,
                                      cache=cache)
                assert first.cold_groups and not first.warm_groups
                # Evict every lower entry (keep blobs irrelevant — the
                # index probe is what routing reads).
                for key, record in cache.entries().items():
                    if record.namespace == "lower":
                        cache.evict(key)
                second = cluster_build(CoordinatorClient(host, port),
                                       "lulesh", ["ault23", "ault25"], store,
                                       cache=cache)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10)
        assert second.cold_groups and not second.warm_groups
        assert any("/lower/" in job_id for job_id in second.jobs)
        assert second.duplicate_lowerings == 0
        assert all(rec["state"] == "done" for rec in second.jobs.values())
