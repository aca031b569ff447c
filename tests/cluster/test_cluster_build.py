"""End-to-end cluster builds: equivalence, dedup, and warm ISA groups."""

import pytest

from repro.apps import lulesh_configs, lulesh_model
from repro.cluster import ClusterError, LocalCluster
from repro.containers import ArtifactCache, BlobStore
from repro.core import IRPipelineError, build_ir_container, deploy_batch
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
    def cluster_report(self, tmp_path_factory):
        store_dir = str(tmp_path_factory.mktemp("farm") / "store")
        with LocalCluster(workers=3, store_dir=store_dir) as cluster:
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


class TestWaveOrder:
    def test_deploy_wave_is_submitted_once_the_stage_wave_is_done(
            self, monkeypatch, tmp_path):
        """The client's wave barrier is the only thing that orders jobs:
        the deploy wave reaches the queue after every stage job is done,
        and each job is claimable the moment its submit returns."""
        with LocalCluster(workers=2,
                          store_dir=str(tmp_path / "store")) as cluster:
            queue = cluster.coordinator.queue
            submit = queue.submit
            waves = []

            def recording_submit(jobs):
                before = queue.status()
                count = submit(jobs)
                after = queue.status([job.job_id for job in jobs])
                waves.append(({job.kind for job in jobs}, before, after))
                return count

            monkeypatch.setattr(queue, "submit", recording_submit)
            cluster.build("lulesh", ["ault23", "ault25"])
        assert [kinds for kinds, _, _ in waves] == [{"ir-compile"},
                                                     {"deploy"}]
        (_, before_stages, stages), (_, before_deploys, deploys) = waves
        assert before_stages == {}
        assert set(before_deploys) == set(stages)
        assert {rec["state"] for rec in before_deploys.values()} == {"done"}
        assert all(rec["state"] in ("ready", "running", "done")
                   for rec in [*stages.values(), *deploys.values()])


class TestRepeatedConfiguration:
    def test_refused_before_the_stage_wave_is_submitted(self, tmp_path):
        """Two configurations with one name are refused, naming both,
        before a single job reaches the queue."""
        first = lulesh_configs()[0]
        with LocalCluster(workers=1,
                          store_dir=str(tmp_path / "store")) as cluster:
            with pytest.raises(IRPipelineError, match="both named") as info:
                cluster.build("lulesh", ["ault23"],
                              configs=[first, dict(first)])
            assert cluster.coordinator.queue.status() == {}
        assert str(first) in str(info.value)


class TestStoreAwareRouting:
    def test_second_build_routes_every_group_warm(self, tmp_path):
        with LocalCluster(workers=2,
                          store_dir=str(tmp_path / "store")) as cluster:
            first = cluster.build("lulesh", SYSTEMS)
            second = cluster.build("lulesh", SYSTEMS)
        assert first.cold_groups and not first.warm_groups
        assert second.warm_groups == first.cold_groups
        assert not second.cold_groups
        assert second.lowerings_performed == 0
        # Every deployment's lowerings were lookups that hit.
        assert second.lowerings_reused == \
            sum(d["lowered_count"] for d in second.deployments)
        assert second.lower_entries_created == 0
        # Each warm group is one deploy job that lowered nothing.
        groups = [rec["result"] for job_id, rec in second.jobs.items()
                  if job_id.split("/")[1] == "deploy"]
        assert sorted(f"{g['family']}/{g['simd']}" for g in groups) == \
            sorted(second.warm_groups)
        assert all(g["lowerings_performed"] == 0 for g in groups)

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
        # Only the cold ISA's lowerings actually ran: as many as the
        # warm-up performed for the other ISA, one per lowering task.
        assert report.lowerings_performed == warmup.lowerings_performed > 0
        assert report.lower_entries_created == report.lowerings_performed
        assert report.duplicate_lowerings == 0


class TestDuplicateIRCompiles:
    def test_side_by_side_stage_jobs_compile_each_ir_once(self, tmp_path):
        """Two worker processes run the stage jobs side by side on a cold
        store, each publishing only when it finishes; the jobs build
        disjoint source shares, so LULESH's 14 IRs are compiled once each,
        and a warm rerun compiles none."""
        with LocalCluster(workers=2,
                          store_dir=str(tmp_path / "store")) as cluster:
            cold = cluster.build("lulesh", SYSTEMS)
            warm = cluster.build("lulesh", SYSTEMS)
        stage_jobs = [rec for job_id, rec in cold.jobs.items()
                      if job_id.split("/")[1] == "ir"]
        assert len(stage_jobs) == len(lulesh_configs())
        compiled = sum(rec["result"]["ir_compile_ops"] for rec in stage_jobs)
        assert (compiled, cold.build_stats["final_irs"]) == (14, 14)
        assert cold.duplicate_ir_compiles == 0
        assert cold.to_json()["duplicate_ir_compiles"] == 0
        assert warm.duplicate_ir_compiles == 0  # nothing compiled at all


class TestFileBackedCluster:
    def test_workers_share_a_file_store(self, tmp_path):
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

    def test_incompatible_system_skipped_when_asked(self, tmp_path):
        with LocalCluster(workers=2,
                          store_dir=str(tmp_path / "store")) as cluster:
            report = cluster.build("lulesh", ["ault23", "clariden"],
                                   skip_incompatible=True)
        assert [d["system"] for d in report.deployments] == ["ault23"]
        assert "clariden" in report.incompatible


class TestFixedFleet:
    """A LocalCluster forks the fleet it was asked for, from start to
    stop: the coordinator knows its size, and ``stop()`` reaps it."""

    @pytest.mark.parametrize("kwargs, match", [
        ({"mode": "cloud", "store_dir": "unused"}, "mode"),
        ({"mode": "thread", "store_dir": "unused"}, "mode"),
        ({}, "store_dir")], ids=["unknown-mode", "thread-mode", "no-store-dir"])
    def test_a_fleet_it_cannot_fork_is_refused(self, kwargs, match):
        with pytest.raises(ClusterError, match=match):
            LocalCluster(workers=2, **kwargs)

    @pytest.mark.parametrize("asked, fleet", [(0, 1), (3, 3)])
    def test_the_coordinator_expects_the_whole_fleet(self, asked, fleet,
                                                     tmp_path):
        with LocalCluster(workers=asked,
                          store_dir=str(tmp_path / "store")) as cluster:
            assert cluster.coordinator.queue.expected_workers == fleet
            assert len(cluster.worker_pids) == fleet


class TestSubprocessWorkers:
    def test_process_mode_builds_and_dedups(self, tmp_path):
        """Two real worker subprocesses sharing one FileBackend store."""
        store_dir = str(tmp_path / "store")
        with LocalCluster(workers=2, store_dir=store_dir) as cluster:
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

    def test_gc_between_builds_relowers_on_the_same_coordinator(
            self, tmp_path):
        """Coordinator memory must not outvote the store: after GC evicts
        the lowered modules, a second build on the *same* coordinator
        must re-lower them (every group cold, zero duplicates) rather
        than let the first build's finished jobs stand in for
        artifacts. The eviction reaches the forked workers the way any
        other writer's does: through the store's index."""
        with LocalCluster(workers=2,
                          store_dir=str(tmp_path / "store")) as cluster:
            first = cluster.build("lulesh", ["ault23", "ault25"])
            assert first.cold_groups and not first.warm_groups
            # Evict every lower entry (the blobs stay: a lookup goes
            # through the index, so the lowerings are misses).
            for key, record in cluster.cache.entries().items():
                if record.namespace == "lower":
                    cluster.cache.evict(key)
            second = cluster.build("lulesh", ["ault23", "ault25"])
        assert second.cold_groups == first.cold_groups
        assert not second.warm_groups
        assert second.lowerings_performed == first.lowerings_performed
        assert second.lower_entries_created == second.lowerings_performed
        assert second.duplicate_lowerings == 0
        assert all(rec["state"] == "done" for rec in second.jobs.values())
