"""Worker-failure paths: crash re-queueing, zombies, duplicate publishes."""

import threading

import pytest

from repro.cluster import (
    ClusterWorker,
    Coordinator,
    CoordinatorClient,
    LocalCluster,
)
from repro.cluster.jobs import Job
from repro.containers import ArtifactCache, BlobStore


def _job(job_id, kind="ir-compile", spec=None, produces=(), requires=()):
    spec = spec if spec is not None else {
        "build": {"app": "lulesh",
                  "configs": [{"WITH_MPI": "OFF", "WITH_OPENMP": "ON"}]},
        "config": {"WITH_MPI": "OFF", "WITH_OPENMP": "ON"},
    }
    return Job(job_id=job_id, kind=kind, spec=spec,
               produces=tuple(produces), requires=tuple(requires))


class _CrashingWorker(ClusterWorker):
    """Dies (raises) mid-execution for selected jobs — once each."""

    def __init__(self, *args, crash_on=(), **kwargs):
        super().__init__(*args, **kwargs)
        self._crash_on = set(crash_on)

    def execute(self, job):
        if job.job_id in self._crash_on:
            self._crash_on.discard(job.job_id)
            raise RuntimeError(f"worker crashed on {job.job_id}")
        return super().execute(job)


class TestRequeueOnFailure:
    def test_failed_job_finishes_on_another_worker(self):
        """A job whose worker reports a crash re-runs elsewhere."""
        store = BlobStore()
        cache = ArtifactCache(store)
        with Coordinator() as coordinator:
            host, port = coordinator.address
            flaky = _CrashingWorker(CoordinatorClient(host, port), store,
                                    cache=cache, worker_id="flaky",
                                    crash_on=("pp",))
            steady = ClusterWorker(CoordinatorClient(host, port), store,
                                   cache=cache, worker_id="steady")
            coordinator.queue.submit([_job("pp", produces=("pp-key",))])
            assert flaky.run_one() is True          # fetch + crash + report
            assert flaky.jobs_failed == 1
            record = coordinator.queue.status(["pp"])["pp"]
            assert record["state"] == "ready"
            assert "flaky" in record["excluded"]
            # The excluded worker cannot reclaim it; the other one can.
            assert flaky.client.fetch("flaky") is None
            assert steady.run_one() is True
            record = coordinator.queue.status(["pp"])["pp"]
            assert record["state"] == "done"
            assert record["worker"] == "steady"

    def test_disconnected_worker_lease_expires_and_job_requeues(self):
        """No failure report at all — the worker just vanishes."""
        store = BlobStore()
        cache = ArtifactCache(store)
        with Coordinator(lease_seconds=0.05) as coordinator:
            host, port = coordinator.address
            client = CoordinatorClient(host, port)
            coordinator.queue.submit([_job("pp", produces=("pp-key",))])
            fetched = client.fetch("ghost")
            assert fetched is not None and fetched.job_id == "pp"
            # ghost never reports back; its lease expires.
            import time
            time.sleep(0.1)
            record = client.status(["pp"])["pp"]
            assert record["state"] == "ready"
            assert "ghost" in record["excluded"]
            steady = ClusterWorker(CoordinatorClient(host, port), store,
                                   cache=cache, worker_id="steady")
            assert steady.run_one() is True
            assert client.status(["pp"])["pp"]["state"] == "done"

    def test_cluster_build_survives_one_flaky_worker(self):
        """End to end: a worker that crashes on its first lower job."""
        store = BlobStore()
        cache = ArtifactCache(store)
        with Coordinator() as coordinator:
            host, port = coordinator.address
            crash_all_lowers = _FirstKindCrasher(
                CoordinatorClient(host, port), store, cache=cache,
                worker_id="flaky", crash_kind="lower")
            steady = ClusterWorker(CoordinatorClient(host, port), store,
                                   cache=cache, worker_id="steady")
            stop = threading.Event()
            threads = [threading.Thread(target=w.run, kwargs={"stop": stop},
                                        daemon=True)
                       for w in (crash_all_lowers, steady)]
            for thread in threads:
                thread.start()
            try:
                from repro.cluster import cluster_build
                report = cluster_build(
                    CoordinatorClient(host, port), "lulesh",
                    ["ault23", "ault25"], store, cache=cache)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10)
        assert [d["system"] for d in report.deployments] == \
            ["ault23", "ault25"]
        assert report.duplicate_lowerings == 0
        retried = [rec for rec in report.jobs.values() if rec["attempts"]]
        assert retried, "the flaky worker's crash must be visible as a retry"


class _FirstKindCrasher(ClusterWorker):
    """Crashes on the first job of one kind, then behaves."""

    def __init__(self, *args, crash_kind="", **kwargs):
        super().__init__(*args, **kwargs)
        self._crash_kind = crash_kind

    def execute(self, job):
        if job.kind == self._crash_kind:
            self._crash_kind = ""
            raise RuntimeError(f"injected crash on {job.job_id}")
        return super().execute(job)


class TestDuplicateCompletion:
    def test_duplicate_completion_over_the_wire_is_idempotent(self):
        with Coordinator() as coordinator:
            host, port = coordinator.address
            client = CoordinatorClient(host, port)
            coordinator.queue.submit([_job("pp", produces=("pp-key",))])
            job = client.fetch("w1")
            assert client.complete(job.job_id, "w1", {"first": True}) is True
            assert client.complete(job.job_id, "w1", {"second": True}) is False
            assert client.status([job.job_id])[job.job_id]["result"] == \
                {"first": True}

    def test_duplicate_artifact_publish_is_a_noop(self):
        """Two workers publishing the same artifact key converge on one
        entry and one blob — the store's content addressing absorbs the
        race a duplicated job creates."""
        store = BlobStore()
        cache = ArtifactCache(store)
        first = cache.put("lower", {"ir": "sha256:" + "a" * 64,
                                    "target": "avx2", "opt": 3},
                          '{"machine": "module"}')
        blobs_before = len(store)
        entries_before = len(cache.entries())
        second = cache.put("lower", {"ir": "sha256:" + "a" * 64,
                                     "target": "avx2", "opt": 3},
                           '{"machine": "module"}')
        assert second.digest == first.digest
        assert len(store) == blobs_before
        assert len(cache.entries()) == entries_before

    def test_zombie_worker_rerun_does_not_double_count(self):
        """A lease-expired worker finishing late completes into a no-op:
        the artifact was already published under the same digest and the
        coordinator keeps the first result."""
        store = BlobStore()
        cache = ArtifactCache(store)
        with Coordinator(lease_seconds=0.05) as coordinator:
            host, port = coordinator.address
            client = CoordinatorClient(host, port)
            coordinator.queue.submit([_job("pp", produces=("pp-key",))])
            zombie_job = client.fetch("zombie")
            import time
            time.sleep(0.1)  # lease expires; job re-queued
            steady = ClusterWorker(CoordinatorClient(host, port), store,
                                   cache=cache, worker_id="steady")
            assert steady.run_one() is True
            entries_after_steady = len(cache.entries())
            # The zombie finishes the same work late and reports in.
            zombie = ClusterWorker(CoordinatorClient(host, port), store,
                                   cache=cache, worker_id="zombie")
            result = zombie.execute(zombie_job)
            assert client.complete(zombie_job.job_id, "zombie",
                                   result) is False
            # Same cache keys, same digests: no new entries appeared.
            assert len(cache.entries()) == entries_after_steady


class TestLocalClusterLifecycle:
    def test_workers_shut_down_cleanly(self):
        before = threading.active_count()
        with LocalCluster(workers=2) as cluster:
            cluster.build("lulesh", ["ault23"])
        import time
        deadline = time.monotonic() + 5.0
        while threading.active_count() > before and \
                time.monotonic() < deadline:
            time.sleep(0.02)
        assert threading.active_count() <= before


class TestLeaseRenewal:
    def test_long_job_heartbeats_and_is_not_requeued(self):
        """A job outlasting the lease stays with its healthy worker: the
        renewal heartbeat extends the lease while execute() runs."""
        import time

        class SlowWorker(ClusterWorker):
            def execute(self, job):
                time.sleep(5.0)  # several leases long
                return {"slow": True}

        store = BlobStore()
        cache = ArtifactCache(store)
        # The job spans 2+ leases, but losing the lease takes three
        # *consecutive* missed heartbeats (renewal runs at lease/3) —
        # generous slack for a loaded single-core runner.
        with Coordinator(lease_seconds=2.0) as coordinator:
            host, port = coordinator.address
            slow = SlowWorker(CoordinatorClient(host, port), store,
                              cache=cache, worker_id="slow")
            done = threading.Event()

            def _work():
                slow.run_one()
                done.set()

            coordinator.queue.submit([_job("slow-job",
                                           produces=("slow-key",))])
            thread = threading.Thread(target=_work, daemon=True)
            thread.start()
            # Wait until the job is actually leased to the slow worker —
            # otherwise the vulture's first fetch can race the worker
            # thread to the coordinator and win the *initial* lease,
            # which is legitimate scheduling, not a renewal failure.
            client = CoordinatorClient(host, port)
            lease_deadline = time.monotonic() + 5.0
            while time.monotonic() < lease_deadline:
                record = client.status(["slow-job"])["slow-job"]
                if record["state"] == "running":
                    break
                time.sleep(0.05)
            assert record["state"] == "running" and \
                record["worker"] == "slow", record
            # A competing worker polls the whole time (each poll drives
            # lease expiry); it must never be handed the renewed job.
            stolen = []
            deadline = time.monotonic() + 9.0
            while not done.is_set() and time.monotonic() < deadline:
                job = client.fetch("vulture")
                if job is not None:
                    stolen.append(job.job_id)
                time.sleep(0.25)
            thread.join(timeout=5)
            assert not stolen, f"renewed job was re-leased: {stolen}"
            record = coordinator.queue.status(["slow-job"])["slow-job"]
            assert record["state"] == "done"
            assert record["worker"] == "slow"
            assert record["attempts"] == 0

    def test_renew_refuses_a_lost_lease(self):
        """A zombie that lost its lease cannot renew it back."""
        from repro.cluster.coordinator import JobQueue
        q = JobQueue(lease_seconds=30.0)
        q.submit([_job("a")])
        q.fetch("w1", now=100.0)
        assert q.renew("a", "w1", now=110.0) is True     # still the assignee
        q.fetch("w2", now=200.0)                         # expiry + re-lease
        assert q.renew("a", "w1", now=201.0) is False    # zombie refused
        assert q.renew("a", "w2", now=202.0) is True


class TestSingleWorkerFailure:
    def test_workers_1_failure_is_terminal_not_a_timeout(self):
        """A fixed one-worker cluster that fails a job must surface the
        real error promptly, not hang until the wave timeout."""
        import time
        from repro.cluster import ClusterError, cluster_build

        class AlwaysCrash(ClusterWorker):
            def execute(self, job):
                raise RuntimeError("deterministic failure")

        store = BlobStore()
        cache = ArtifactCache(store)
        from repro.cluster import Coordinator as _Coordinator
        with _Coordinator(expected_workers=1) as coordinator:
            host, port = coordinator.address
            worker = AlwaysCrash(CoordinatorClient(host, port), store,
                                 cache=cache, worker_id="only")
            stop = threading.Event()
            thread = threading.Thread(target=worker.run,
                                      kwargs={"stop": stop}, daemon=True)
            thread.start()
            start = time.monotonic()
            try:
                with pytest.raises(ClusterError, match="deterministic"):
                    cluster_build(CoordinatorClient(host, port), "lulesh",
                                  ["ault23"], store, cache=cache,
                                  job_timeout=120.0)
            finally:
                stop.set()
                thread.join(timeout=10)
        # Fast-failed, nowhere near the 120 s wave timeout.
        assert time.monotonic() - start < 30.0
