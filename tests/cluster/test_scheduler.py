"""JobQueue semantics: affinity, stealing, leases, idempotency."""

import pytest

from repro.apps import lulesh_configs
from repro.cluster.coordinator import DONE, FAILED, READY, RUNNING, JobQueue
from repro.cluster.jobs import BuildSpec, ClusterError, Job, deploy_job


def job(job_id, affinity="", kind="test"):
    return Job(job_id=job_id, kind=kind, spec={}, affinity=affinity)


class TestSubmission:
    def test_every_submitted_job_is_ready_at_once(self):
        q = JobQueue()
        q.submit([job("a"), job("b"), job("c")])
        assert {rec["state"] for rec in q.status().values()} == {READY}
        assert [q.fetch("w1").job_id for _ in range(3)] == ["a", "b", "c"]
        assert q.fetch("w1") is None

    def test_duplicate_job_id_rejected(self):
        q = JobQueue()
        q.submit([job("a")])
        with pytest.raises(ClusterError, match="duplicate job id"):
            q.submit([job("a")])


class TestBuildJobGraph:
    """A deploy job names its ISA group and the image; the submitter
    orders it after the stage wave, so the job itself waits on nothing."""

    OPTIONS = {"WITH_MPI": "OFF", "WITH_OPENMP": "ON"}
    IMAGE = "sha256:" + "0" * 64

    def test_a_deploy_job_names_its_group_and_the_image(self):
        build = BuildSpec(app="lulesh", configs=tuple(lulesh_configs()))
        avx512 = deploy_job(build, self.OPTIONS, "x86_64", "AVX_512",
                            ("ault01-04", "ault23"), self.IMAGE)
        avx2 = deploy_job(build, self.OPTIONS, "x86_64", "AVX2_256",
                          ("ault25",), self.IMAGE)
        assert avx512.kind == "deploy"
        assert avx512.spec["systems"] == ["ault01-04", "ault23"]
        assert avx512.spec["image"] == self.IMAGE
        assert (avx512.spec["family"], avx512.spec["simd"]) == \
            ("x86_64", "AVX_512")
        assert avx512.affinity == \
            "deploy:lulesh:with_mpi_off-with_openmp_on:x86_64/AVX_512"
        assert avx2.affinity != avx512.affinity
        assert avx2.job_id != avx512.job_id
        assert set(avx512.to_json()) == {"job_id", "kind", "spec",
                                         "affinity"}


class TestAffinityAndStealing:
    def test_affinity_binds_to_first_claimer(self):
        q = JobQueue()
        q.submit([job("lower", affinity="isa:avx2")])
        assert q.fetch("w1").job_id == "lower"
        q.complete("lower", "w1", {})
        # Follow-up jobs with the same token land on w1's deque.
        q.submit([job("d1", affinity="isa:avx2"), job("d2", affinity="isa:avx2")])
        assert q.telemetry_summary()["affinity_owners"] == {"isa:avx2": "w1"}
        assert q.fetch("w1").job_id == "d1"

    def test_completion_hands_the_token_to_the_finisher(self):
        q = JobQueue()
        q.submit([job("a", affinity="isa:avx2"), job("b", affinity="isa:avx2")])
        assert q.fetch("w1").job_id == "a"   # first claimer owns the token
        assert q.fetch("w2").job_id == "b"   # still on the shared deque
        q.complete("b", "w2", {})
        assert q.telemetry_summary()["affinity_owners"] == {"isa:avx2": "w2"}

    def test_idle_worker_steals_from_owner(self):
        q = JobQueue()
        q.submit([job("seed", affinity="isa:avx2")])
        assert q.fetch("w1").job_id == "seed"
        q.complete("seed", "w1", {})
        q.submit([job("d1", affinity="isa:avx2"), job("d2", affinity="isa:avx2")])
        # w2 has nothing of its own: it steals from w1's queue rather than
        # idling while w1 is busy elsewhere.
        assert q.fetch("w2").job_id in ("d1", "d2")

    def test_jobs_without_affinity_go_to_shared_queue(self):
        q = JobQueue()
        q.submit([job("a"), job("b")])
        assert {q.fetch("w1").job_id, q.fetch("w2").job_id} == {"a", "b"}


class TestFailureAndLeases:
    def test_fail_requeues_with_worker_excluded(self):
        q = JobQueue()
        q.submit([job("a")])
        assert q.fetch("w1").job_id == "a"
        assert q.fail("a", "w1", "boom") == READY
        assert q.fetch("w1") is None          # excluded: cannot re-claim
        assert q.fetch("w2").job_id == "a"    # another worker can

    def test_exhausted_attempts_fail_terminally(self):
        q = JobQueue(max_attempts=2)
        q.submit([job("a")])
        q.fetch("w1"); q.fail("a", "w1", "boom1")
        q.fetch("w2"); assert q.fail("a", "w2", "boom2") == FAILED
        assert q.status(["a"])["a"]["state"] == FAILED
        assert q.status(["a"])["a"]["error"] == "boom2"

    def test_lease_expiry_requeues_with_dead_worker_excluded(self):
        """A worker that fetched and vanished loses the job at its lease."""
        q = JobQueue(lease_seconds=30.0)
        q.submit([job("a")])
        assert q.fetch("w1", now=100.0).job_id == "a"
        # w1 never reports back; any request past the lease expires it.
        assert q.fetch("w1", now=140.0) is None  # w1 excluded from its own job
        got = q.fetch("w2", now=141.0)
        assert got is not None and got.job_id == "a"
        record = q.status(["a"], now=142.0)["a"]
        assert record["state"] == RUNNING and record["worker"] == "w2"
        assert "w1" in record["excluded"]

    def test_stale_fail_report_after_lease_expiry_is_ignored(self):
        q = JobQueue(lease_seconds=30.0)
        q.submit([job("a")])
        q.fetch("w1", now=100.0)
        assert q.fetch("w2", now=140.0).job_id == "a"  # reassigned
        # w1 comes back late with a failure report for a job it lost.
        assert q.fail("a", "w1", "late") == RUNNING
        assert q.status(["a"], now=141.0)["a"]["worker"] == "w2"

    def test_goodbye_requeues_running_jobs(self):
        q = JobQueue()
        q.submit([job("a")])
        q.fetch("w1")
        assert q.goodbye("w1") == 1
        got = q.fetch("w2")
        assert got is not None and got.job_id == "a"
        assert "w1" in q.status(["a"])["a"]["excluded"]

    def test_affinity_owner_cleared_on_failure(self):
        q = JobQueue()
        q.submit([job("seed", affinity="isa:sve")])
        q.fetch("w1")
        q.fail("seed", "w1", "boom")
        assert q.telemetry_summary()["affinity_owners"] == {}
        assert q.fetch("w2").job_id == "seed"  # adoptable by the next worker


class TestIdempotentCompletion:
    def test_duplicate_completion_is_acknowledged_not_applied(self):
        q = JobQueue()
        q.submit([job("a")])
        q.fetch("w1")
        assert q.complete("a", "w1", {"n": 1}) is True
        assert q.complete("a", "w2", {"n": 2}) is False
        # First result wins; state stays done.
        record = q.status(["a"])["a"]
        assert record["state"] == DONE and record["result"] == {"n": 1}

    def test_requeued_job_completing_twice_keeps_first_result(self):
        """Lease expires, job reruns elsewhere, the zombie reports late."""
        q = JobQueue(lease_seconds=30.0)
        q.submit([job("a")])
        q.fetch("w1", now=100.0)
        assert q.fetch("w2", now=140.0).job_id == "a"   # re-leased to w2
        assert q.complete("a", "w2", {"winner": "w2"}) is True
        assert q.complete("a", "w1", {"winner": "w1"}) is False  # zombie
        assert q.status(["a"], now=141.0)["a"]["result"] == {"winner": "w2"}
        # Nothing is left to claim: the duplicate re-queued nothing.
        assert q.fetch("w1", now=143.0) is None

    def test_unknown_job_raises(self):
        q = JobQueue()
        with pytest.raises(ClusterError, match="unknown job"):
            q.complete("ghost", "w1", {})


class TestUnclaimableJobs:
    def test_failing_on_every_live_worker_is_terminal(self):
        """Two registered workers both fail a job below max_attempts: it
        must FAIL with the real error, not rotate unclaimable until the
        submitter's timeout."""
        q = JobQueue(max_attempts=5)
        q.submit([job("a")])
        q.fetch("w1"); q.fetch("w2")          # both workers registered
        # (w2 got nothing — a is leased to w1 — but is now known live.)
        assert q.fail("a", "w1", "boom-w1") == READY
        assert q.fetch("w2").job_id == "a"
        assert q.fail("a", "w2", "boom-w2") == FAILED
        record = q.status(["a"])["a"]
        assert record["state"] == FAILED
        assert record["error"] == "boom-w2"

    def test_single_known_worker_failure_waits_for_peers(self):
        """With one registered worker, a failure keeps the job READY —
        peers may simply not have polled yet (they register on first
        fetch), and the job must be claimable by them."""
        q = JobQueue(max_attempts=5)
        q.submit([job("a")])
        q.fetch("w1")
        assert q.fail("a", "w1", "boom") == READY
        assert q.fetch("late-worker").job_id == "a"


class TestTerminalStateIntegrity:
    def test_zombie_complete_cannot_resurrect_a_failed_job(self):
        """A job the queue gave up on stays FAILED: a zombie's late
        completion must not flip it to DONE behind the back of a
        submitter that has already raised on the failure."""
        q = JobQueue(max_attempts=1)
        q.submit([job("a")])
        q.fetch("w1")
        assert q.fail("a", "w1", "boom") == FAILED
        assert q.complete("a", "w1", {"late": True}) is False
        record = q.status(["a"])["a"]
        assert record["state"] == FAILED and record["result"] is None


class TestPruning:
    def _finished_job(self, q, job_id, when):
        q.submit([job(job_id)])
        q.fetch("pruner", now=when)
        q.complete(job_id, "pruner", {})
        q._records[job_id].finished_at = when

    def test_prune_spares_batches_with_inflight_siblings_and_recent_jobs(self):
        q = JobQueue()
        q.PRUNE_THRESHOLD = 4  # small for the test
        # Old, fully-finished batch: prunable.
        self._finished_job(q, "old/j1", when=-10_000.0)
        self._finished_job(q, "old/j2", when=-10_000.0)
        # Active batch: one done (long ago), one still running.
        self._finished_job(q, "act/done", when=-10_000.0)
        q.submit([job("act/running")])
        q.fetch("w1")
        # Fresh fully-finished batch: inside the grace window.
        import time as _time
        self._finished_job(q, "new/done", when=_time.monotonic())
        # A new submit triggers pruning.
        q.submit([job("next/j")])
        remaining = set(q._records)
        assert "act/done" in remaining     # sibling in flight
        assert "act/running" in remaining
        assert "new/done" in remaining     # finished too recently
        assert "old/j1" not in remaining and "old/j2" not in remaining
        # The active batch's submitter can still poll all its jobs.
        assert q.status(["act/done", "act/running"])
