"""Process-mode LocalCluster forks its workers: children of the caller
that share nothing live with it — not the coordinator's port, not its
telemetry, not a lock — and are reaped by ``stop()``. Counts and states
only; nothing here sleeps."""

import multiprocessing
import os
import select
import signal
import socket

import pytest

from repro.apps import lulesh_configs, lulesh_model
from repro.cluster import LocalCluster
from repro.cluster.jobs import Job
from repro.containers import ArtifactCache, BlobStore
from repro.core import build_ir_container, deploy_batch
from repro.discovery import get_system
from repro.telemetry import events as _events
from repro.telemetry import registry as _registry
from repro.telemetry import trace as _trace
from repro.telemetry.flightrec import load_crash_dump

SYSTEMS = ["ault23", "ault25", "dev-machine"]
OPTS = {"WITH_MPI": "OFF", "WITH_OPENMP": "ON"}
PROCS = {"proc-0", "proc-1"}


@pytest.fixture(scope="module")
def undisturbed():
    """The same batch in one process, no farm: image digest and tags."""
    app = lulesh_model()
    store = BlobStore()
    cache = ArtifactCache(store)
    result = build_ir_container(app, lulesh_configs(), store=store,
                                cache=cache)
    batch = deploy_batch(result, app, OPTS,
                         [get_system(n) for n in SYSTEMS], store, cache=cache)
    return result.image.digest, {d.system.name: (d.tag, d.image.digest)
                                 for d in batch.deployments}


def _farm(tmp_path, **kwargs):
    return LocalCluster(mode="process", store_dir=str(tmp_path / "store"),
                        **kwargs)


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _in_fork(target) -> int:
    """Run ``target`` in a forked child; its exit code, None if it hung."""
    child = multiprocessing.get_context("fork").Process(target=target)
    child.start()
    child.join(timeout=30)
    if child.exitcode is None:  # pragma: no cover - the failure path
        child.kill()
        child.join()
        return None
    return child.exitcode


class TestWorkersAreChildren:
    def test_children_of_the_caller_run_every_job_and_are_reaped(
            self, tmp_path, undisturbed):
        with _farm(tmp_path, workers=2) as cluster:
            pids = list(cluster.worker_pids)
            assert len(pids) == 2
            # (0, 0): a child of this process, and still running — for
            # anybody else's process this raises ChildProcessError.
            assert [os.waitpid(pid, os.WNOHANG) for pid in pids] == \
                [(0, 0), (0, 0)]
            report = cluster.build("lulesh", SYSTEMS)
        workers_used = {rec["worker"] for rec in report.jobs.values()}
        assert workers_used and workers_used <= PROCS
        image_digest, deployments = undisturbed
        assert report.image_digest == image_digest
        assert {d["system"]: (d["tag"], d["image_digest"])
                for d in report.deployments} == deployments
        assert cluster.worker_pids == []
        assert all(_gone(pid) for pid in pids)

    def test_a_second_cluster_in_the_same_process_works(self, tmp_path):
        for round_ in ("first", "second"):
            with _farm(tmp_path / round_, workers=1) as cluster:
                [pid] = cluster.worker_pids
                report = cluster.build("lulesh", ["ault23"])
            assert report.duplicate_lowerings == 0
            assert {rec["worker"] for rec in report.jobs.values()} == \
                {"proc-0"}
            assert _gone(pid)

    def test_no_child_holds_the_coordinators_port(self, tmp_path):
        """An orphaned worker sees its coordinator *refuse* — that is
        what ``max_coordinator_downtime`` counts from."""
        cluster = _farm(tmp_path, workers=1).start()
        try:
            # The one worker ran every job, so it is past the point
            # where it dropped what it inherited.
            cluster.build("lulesh", ["ault23"])
            address = cluster.coordinator.address
            cluster.coordinator.stop()
            assert os.waitpid(cluster.worker_pids[0], os.WNOHANG) == (0, 0)
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(address, timeout=5)
        finally:
            cluster.stop()

    def test_each_worker_has_its_own_tier_directory(self, tmp_path):
        tiers = tmp_path / "tiers"
        with _farm(tmp_path, workers=2,
                   local_tier_dir=str(tiers)) as cluster:
            report = cluster.build("lulesh", SYSTEMS)
        assert report.duplicate_lowerings == 0
        workers_used = {rec["worker"] for rec in report.jobs.values()}
        made = set(os.listdir(tiers))
        assert workers_used <= made <= PROCS
        assert all(os.listdir(tiers / worker) for worker in workers_used)


class TestAWorkerDies:
    def test_sigkill_of_a_leaseholder_leaves_the_build_to_the_other(
            self, tmp_path, undisturbed):
        cluster = _farm(tmp_path, workers=2, lease_seconds=0.5)
        queue = cluster.coordinator.queue
        granted = queue.fetch
        killed: list[tuple[str, str]] = []

        def grant_then_kill(worker_id, now=None):
            # On the coordinator's loop, in the step that grants the
            # lease: the first worker to hold one dies holding it.
            job = granted(worker_id, now)
            if job is not None and not killed:
                killed.append((worker_id, job.job_id))
                os.kill(cluster.worker_pids[int(worker_id[-1])],
                        signal.SIGKILL)
            return job

        queue.fetch = grant_then_kill
        with cluster:
            report = cluster.build("lulesh", SYSTEMS)
        [(victim, job_id)] = killed
        [survivor] = PROCS - {victim}
        assert {rec["worker"] for rec in report.jobs.values()} == {survivor}
        # One lease lost (to the kill), none since.
        assert report.jobs[job_id]["attempts"] == 1
        assert sum(rec["attempts"] for rec in report.jobs.values()) == 1
        image_digest, deployments = undisturbed
        assert report.image_digest == image_digest
        assert {d["system"]: (d["tag"], d["image_digest"])
                for d in report.deployments} == deployments
        assert report.duplicate_lowerings == 0

    def test_fault_injection_set_before_start_arms_the_fork(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash")
        monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path / "dumps"))
        config = lulesh_configs()[0]
        job = Job(job_id="pp", kind="ir-compile",
                  spec={"build": {"app": "lulesh", "configs": [config]},
                        "config": config})
        with _farm(tmp_path, workers=1) as cluster:
            [pid] = cluster.worker_pids
            cluster.client.submit([job])
            # Readable once the worker is dead (an unarmed one would
            # finish the job and park; this then gives up, not hangs).
            pidfd = os.pidfd_open(pid)
            try:
                assert select.select([pidfd], [], [], 60)[0]
            finally:
                os.close(pidfd)
            # Left through os._exit(1), after the flight recorder; not
            # reaped here — that is stop()'s.
            exited = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            assert (exited.si_code, exited.si_status) == (os.CLD_EXITED, 1)
        [dump] = (tmp_path / "dumps").glob("crash-proc-0-*.json")
        dump = load_crash_dump(str(dump))
        assert dump["service"] == "proc-0" and dump["pid"] == pid
        assert dump["exception"]["type"] == "_InjectedFault"


class TestForkSafeTelemetry:
    def test_a_fork_under_held_telemetry_locks_still_works(self):
        def child():
            _registry.set_registry(_registry.MetricsRegistry())
            _events.set_event_log(_events.EventLog())
            _events.emit("info", "alive")
            assert len(_events.get_event_log()) == 1

        with _registry._default_lock, _events._global_lock:
            assert _in_fork(child) == 0

    def test_a_child_starts_with_fresh_process_globals(self):
        recorder = _trace.TraceRecorder()
        _registry.get_registry().counter("parent.only").inc()
        _events.emit("info", "parent only")

        def child():
            assert _trace.active_recorder() is None
            assert _trace.current() is None
            assert _trace.service_name() == f"pid-{os.getpid()}"
            with _trace.span("child.work") as span:
                assert span is None
            assert _registry.get_registry().snapshot()["counters"] == {}
            assert len(_events.get_event_log()) == 0

        previous = _trace.set_global_recorder(recorder)
        _trace.set_service("parent")
        try:
            with _trace.span("parent.open"):
                assert _in_fork(child) == 0
        finally:
            _trace.set_global_recorder(previous)
            _trace.set_service("")
        assert [span.name for span in recorder.spans()] == ["parent.open"]

    def test_worker_spans_reach_the_caller_only_through_the_farm(
            self, tmp_path):
        recorder = _trace.TraceRecorder()
        previous = _trace.set_global_recorder(recorder)
        try:
            with _farm(tmp_path, workers=2) as cluster:
                pids = set(cluster.worker_pids)
                with _trace.span("test.build"):
                    cluster.build("lulesh", ["ault23"])
                farm_spans = cluster.drain_spans()
        finally:
            _trace.set_global_recorder(previous)
        assert recorder.spans()
        assert {span.pid for span in recorder.spans()} == {os.getpid()}
        from_workers = [span for span in farm_spans if span.pid in pids]
        assert {span.name for span in from_workers} >= {
            "cluster.worker.ir-compile", "cluster.worker.lower",
            "cluster.publish"}
        # Service name = worker id, and only what a job's own recorder
        # took: nothing a child wrote into an inherited global one.
        assert {span.process for span in from_workers} <= PROCS
