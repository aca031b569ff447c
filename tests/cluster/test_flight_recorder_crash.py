"""Crash-path observability: a worker subprocess dies mid-job and leaves
a flight-recorder dump whose error event carries the failing execution's
trace/span ids; the coordinator narrates the lease expiry; the job still
finishes elsewhere."""

import os
import subprocess
import sys
import time

import pytest

from repro.cluster import ClusterWorker, Coordinator, CoordinatorClient
from repro.cluster.jobs import Job
from repro.containers import ArtifactCache, BlobStore
from repro.telemetry import events as _events
from repro.telemetry.events import EventLog
from repro.telemetry.flightrec import FlightRecorder, load_crash_dump

TRACE_ID = "f" * 32


@pytest.fixture
def isolated_log():
    """Capture coordinator-side events (the coordinator runs in this
    process) without interference from other tests."""
    log = EventLog()
    previous = _events.set_event_log(log)
    try:
        yield log
    finally:
        _events.set_event_log(previous)


def _traced_job(job_id="pp"):
    return Job(job_id=job_id, kind="ir-compile",
               spec={"build": {"app": "lulesh",
                               "configs": [{"WITH_MPI": "OFF",
                                            "WITH_OPENMP": "ON"}]},
                     "config": {"WITH_MPI": "OFF", "WITH_OPENMP": "ON"}},
               produces=("pp-key",),
               trace={"trace_id": TRACE_ID, "parent_span_id": "0" * 16})


def _spawn_cli_worker(host, port, store_dir, crash_dir, worker_id="crashy"):
    env = dict(os.environ)
    src_dir = os.path.abspath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "..", "..", "src"))
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_FAULT_INJECT"] = "crash"
    env["REPRO_CRASH_DIR"] = str(crash_dir)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "cluster", "worker",
         "--coordinator", f"{host}:{port}", "--store", str(store_dir),
         "--worker-id", worker_id],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


class TestInducedWorkerCrash:
    def test_crash_dump_carries_failing_span_and_job_finishes_elsewhere(
            self, tmp_path, isolated_log):
        crash_dir = tmp_path / "dumps"
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        with Coordinator(lease_seconds=0.3) as coordinator:
            host, port = coordinator.address
            client = CoordinatorClient(host, port)
            client.submit([_traced_job()])
            child = _spawn_cli_worker(host, port, store_dir, crash_dir)
            try:
                # The injected fault is a BaseException: it escapes the
                # per-job failure handling, kills the worker process, and
                # fires the installed flight recorder on the way down.
                assert child.wait(timeout=60) != 0
            finally:
                if child.poll() is None:  # pragma: no cover
                    child.kill()
                    child.wait()

            dumps = list(crash_dir.glob("crash-crashy-*.json"))
            assert dumps, "crashed worker left no flight-recorder dump"
            dump = load_crash_dump(str(dumps[0]))
            assert dump["service"] == "crashy"
            assert dump["exception"]["type"] == "_InjectedFault"

            # The error event was emitted inside the failing job's span:
            # it carries the submitter's trace id and a span id that
            # resolves against the spans buffered in the same dump.
            [event] = [e for e in dump["events"]
                       if e["message"] == "job execution failed"]
            assert event["level"] == "error"
            assert event["fields"]["job_id"] == "pp"
            assert event["trace_id"] == TRACE_ID
            span_ids = {sp["span_id"] for sp in dump["spans"]}
            assert event["span_id"] in span_ids

            # No failure report was ever sent — the lease expires, the
            # coordinator narrates it, and the job re-queues.
            deadline = time.time() + 10
            record = client.status(["pp"])["pp"]
            while record["state"] != "ready" and time.time() < deadline:
                time.sleep(0.05)
                record = client.status(["pp"])["pp"]
            assert record["state"] == "ready"
            assert "crashy" in record["excluded"]
            expiries = [e for e in isolated_log.snapshot()
                        if e.message == "lease expired"]
            assert expiries and expiries[0].fields["job_id"] == "pp"
            assert expiries[0].level == "warn"

            # A healthy in-process worker finishes the re-queued job.
            store = BlobStore()
            steady = ClusterWorker(CoordinatorClient(host, port), store,
                                   cache=ArtifactCache(store),
                                   worker_id="steady")
            assert steady.run_one() is True
            assert client.status(["pp"])["pp"]["state"] == "done"

            # An on-demand coordinator dump holds the same incident from
            # the other side: the lease-expiry event, and the job's
            # lifecycle spans under the trace id the worker's error event
            # carries — the cross-link `telemetry report --trace` uses.
            telemetry = coordinator.queue.telemetry
            rec = FlightRecorder(directory=str(tmp_path / "coord"),
                                 recorder=telemetry.recorder,
                                 registry=telemetry.registry,
                                 event_log=isolated_log)
            coord_dump = load_crash_dump(rec.dump(reason="post-mortem"))
            assert any(e["message"] == "lease expired"
                       for e in coord_dump["events"])
            trace_ids = {sp["trace_id"] for sp in coord_dump["spans"]}
            assert event["trace_id"] in trace_ids


class TestCoordinatorHistoryWire:
    def test_telemetry_op_ships_farm_history(self, tmp_path):
        """`CoordinatorClient.telemetry()` carries the farm's bounded
        metrics history alongside the live summary — nonzero after one
        completed job, and what `cluster top --watch` sparklines."""
        store = BlobStore()
        with Coordinator() as coordinator:
            host, port = coordinator.address
            client = CoordinatorClient(host, port)
            client.submit([_traced_job()])
            worker = ClusterWorker(CoordinatorClient(host, port), store,
                                   cache=ArtifactCache(store),
                                   worker_id="w1")
            assert worker.run_one() is True
            out = client.telemetry()
            assert out["telemetry"]["workers"]["w1"]["jobs_done"] >= 1
            history = out["history"]
            assert history["format"] == "repro-history-v1"
            series = history["series"]
            assert series["cluster.jobs.completed"][-1][1] >= 1.0
            assert series["farm.jobs_per_second"][-1][1] > 0
            assert all(len(s) <= history["max_samples"]
                       for s in series.values())
