"""Crash-path observability: a worker subprocess dies mid-job and leaves
a flight-recorder dump whose error event carries the failing execution's
trace/span ids; the coordinator narrates the lease expiry; the job still
finishes elsewhere."""

import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from repro.cluster import ClusterWorker, Coordinator, CoordinatorClient
from repro.cluster.jobs import BuildSpec, ir_compile_job
from repro.containers import BlobStore
from repro.telemetry import events as _events
from repro.telemetry.events import EventLog
from repro.telemetry.export import spans_from_chrome
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
    build = BuildSpec(app="lulesh",
                      configs=({"WITH_MPI": "OFF", "WITH_OPENMP": "ON"},))
    return replace(ir_compile_job(build, 0, 1), job_id=job_id,
                   trace={"trace_id": TRACE_ID, "parent_span_id": "0" * 16})


def _cli_env(**extra):
    """The environment a ``python -m repro.cli`` child runs this tree in."""
    env = dict(os.environ)
    src_dir = os.path.abspath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "..", "..", "src"))
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


def _spawn_cli_worker(host, port, store_dir, crash_dir, worker_id="crashy"):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "cluster", "worker",
         "--coordinator", f"{host}:{port}", "--store", str(store_dir),
         "--worker-id", worker_id],
        env=_cli_env(REPRO_FAULT_INJECT="crash",
                     REPRO_CRASH_DIR=str(crash_dir)),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


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
            steady = ClusterWorker(CoordinatorClient(host, port),
                                   BlobStore(), worker_id="steady")
            assert steady.run_one() is True
            assert client.status(["pp"])["pp"]["state"] == "done"

            # An on-demand coordinator dump holds the same incident from
            # the other side: the lease-expiry event, and the job's
            # lifecycle spans under the trace id the worker's error event
            # carries — the cross-link `telemetry report --trace` uses.
            queue = coordinator.queue
            rec = FlightRecorder(directory=str(tmp_path / "coord"),
                                 recorder=queue.recorder,
                                 registry=queue.registry,
                                 event_log=isolated_log)
            coord_dump = load_crash_dump(rec.dump(reason="post-mortem"))
            assert any(e["message"] == "lease expired"
                       for e in coord_dump["events"])
            trace_ids = {sp["trace_id"] for sp in coord_dump["spans"]}
            assert event["trace_id"] in trace_ids


class TestKilledCliWorkerDump:
    def test_build_finishes_and_the_dump_cross_links_its_trace(
            self, tmp_path):
        """A farm of ``python -m repro.cli`` processes: the armed worker
        starts alone, so it claims the first job and dies on the injected
        fault; the short lease re-queues that job and a healthy worker
        started after the death finishes the batch. The dump's error
        event resolves against the build's ``--trace`` export, and
        ``telemetry report`` cross-links the two."""
        store, dumps = str(tmp_path / "store"), tmp_path / "dumps"
        trace = str(tmp_path / "trace.json")
        procs = []

        def cli(*argv, **env):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *argv], cwd=tmp_path,
                env=_cli_env(**env), stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True)
            procs.append(proc)
            return proc

        def output(proc):
            out, err = proc.communicate(timeout=240)
            assert proc.returncode == 0, err[-4000:]
            return out

        try:
            serve = cli("cluster", "serve", "--port", "0",
                        "--lease-seconds", "1")
            banner = serve.stdout.readline()
            match = re.search(r"listening on \S+:(\d+)$", banner.strip())
            assert match, (banner, serve.poll())
            coordinator = f"127.0.0.1:{match.group(1)}"
            worker = ("cluster", "worker", "--coordinator", coordinator,
                      "--store", store, "--max-idle-seconds", "60")
            armed = cli(*worker, "--worker-id", "crash-w1",
                        REPRO_FAULT_INJECT="crash@crash-w1",
                        REPRO_CRASH_DIR=str(dumps))
            build = cli("cluster", "build", "--app", "lulesh",
                        "--systems", "ault23,ault25", "--store", store,
                        "--coordinator", coordinator, "--json",
                        "--trace", trace)
            assert armed.wait(timeout=120) != 0
            cli(*worker, "--worker-id", "crash-w2")
            report = json.loads(output(build))
            [dump_path] = dumps.glob("crash-crash-w1-*.json")
            linked = output(cli("telemetry", "report", str(dump_path),
                                "--trace", trace))
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.communicate()

        assert [d["system"] for d in report["deployments"]] == \
            ["ault23", "ault25"]
        jobs = report["jobs"].values()
        assert all(rec["state"] == "done" for rec in jobs), report["jobs"]
        assert [rec for rec in jobs if rec["attempts"]], \
            "the killed worker's job must re-queue"
        dump = load_crash_dump(str(dump_path))
        assert dump["exception"]["type"] == "_InjectedFault"
        errors = [e for e in dump["events"]
                  if e["message"] == "job execution failed"]
        assert errors, dump["events"]
        with open(trace, encoding="utf-8") as fh:
            [trace_id] = {sp.trace_id for sp in spans_from_chrome(
                json.load(fh))}
        assert errors[0]["trace_id"] == trace_id
        assert "cross-linked" in linked



class TestCoordinatorTelemetryWire:
    def _one_job_done(self, coordinator):
        host, port = coordinator.address
        client = CoordinatorClient(host, port)
        client.submit([_traced_job()])
        worker = ClusterWorker(CoordinatorClient(host, port), BlobStore(),
                               worker_id="w1")
        assert worker.run_one() is True
        return client

    def test_telemetry_op_ships_the_farm_summary_and_its_spans(self):
        """`CoordinatorClient.telemetry(drain_spans=True)` is the live
        summary plus the buffered job spans, and nothing else."""
        with Coordinator() as coordinator:
            client = self._one_job_done(coordinator)
            out = client.telemetry(drain_spans=True)
            client.close()
        assert sorted(out) == ["spans", "telemetry"]
        summary = out["telemetry"]
        counters = summary["metrics"]["counters"]
        assert counters["cluster.worker.jobs_done{worker=w1}"] >= 1
        assert summary["jobs"] == {"total": 1, "states": {"done": 1}}
        assert counters["cluster.jobs.completed"] == 1
        assert out["spans"]
        assert {span["trace_id"] for span in out["spans"]} == {TRACE_ID}

    def test_a_draining_read_empties_the_span_buffer(self):
        with Coordinator() as coordinator:
            client = self._one_job_done(coordinator)
            status = client.telemetry()
            drained = client.telemetry(drain_spans=True)["spans"]
            after = client.telemetry()
            client.close()
        # A status read ships no spans and leaves the buffer as it was.
        assert status["spans"] == []
        assert status["telemetry"]["spans_buffered"] == len(drained) > 0
        assert after["spans"] == []
        assert after["telemetry"]["spans_buffered"] == 0
