"""Cross-process trace propagation, end to end at true process granularity:
a served store subprocess, a coordinator subprocess, two worker
subprocesses, and one in-test ``cluster build --json --trace`` must export
a single trace whose spans come from at least three distinct pids with no
dangling parents. The same run is the farm with a served store as its
data plane: every artifact rides pooled wire sessions, and the build
still deploys in request order with zero duplicate lowerings. One worker
runs behind a ``--local-tier``, so its reads go through its own tier."""

import json
import os
import subprocess
import sys

import repro
from repro.telemetry.export import spans_from_chrome, validate_chrome_trace
from repro.telemetry.registry import totals_by_label

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn(argv):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv], env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def _await_listening(proc, what):
    """Servers print 'listening on HOST:PORT' once bound (port 0 lets the
    OS pick); block on that line and return the port."""
    line = proc.stdout.readline()
    assert "listening on" in line, f"{what} did not come up: {line!r}"
    return int(line.rsplit(":", 1)[1])


WORKERS = ("trace-w0", "trace-w1")
TIERED = "trace-w1"
SYSTEMS = ["ault23", "ault25", "dev-machine"]


def _cli(*argv) -> str:
    done = subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                          env=_env(), capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def test_one_build_correlates_three_processes(tmp_path):
    store_dir = str(tmp_path / "store")
    trace_path = str(tmp_path / "trace.json")
    procs = []
    try:
        store_proc = _spawn(["cache", "serve", "--store", store_dir,
                             "--port", "0"])
        procs.append(store_proc)
        store_port = _await_listening(store_proc, "store server")

        coord_proc = _spawn(["cluster", "serve", "--port", "0"])
        procs.append(coord_proc)
        coord_port = _await_listening(coord_proc, "coordinator")

        for worker in WORKERS:
            tier = (["--local-tier", str(tmp_path / "tiers")]
                    if worker == TIERED else [])
            procs.append(_spawn([
                "cluster", "worker",
                "--coordinator", f"127.0.0.1:{coord_port}",
                "--store-server", f"127.0.0.1:{store_port}",
                "--worker-id", worker, "--max-idle-seconds", "120", *tier]))
        # Both workers parked in fetch before the build submits: each
        # wave then hands the tiered worker a job.
        seen = set()
        for _ in range(100):
            seen = set(json.loads(_cli("cluster", "status",
                                       "--coordinator",
                                       f"127.0.0.1:{coord_port}",
                                       "--json"))["workers"])
            if seen >= set(WORKERS):
                break
        assert seen >= set(WORKERS), seen

        report = json.loads(_cli(
            "cluster", "build", "--app", "lulesh",
            "--systems", ",".join(SYSTEMS),
            "--coordinator", f"127.0.0.1:{coord_port}",
            "--store-server", f"127.0.0.1:{store_port}",
            "--json", "--trace", trace_path))
        status = json.loads(_cli("cluster", "status", "--coordinator",
                                 f"127.0.0.1:{coord_port}", "--json"))
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.communicate(timeout=30)

    # The served store as the farm's data plane.
    assert [d["system"] for d in report["deployments"]] == SYSTEMS
    assert report["lowerings_performed"] == report["lower_entries_created"]
    assert report["duplicate_lowerings"] == 0, report
    ran = {rec["worker"] for rec in report["jobs"].values()}
    assert ran and ran <= set(WORKERS), ran
    # `cluster status --json`: the scheduler's row per worker, and the
    # workers' heartbeat counters under their label in the registry.
    workers = status["workers"]
    assert all("queue_depth" in workers[w] for w in WORKERS), workers
    counts = totals_by_label(status["metrics"]["counters"], "worker")
    assert any(c.get("cluster.worker.jobs_done", 0) > 0
               for c in counts.values()), counts
    assert status["job_duration_seconds"]["count"] == len(report["jobs"])
    # The CLI's --local-tier wiring over a served store: the tiered
    # worker's reads went through its tier.
    tiered = counts[TIERED]
    assert tiered.get("store.tier.hits", 0) + \
        tiered.get("store.tier.misses", 0) > 0, tiered

    doc = json.load(open(trace_path))
    assert validate_chrome_trace(doc) == []

    spans = spans_from_chrome(doc)
    assert spans
    # One correlated trace...
    assert len({sp.trace_id for sp in spans}) == 1
    # ...spanning at least client + worker + store-server pids.
    by_process = {}
    for sp in spans:
        by_process.setdefault(sp.process, set()).add(sp.pid)
    assert len({pid for pids in by_process.values() for pid in pids}) >= 3
    for process in ("client", "coordinator", "store-server"):
        assert process in by_process, sorted(by_process)
    traced = sorted(set(by_process) & set(WORKERS))
    assert traced, sorted(by_process)

    # Parent links really cross process boundaries: some worker span's
    # parent was recorded by a different pid.
    span_pid = {sp.span_id: sp.pid for sp in spans}
    worker_pid = next(iter(by_process[traced[0]]))
    assert any(sp.parent_id and span_pid.get(sp.parent_id) != sp.pid
               for sp in spans if sp.pid == worker_pid)

    # The build's job spans exist and nest under the trace: a worker job
    # span and the store-server request spans it caused.
    names = {sp.name for sp in spans}
    assert any(name.startswith("cluster.worker.") for name in names)
    assert any(name.startswith("store.server.") for name in names)
    assert any(name.startswith("cluster.job.") for name in names)
