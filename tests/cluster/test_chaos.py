"""A batch survives SIGKILL of its store server and of its coordinator.

The same batch is built twice: once clean, once through a farm of real
processes — ``cache serve``, ``cluster serve``, two ``cluster worker``s
and ``cluster build`` — whose store server is killed before the workers
arrive and whose coordinator is killed while they are blocked on the
dead store. Both come back as plain restarts on the same ports: the
coordinator starts empty and the waiting build resubmits what it lost.
The two builds must produce the same image and deployments, every job
must be done with no duplicate lowering, and the retry counters in
``cluster status --json`` must show the faults were ridden out, not
dodged.

Every step waits on something observable, never on a sleep: a server's
address banner, the coordinator's job count, and the workers' first
store connections. Those land on a listener the test holds on the dead
store's port and answer nothing — to a worker, a store that hangs — so
the coordinator is provably killed while both workers are blocked on
the store; closing those connections after the store is back is what
sends each worker into its retry layer.
"""

import json
import os
import re
import socket
import subprocess
import sys
import time

import repro
from repro.cluster import CoordinatorClient
from repro.telemetry.registry import totals_by_label

SYSTEMS = "ault23,ault25,dev-machine"


class Farm:
    """The processes of one test, each a ``python -m repro.cli`` run in
    ``tmp_path``; :meth:`close` kills whatever is still running."""

    def __init__(self, tmp_path):
        self.cwd = tmp_path
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__))) + os.pathsep + \
            self.env.get("PYTHONPATH", "")
        self.env["REPRO_CRASH_DIR"] = str(tmp_path / "dumps")
        self.procs: list[subprocess.Popen] = []

    def start(self, *argv) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv], cwd=self.cwd,
            env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        self.procs.append(proc)
        return proc

    def serve(self, *argv) -> tuple[subprocess.Popen, int]:
        """Start a server; return it and the port its banner names."""
        proc = self.start(*argv)
        line = proc.stdout.readline()
        match = re.search(r"listening on \S+:(\d+)$", line.strip())
        assert match, (argv, line, proc.poll())
        return proc, int(match.group(1))

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
        for proc in self.procs:
            proc.communicate()


def _until(predicate, what: str, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.05)


def _built(proc: subprocess.Popen) -> dict:
    out, err = proc.communicate(timeout=240)
    assert proc.returncode == 0, err[-4000:]
    return json.loads(out)


def test_batch_survives_store_and_coordinator_sigkill(tmp_path):
    farm = Farm(tmp_path)
    try:
        ref = _built(farm.start(
            "cluster", "build", "--app", "lulesh", "--systems", SYSTEMS,
            "--store", str(tmp_path / "ref"), "--workers", "2", "--json"))

        store_dir = str(tmp_path / "store")
        store, store_port = farm.serve("cache", "serve", "--store",
                                       store_dir, "--port", "0")
        coordinator, port = farm.serve("cluster", "serve", "--port", "0",
                                       "--lease-seconds", "10")
        build = farm.start(
            "cluster", "build", "--app", "lulesh", "--systems", SYSTEMS,
            "--store-server", f"127.0.0.1:{store_port}",
            "--coordinator", f"127.0.0.1:{port}", "--json")
        probe = CoordinatorClient("127.0.0.1", port, timeout=5)
        _until(lambda: probe.telemetry()["telemetry"]["jobs"]["total"] > 0,
               "the batch")
        probe.close()

        # CHAOS 1: the data plane dies with the batch accepted, and the
        # workers arrive to find it dead.
        store.kill()
        store.wait()
        with socket.create_server(("127.0.0.1", store_port)) as hung:
            hung.settimeout(60)
            for worker_id in ("chaos-w1", "chaos-w2"):
                farm.start("cluster", "worker",
                           "--coordinator", f"127.0.0.1:{port}",
                           "--store-server", f"127.0.0.1:{store_port}",
                           "--worker-id", worker_id,
                           "--max-idle-seconds", "60",
                           "--max-coordinator-downtime", "60")
            blocked = [hung.accept()[0] for _ in range(2)]

            # CHAOS 2: the control plane dies while both workers are
            # blocked on the store, so no job has been fetched or
            # completed.
            coordinator.kill()
            coordinator.wait()

        # Heal the data plane, then release the workers into its retries.
        farm.serve("cache", "serve", "--store", store_dir,
                   "--port", str(store_port))
        for conn in blocked:
            conn.close()
        # A plain restart on the same port: it starts empty, and the
        # waiting build resubmits.
        farm.serve("cluster", "serve", "--port", str(port),
                   "--lease-seconds", "10")
        chaos = _built(build)

        status_cli = farm.start("cluster", "status", "--coordinator",
                                f"127.0.0.1:{port}", "--json")
        out, err = status_cli.communicate(timeout=60)
        assert status_cli.returncode == 0, err
        status = json.loads(out)
    finally:
        farm.close()

    # Byte-identical output despite both kills.
    assert chaos["image_digest"] == ref["image_digest"]

    def keyed(report):
        return {d["system"]: (d["tag"], d["image_digest"])
                for d in report["deployments"]}

    assert keyed(chaos) == keyed(ref)
    # Zero lost jobs: the whole batch reached done, nothing lowered twice.
    assert chaos["jobs"]
    assert all(rec["state"] == "done" for rec in chaos["jobs"].values()), \
        chaos["jobs"]
    assert chaos["duplicate_lowerings"] == 0
    assert [d["system"] for d in chaos["deployments"]] == \
        SYSTEMS.split(",")
    # The faults were ridden out, not dodged: the workers' retry counters
    # surface in `cluster status --json`, under each worker's label.
    workers = {w: v for w, v in totals_by_label(
        status["metrics"]["counters"], "worker").items()
        if w.startswith("chaos-")}
    assert workers, status["metrics"]["counters"]
    assert sum(v.get("store.retries", 0) + v.get("cluster.reconnects", 0)
               for v in workers.values()) > 0, workers
