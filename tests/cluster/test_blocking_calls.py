"""Blocking ``fetch`` and ``wait``: what parks, and every way it is woken.

The scheduler half drives a :class:`JobQueue` and the coordinator's
command table in-process: :class:`Parked` holds one request the way the
wire loop does and ``queue.on_change`` runs its handler again, so each
test states one transition and reads the answer — no sockets, no clocks,
no sleeps. Lease deadlines use the queue's injected ``now``. The second
half runs the same calls through a real :class:`Coordinator` where the
property is about the loop, the socket or the request count.
"""

import json
import socket
import time

import pytest

import repro.cluster.coordinator as coordinator_module
from repro.apps import lulesh_configs, lulesh_model
from repro.cluster import (
    ClusterError,
    Coordinator,
    CoordinatorClient,
    JobQueue,
    LocalCluster,
)
from repro.cluster.coordinator import coordinator_commands
from repro.cluster.jobs import Job
from repro.containers import ArtifactCache, BlobStore
from repro.core import build_ir_container, deploy_batch
from repro.discovery import get_system
from repro.store.wire import (
    MAX_HEADER_BYTES,
    fold_json_body,
    read_message,
    read_response_body,
)
from repro.util.retry import NO_RETRY


def job(job_id, trace=None):
    return Job(job_id=job_id, kind="test", spec={}, trace=trace)


class Parked:
    """One request held the way the wire loop holds it: ``look`` runs the
    row's handler until it answers; :func:`farm` wires ``on_change`` to
    every parked request's ``look``."""

    def __init__(self, table, cmd, **req):
        self.command = table[cmd]
        self.req = {"cmd": cmd, **req}
        self.answer = None
        self.hint = None
        self.looks = 0
        self.look()

    def look(self):
        if self.answer is None:
            self.looks += 1
            result = self.command.handler(self.req, b"")
            if isinstance(result, tuple):
                self.answer = fold_json_body(*result)
            else:
                self.hint = result

    def timed_out(self) -> dict:
        return fold_json_body(*self.command.timeout(self.req, b""))


@pytest.fixture()
def farm():
    """``(queue, park)``: ``park(cmd, **req)`` parks a request that every
    later queue transition wakes."""
    queue = JobQueue(lease_seconds=10.0)
    table = coordinator_commands(queue)
    parked: list[Parked] = []
    queue.on_change = lambda: [call.look() for call in parked]

    def park(cmd, **req):
        parked.append(Parked(table, cmd, **req))
        return parked[-1]

    return queue, park


class TestParkedFetch:
    def test_answered_by_submit(self, farm):
        queue, park = farm
        fetch = park("fetch", worker="w1")
        assert fetch.answer is None and fetch.hint is None
        queue.submit([job("a")])
        assert fetch.answer["job"]["job_id"] == "a"
        assert queue.status(["a"])["a"]["worker"] == "w1"

    def test_answered_by_a_requeue_after_fail(self, farm):
        queue, park = farm
        queue.submit([job("a")])
        assert queue.fetch("w1").job_id == "a"
        fetch = park("fetch", worker="w2")
        assert fetch.answer is None
        assert queue.fail("a", "w1", "boom") == "ready"
        assert fetch.answer["job"]["job_id"] == "a"

    def test_answered_by_goodbye_of_the_owner(self, farm):
        queue, park = farm
        queue.submit([job("a")])
        assert queue.fetch("w1").job_id == "a"
        fetch = park("fetch", worker="w2")
        assert queue.goodbye("w1") == 1
        assert fetch.answer["job"]["job_id"] == "a"

    def test_excluded_worker_stays_parked(self, farm):
        """The only ready job is one this worker already failed: every
        wake finds nothing for it, and the next worker gets the job."""
        queue, park = farm
        queue.submit([job("a")])
        assert queue.fetch("w1").job_id == "a"
        assert queue.fail("a", "w1", "boom") == "ready"
        mine = park("fetch", worker="w1")
        assert mine.answer is None
        queue.on_change()  # a wake with nothing in it for w1
        assert mine.answer is None and mine.looks == 2
        other = park("fetch", worker="w2")
        assert other.answer["job"]["job_id"] == "a"
        assert mine.timed_out() == {"ok": True, "idle": True}

    def test_lease_deadline_is_the_look_again_hint(self, farm):
        """A parked fetch asks to be run again exactly when the nearest
        lease runs out; at that instant the job is its own."""
        queue, park = farm
        queue.submit([job("a")])
        assert queue.fetch("w1", now=100.0).job_id == "a"  # lease to 110
        assert queue.lease_wait(now=104.0) == pytest.approx(6.0)
        assert queue.fetch("w2", now=109.999) is None
        woken = []
        queue.on_change = lambda: woken.append(True)
        claimed = queue.fetch("w2", now=110.0)
        assert claimed is not None and claimed.job_id == "a"
        assert woken  # expiry is a transition: other parked requests look
        assert queue.status(["a"], now=110.0)["a"]["excluded"] == ["w1"]
        assert queue.lease_wait(now=110.0) == pytest.approx(10.0)

    def test_parked_fetch_carries_the_hint(self, farm):
        queue, park = farm
        queue.submit([job("a")])
        assert queue.fetch("w1").job_id == "a"
        fetch = park("fetch", worker="w2")
        assert fetch.answer is None
        assert 0.0 < fetch.hint <= queue.lease_seconds

    def test_metrics_are_absorbed_once_however_often_it_looks(self, farm):
        queue, park = farm
        delta = {"counters": {"cluster.worker.jobs_done": 2}, "gauges": {}}
        fetch = park("fetch", worker="w1", metrics=delta)
        queue.on_change()  # a wake with nothing in it for w1
        queue.submit([job("a")])
        assert fetch.looks == 3 and fetch.answer is not None
        counters = queue.telemetry_summary()["metrics"]["counters"]
        assert counters["cluster.worker.jobs_done{worker=w1}"] == 2


class TestParkedWait:
    def test_returns_on_a_new_completion(self, farm):
        queue, park = farm
        queue.submit([job("a"), job("b")])
        wait = park("wait", job_ids=["a", "b"])
        assert wait.answer is None
        queue.fetch("w1")
        assert wait.answer is None  # running is not progress
        queue.complete("a", "w1", {"n": 1})
        assert wait.answer["jobs"]["a"] == dict(
            wait.answer["jobs"]["a"], state="done", result={"n": 1})
        assert wait.answer["jobs"]["b"]["state"] == "ready"

    def test_does_not_return_for_what_the_caller_has_seen(self, farm):
        """The caller asks again for the jobs still pending only: a
        finished record, result included, is answered once."""
        queue, park = farm
        queue.submit([job("a"), job("b")])
        queue.fetch("w1")
        queue.complete("a", "w1", {})
        wait = park("wait", job_ids=["b"])
        assert wait.answer is None
        assert list(wait.timed_out()["jobs"]) == ["b"]

    def test_returns_at_once_on_a_failure(self):
        queue = JobQueue(max_attempts=1)
        table = coordinator_commands(queue)
        queue.submit([job("a"), job("b")])
        queue.fetch("w1")
        wait = Parked(table, "wait", job_ids=["a", "b"])
        queue.on_change = wait.look
        assert queue.fail("a", "w1", "boom") == "failed"
        assert wait.answer["jobs"]["a"]["error"] == "boom"
        # And one that is already failed never parks.
        assert Parked(table, "wait", job_ids=["a", "b"]).answer is not None

    def test_all_done_and_empty_never_park(self, farm):
        queue, park = farm
        empty = park("wait", job_ids=[]).answer
        assert empty["ok"] and empty["jobs"] == {}
        queue.submit([job("a")])
        queue.fetch("w1")
        queue.complete("a", "w1", {})
        assert park("wait", job_ids=["a"]).answer is not None

    def test_unknown_job_is_an_error_not_a_park(self, farm):
        _queue, park = farm
        with pytest.raises(ClusterError, match="unknown job"):
            park("wait", job_ids=["nope"])


class FakeClock:
    def __init__(self, now: float):
        self.now = now

    def time(self) -> float:
        return self.now

    def monotonic(self) -> float:
        return self.now


class TestJobSeconds:
    def test_queue_wait_runs_from_submission_to_claim(self, monkeypatch):
        """`b` is submitted once `a` is done, the way the farm client
        submits its deploy wave, and waits 0.5 s for a worker: that is
        its ``queued_s``, and the ``cluster.job.queued`` span starts at
        its submission."""
        clock = FakeClock(1000.0)
        monkeypatch.setattr(coordinator_module, "time", clock)
        queue = JobQueue()
        ctx = {"trace_id": "t" * 32, "parent_span_id": "p" * 16}
        queue.submit([job("a", trace=ctx)])
        queue.fetch("w1")
        clock.now = 1003.0
        queue.complete("a", "w1", {})
        queue.submit([job("b", trace=ctx)])
        clock.now = 1003.5
        assert queue.fetch("w1").job_id == "b"
        clock.now = 1005.5
        queue.complete("b", "w1", {})
        status = queue.status(["a", "b"])
        assert (status["a"]["queued_s"], status["a"]["run_s"]) == (0.0, 3.0)
        assert (status["b"]["queued_s"], status["b"]["run_s"]) == (0.5, 2.0)
        queued = {span.attrs["job_id"]: span
                  for span in queue.recorder.spans()
                  if span.name == "cluster.job.queued"}
        assert (queued["b"].start, queued["b"].duration) == (1003.0, 0.5)

    def test_a_requeue_restarts_the_queue_wait(self, monkeypatch):
        clock = FakeClock(50.0)
        monkeypatch.setattr(coordinator_module, "time", clock)
        queue = JobQueue()
        queue.submit([job("a")])
        queue.fetch("w1")
        clock.now = 54.0
        queue.fail("a", "w1", "boom")
        clock.now = 55.0
        queue.fetch("w2")
        assert queue.status(["a"])["a"]["queued_s"] == 1.0


# -- through the wire -----------------------------------------------------------

LONG = 30.0


def raw_request(sock: socket.socket, **header) -> None:
    sock.sendall(json.dumps(header).encode() + b"\n")


class TestOverTheWire:
    @pytest.mark.parametrize("header", [
        {"cmd": "submit", "jobs": [job("a").to_json()], "size": -1},
        {"cmd": "ping", "size": -26},  # the line is 25 bytes + newline
    ])
    def test_negative_body_size_is_malformed_and_runs_nothing(self, header):
        """A negative ``size`` ends the session before any handler runs:
        the header's job is not submitted, and a line as long as its
        negative size does not re-read itself and wedge the loop."""
        with Coordinator() as coord:
            with socket.create_connection(coord.address, timeout=5) as sock:
                sock.sendall(json.dumps(header, separators=(",", ":"))
                             .encode() + b"\n")
                rfile = sock.makefile("rb")
                answer = read_message(rfile)
                assert answer["ok"] is False
                assert "malformed header" in answer["error"]
                assert rfile.readline() == b""  # the session ended
            assert coord.queue.telemetry_summary()["jobs"]["total"] == 0
            client = CoordinatorClient(*coord.address, retry=NO_RETRY)
            assert client.ping()
            client.close()

    def test_lease_expiry_needs_no_other_request(self):
        """w1 takes the job and goes silent. w2's parked fetch is handed
        it when the lease runs out — two requests in total, nobody
        polled the coordinator into noticing."""
        with Coordinator(lease_seconds=0.1) as coord:
            coord.queue.submit([job("a")])
            w1 = CoordinatorClient(*coord.address, retry=NO_RETRY)
            w2 = CoordinatorClient(*coord.address, retry=NO_RETRY)
            assert w1.fetch("w1").job_id == "a"
            started = time.monotonic()
            got = w2.fetch("w2", park_seconds=LONG)
            elapsed = time.monotonic() - started
            assert got is not None and got.job_id == "a"
            assert 0.05 <= elapsed < 5.0
            assert coord.server.requests_served == 2
            assert coord.queue.status(["a"])["a"]["excluded"] == ["w1"]
            w1.close()
            w2.close()

    def test_worker_killed_while_parked_owns_nothing(self):
        """A parked fetch whose connection died claims no job: the next
        worker gets it at once, on its first attempt, with no lease to
        wait out."""
        with Coordinator(lease_seconds=LONG) as coord:
            client = CoordinatorClient(*coord.address, retry=NO_RETRY)
            dead = socket.create_connection(coord.address, timeout=5)
            raw_request(dead, cmd="fetch", worker="doomed",
                        park_seconds=LONG)
            assert list(client.telemetry()["telemetry"]["workers"]) == \
                ["doomed"]  # it is parked
            dead.close()
            assert client.ping()  # the loop has seen the close
            assert coord.server._parked == {}
            client.submit([job("a")])
            got = client.fetch("w2", park_seconds=LONG)
            assert got is not None and got.job_id == "a"
            status = client.status(["a"])["a"]
            assert (status["worker"], status["attempts"]) == ("w2", 0)
            client.close()

    def test_stop_answers_parked_fetch_and_wait(self):
        coord = Coordinator()
        coord.start()
        coord.queue.submit([job("a")])
        probe = CoordinatorClient(*coord.address, retry=NO_RETRY)
        assert probe.fetch("busy").job_id == "a"
        worker = socket.create_connection(coord.address, timeout=5)
        waiter = socket.create_connection(coord.address, timeout=5)
        raw_request(worker, cmd="fetch", worker="w1", park_seconds=LONG)
        raw_request(waiter, cmd="wait", job_ids=["a"], park_seconds=LONG)
        assert probe.ping() and probe.ping()
        assert len(coord.server._parked) == 2
        probe.close()
        started = time.monotonic()
        coord.stop()
        assert read_message(worker.makefile("rb")) == {"ok": True,
                                                       "idle": True}
        rfile = waiter.makefile("rb")
        answer = read_message(rfile)
        fold_json_body(answer, read_response_body(rfile, answer))
        assert answer["jobs"]["a"]["state"] == "running"
        assert time.monotonic() - started < 5.0
        worker.close()
        waiter.close()

    def test_a_result_longer_than_a_header_line_round_trips(self):
        """A stage job's result carries its configuration's manifest, more
        than the one-line header may hold: ``complete`` sends it, and
        ``status`` and ``wait`` answer it, in the body."""
        result = {"rows": ["x" * 100] * (MAX_HEADER_BYTES // 100 + 10)}
        with Coordinator() as coord:
            client = CoordinatorClient(*coord.address, retry=NO_RETRY)
            client.submit([job("a")])
            assert client.fetch("w1").job_id == "a"
            assert client.complete("a", "w1", result) is True
            assert client.status(["a"])["a"]["result"] == result
            assert client.wait([job("a")], timeout=5)["a"]["result"] == result
            client.close()

    def test_wait_times_out_on_a_stalled_wave(self):
        with Coordinator() as coord:
            client = CoordinatorClient(*coord.address, retry=NO_RETRY)
            client.submit([job("a")])
            started = time.monotonic()
            with pytest.raises(ClusterError, match="timed out waiting"):
                client.wait([job("a")], timeout=0.1)
            assert 0.1 <= time.monotonic() - started < 5.0
            # One submit, then parks — never a poll loop.
            assert coord.server.requests_served <= 4
            assert client.wait([]) == {}
            client.close()

    def test_an_idle_worker_leaves_at_its_cutoff_and_says_goodbye(self):
        """`run(max_idle_seconds=)`, the exit a worker keeps: its parked
        fetch runs out at the cutoff, the worker says goodbye — the
        coordinator forgets it — and closes its coordinator client."""
        from repro.cluster import ClusterWorker
        with Coordinator() as coord:
            client = CoordinatorClient(*coord.address)
            worker = ClusterWorker(client, BlobStore(), worker_id="w-idle")
            started = time.monotonic()
            worker.run(max_idle_seconds=0.3)
            assert 0.3 <= time.monotonic() - started < 5.0
            # It was there — its fetches carried heartbeat metrics — and
            # is gone: the scheduler's row is empty, only those remain.
            assert coord.queue.telemetry_summary()["workers"] == \
                {"w-idle": {}}
            assert client._pool.closed

    def test_no_wake_is_lost_under_contention(self):
        """Six workers parked on a strictly sequential chain of jobs —
        each submitted once the one before it is done — with the thread
        switch interval cut so the loop, the workers and the submitter
        interleave as finely as they can: every submit and every
        completion must wake someone, or the chain stalls and a wait
        below times out instead of the park running out."""
        import sys
        import threading

        chain = [job(f"j{k}") for k in range(90)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Coordinator() as coord:
                def work(name: str) -> None:
                    client = CoordinatorClient(*coord.address,
                                               retry=NO_RETRY)
                    try:
                        while True:
                            got = client.fetch(name, park_seconds=LONG)
                            if got is None:
                                continue
                            client.complete(got.job_id, name, {})
                            if got.job_id.startswith("last-"):
                                return  # one sentinel each, below
                    finally:
                        client.close()

                names = [f"w{i}" for i in range(6)]
                threads = [threading.Thread(target=work, args=(name,),
                                            daemon=True) for name in names]
                for thread in threads:
                    thread.start()
                submitter = CoordinatorClient(*coord.address, retry=NO_RETRY)
                done = {}
                for link in chain:
                    submitter.submit([link])
                    done.update(submitter.wait([link], timeout=20))
                assert all(rec["state"] == "done" and rec["attempts"] == 0
                           for rec in done.values())
                sentinels = [job(f"last-{name}") for name in names]
                submitter.submit(sentinels)
                submitter.wait(sentinels, timeout=20)
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert coord.server._parked == {}
                submitter.close()
        finally:
            sys.setswitchinterval(interval)


SYSTEMS = ["ault23", "ault25"]
OPTS = {"WITH_MPI": "OFF", "WITH_OPENMP": "ON"}


class TestFarmRequestCount:
    def test_a_build_costs_a_few_requests_per_job(self, tmp_path):
        """Count, not clock: with blocking calls a whole farm build is
        about three requests a job (fetch, complete, the submitter's
        wake-up) — at the parent commit the same build served several
        times that in status polls and idle fetches. And it still
        produces exactly what one process produces."""
        app = lulesh_model()
        store = BlobStore()
        cache = ArtifactCache(store)
        result = build_ir_container(app, lulesh_configs(), store=store,
                                    cache=cache)
        batch = deploy_batch(result, app, OPTS,
                             [get_system(n) for n in SYSTEMS], store,
                             cache=cache)
        with LocalCluster(workers=2,
                          store_dir=str(tmp_path / "store")) as cluster:
            report = cluster.build("lulesh", SYSTEMS)
            served = cluster.coordinator.server.requests_served
        assert served <= 3 * len(report.jobs) + 10, (served,
                                                     len(report.jobs))
        assert report.image_digest == result.image.digest
        reference = {d.system.name: d for d in batch.deployments}
        for dep in report.deployments:
            ref = reference[dep["system"]]
            assert (dep["tag"], dep["image_digest"]) == (ref.tag,
                                                         ref.image.digest)
        assert report.duplicate_lowerings == 0
        assert all(set(rec) >= {"queued_s", "run_s", "result"}
                   for rec in report.jobs.values())
