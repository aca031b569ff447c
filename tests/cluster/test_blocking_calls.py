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
from repro.store.wire import read_message
from repro.util.retry import NO_RETRY


def job(job_id, requires=(), produces=(), trace=None):
    return Job(job_id=job_id, kind="test", spec={}, requires=tuple(requires),
               produces=tuple(produces), trace=trace)


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
                self.answer = result[0]
            else:
                self.hint = result

    def timed_out(self) -> dict:
        return self.command.timeout(self.req, b"")[0]


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

    def test_answered_by_the_completion_that_publishes_its_requires(self,
                                                                    farm):
        queue, park = farm
        queue.submit([job("a", produces=["k"]), job("b", requires=["k"])])
        assert queue.fetch("w1").job_id == "a"
        fetch = park("fetch", worker="w2")
        assert fetch.answer is None  # b is blocked, not claimable
        queue.complete("a", "w1", {})
        assert fetch.answer["job"]["job_id"] == "b"

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
        queue.release("someone-else")  # a wake with nothing in it for w1
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

    def test_release_answers_idle_and_touches_no_job(self, farm):
        queue, park = farm
        queue.submit([job("a")])
        assert queue.fetch("w1").job_id == "a"
        fetch = park("fetch", worker="w1")
        queue.release("w1")
        assert fetch.answer == {"ok": True, "idle": True}
        assert queue.status(["a"])["a"]["state"] == "running"

    def test_release_that_overtakes_the_fetch_still_lands(self, farm):
        queue, park = farm
        queue.release("w1")
        queue.submit([job("a")])
        assert park("fetch", worker="w1").answer == {"ok": True,
                                                     "idle": True}
        assert park("fetch", worker="w1").answer["job"]["job_id"] == "a"

    def test_metrics_are_absorbed_once_however_often_it_looks(self, farm):
        queue, park = farm
        delta = {"counters": {"cluster.worker.jobs_done": 2}, "gauges": {},
                 "histograms": {}}
        fetch = park("fetch", worker="w1", metrics=delta)
        queue.submit([job("x", requires=["never"])])  # blocked: no wake
        queue.release("someone-else")
        queue.submit([job("a")])
        assert fetch.looks == 3 and fetch.answer is not None
        summary = queue.telemetry_summary(include_worker_metrics=True)
        assert summary["workers"]["w1"]["jobs_done"] == 2


class TestParkedWait:
    def test_returns_on_a_new_completion(self, farm):
        queue, park = farm
        queue.submit([job("a"), job("b")])
        wait = park("wait", job_ids=["a", "b"], seen_done=0)
        assert wait.answer is None
        queue.fetch("w1")
        assert wait.answer is None  # running is not progress
        queue.complete("a", "w1", {"n": 1})
        assert wait.answer["jobs"]["a"]["state"] == "done"
        assert wait.answer["jobs"]["b"]["state"] == "ready"

    def test_does_not_return_for_what_the_caller_has_seen(self, farm):
        queue, park = farm
        queue.submit([job("a"), job("b")])
        queue.fetch("w1")
        queue.complete("a", "w1", {})
        wait = park("wait", job_ids=["a", "b"], seen_done=1)
        assert wait.answer is None
        assert wait.timed_out()["jobs"]["a"]["state"] == "done"

    def test_returns_at_once_on_a_failure(self):
        queue = JobQueue(max_attempts=1)
        table = coordinator_commands(queue)
        queue.submit([job("a"), job("b")])
        queue.fetch("w1")
        wait = Parked(table, "wait", job_ids=["a", "b"], seen_done=0)
        queue.on_change = wait.look
        assert queue.fail("a", "w1", "boom") == "failed"
        assert wait.answer["jobs"]["a"]["error"] == "boom"
        # And one that is already failed never parks.
        assert Parked(table, "wait", job_ids=["a", "b"],
                      seen_done=0).answer is not None

    def test_all_done_and_empty_never_park(self, farm):
        queue, park = farm
        assert park("wait", job_ids=[], seen_done=0).answer == {
            "ok": True, "jobs": {}}
        queue.submit([job("a")])
        queue.fetch("w1")
        queue.complete("a", "w1", {})
        assert park("wait", job_ids=["a"], seen_done=1).answer is not None

    def test_unknown_job_is_an_error_not_a_park(self, farm):
        _queue, park = farm
        with pytest.raises(ClusterError, match="unknown job"):
            park("wait", job_ids=["nope"], seen_done=0)


class FakeClock:
    def __init__(self, now: float):
        self.now = now

    def time(self) -> float:
        return self.now

    def monotonic(self) -> float:
        return self.now


class TestJobSeconds:
    def test_blocked_time_is_not_queue_wait(self, monkeypatch):
        """`b` waits 3 s for `a`'s key and 0.5 s for a worker: the first
        is ``blocked_s``, only the second is ``queued_s`` — and the
        ``cluster.job.queued`` span starts when the job turned READY."""
        clock = FakeClock(1000.0)
        monkeypatch.setattr(coordinator_module, "time", clock)
        queue = JobQueue()
        ctx = {"trace_id": "t" * 32, "parent_span_id": "p" * 16}
        queue.submit([job("a", produces=["k"], trace=ctx),
                      job("b", requires=["k"], trace=ctx)])
        queue.fetch("w1")
        clock.now = 1003.0
        queue.complete("a", "w1", {})
        clock.now = 1003.5
        assert queue.fetch("w1").job_id == "b"
        clock.now = 1005.5
        queue.complete("b", "w1", {})
        status = queue.status(["a", "b"])
        assert (status["a"]["blocked_s"], status["a"]["queued_s"],
                status["a"]["run_s"]) == (0.0, 0.0, 3.0)
        assert (status["b"]["blocked_s"], status["b"]["queued_s"],
                status["b"]["run_s"]) == (3.0, 0.5, 2.0)
        queued = {span.attrs["job_id"]: span
                  for span in queue.telemetry.recorder.spans()
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
        status = queue.status(["a"])["a"]
        assert (status["blocked_s"], status["queued_s"]) == (0.0, 1.0)


# -- through the wire -----------------------------------------------------------

LONG = 30.0


def raw_request(sock: socket.socket, **header) -> None:
    sock.sendall(json.dumps(header).encode() + b"\n")


class TestOverTheWire:
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
            assert client.stats()["workers"] == ["doomed"]  # it is parked
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
        raw_request(waiter, cmd="wait", job_ids=["a"], seen_done=0,
                    park_seconds=LONG)
        assert probe.ping() and probe.ping()
        assert len(coord.server._parked) == 2
        probe.close()
        started = time.monotonic()
        coord.stop()
        assert read_message(worker.makefile("rb")) == {"ok": True,
                                                       "idle": True}
        answer = read_message(waiter.makefile("rb"))
        assert answer["jobs"]["a"]["state"] == "running"
        assert time.monotonic() - started < 5.0
        worker.close()
        waiter.close()

    def test_wait_times_out_on_a_stalled_wave(self):
        with Coordinator() as coord:
            client = CoordinatorClient(*coord.address, retry=NO_RETRY)
            client.submit([job("a")])
            started = time.monotonic()
            with pytest.raises(ClusterError, match="timed out waiting"):
                client.wait(["a"], timeout=0.1)
            assert 0.1 <= time.monotonic() - started < 5.0
            # One submit, then parks — never a poll loop.
            assert coord.server.requests_served <= 4
            assert client.wait([]) == {}
            client.close()

    def test_stopping_a_parked_thread_worker_takes_no_park(self):
        """`stop.set()` on an idle worker: its watcher has the
        coordinator answer the parked fetch, the worker says goodbye."""
        import threading

        from repro.cluster import ClusterWorker
        with Coordinator() as coord:
            worker = ClusterWorker(CoordinatorClient(*coord.address),
                                   BlobStore(), worker_id="w-park")
            stop = threading.Event()
            thread = threading.Thread(target=worker.run,
                                      kwargs={"stop": stop}, daemon=True)
            thread.start()
            probe = CoordinatorClient(*coord.address, retry=NO_RETRY)
            deadline = time.monotonic() + 5.0
            while probe.stats()["workers"] != ["w-park"]:
                assert time.monotonic() < deadline  # its first fetch
            started = time.monotonic()
            stop.set()
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert time.monotonic() - started < 5.0
            assert probe.stats()["workers"] == []  # goodbye was said
            probe.close()


    def test_no_wake_is_lost_under_contention(self):
        """Six workers parked on a strictly sequential chain of jobs, on
        a journalled coordinator (its other handlers run on executor
        threads, so `wake` arrives from several threads at once): every
        completion must wake someone, or the chain stalls and the wait
        below times out instead of the park running out."""
        import sys
        import threading

        from repro.cluster import Journal
        from repro.store import MemoryBackend
        chain = [job(f"j{k}", requires=[f"k{k - 1}"] if k else (),
                     produces=[f"k{k}"]) for k in range(90)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Coordinator(journal=Journal(MemoryBackend(),
                                             autosave_interval=None)) as coord:
                def work(name: str) -> None:
                    client = CoordinatorClient(*coord.address,
                                               retry=NO_RETRY)
                    try:
                        while True:
                            got = client.fetch(name, park_seconds=LONG)
                            if got is None:
                                return  # released below
                            client.complete(got.job_id, name, {})
                    finally:
                        client.close()

                names = [f"w{i}" for i in range(6)]
                threads = [threading.Thread(target=work, args=(name,),
                                            daemon=True) for name in names]
                for thread in threads:
                    thread.start()
                submitter = CoordinatorClient(*coord.address, retry=NO_RETRY)
                submitter.submit(chain)
                done = submitter.wait([j.job_id for j in chain], timeout=20)
                assert all(rec["state"] == "done" and rec["attempts"] == 0
                           for rec in done.values())
                for name in names:
                    submitter.release(name)
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
    def test_a_build_costs_a_few_requests_per_job(self):
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
        with LocalCluster(workers=2) as cluster:
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
        assert all(set(rec) >= {"blocked_s", "queued_s", "run_s", "result"}
                   for rec in report.jobs.values())
