"""The fault-tolerant farm: a coordinator restart and the resubmitting
submitter, the coordinator client's retry discipline, worker downtime
policy, and the fault injection primitives themselves.

tests/cluster/test_cluster_build.py pins the no-retry failure surface;
this file pins what the retry layer and resubmission buy: a coordinator
bounce mid-batch loses zero jobs, submitters' wait() reconnects and
resubmits what the restarted coordinator lost, and reports from
pre-crash workers are answered as stale. The full kill -9 subprocess
choreography is tests/cluster/test_chaos.py; these are the in-process
equivalents of each guarantee.
"""

import errno
import socket
import threading
import time

import pytest

from repro.cluster import (
    ClusterError,
    ClusterWorker,
    Coordinator,
    CoordinatorClient,
)
from repro.cluster.client import DEFAULT_COORDINATOR_RETRY
from repro.cluster.coordinator import JobQueue
from repro.cluster.jobs import Job
from repro.containers import BlobStore
from repro.store import AsyncStoreServer, MemoryBackend, RemoteBackend
from repro.store.remote import RemoteStoreError
from repro.store.wire import WireError, WireSession
from repro.telemetry import events as _events
from repro.testing import (
    FaultyBackend,
    FlakyProxy,
    InjectedFault,
    arm_fault_injection,
)
from repro.util.hashing import content_digest
from repro.util.retry import NO_RETRY, RetryPolicy


def job(job_id, affinity="", kind="test"):
    return Job(job_id=job_id, kind=kind, spec={}, affinity=affinity)


class _AtCap:
    """rng stub: the full-jitter draw at its upper bound."""

    @staticmethod
    def uniform(low, high):
        return high


def _reserve_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


#: Fast-but-persistent client retry for bounce tests: rides out a
#: sub-second coordinator restart without stretching the suite.
FAST_RETRY = RetryPolicy(max_attempts=20, base_delay=0.05, max_delay=0.2,
                         deadline=20.0)


def _client(port: int) -> CoordinatorClient:
    return CoordinatorClient("127.0.0.1", port, timeout=2, retry=FAST_RETRY)


def _restart(port: int) -> Coordinator:
    """A plain coordinator started on ``port`` — empty, like a crashed
    one restarted by hand."""
    for _ in range(50):  # the port may need a beat to free up
        try:
            coord = Coordinator(port=port)
            break
        except OSError:
            time.sleep(0.1)
    else:
        raise AssertionError("could not rebind the coordinator port")
    coord.start()
    return coord


def _until(predicate, what: str) -> None:
    deadline = time.monotonic() + 10
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


def _parked(coord: Coordinator) -> None:
    """Return once a request is parked on ``coord``'s loop."""
    _until(lambda: coord.server._parked, "a parked request")


class TestAtomicSubmit:
    """A refused batch registers nothing: a submitter told its batch
    failed never has half of it executing."""

    def test_a_repeat_within_the_batch_registers_nothing(self):
        queue = JobQueue()
        with pytest.raises(ClusterError, match="duplicate job id 'a'"):
            queue.submit([job("a"), job("b"), job("a")])
        assert queue.telemetry_summary()["jobs"]["total"] == 0
        assert queue.fetch("w1") is None

    def test_a_known_id_registers_nothing(self):
        queue = JobQueue()
        queue.submit([job("x")])
        with pytest.raises(ClusterError, match="duplicate job id 'x'"):
            queue.submit([job("y"), job("x")])
        assert queue.telemetry_summary()["jobs"]["total"] == 1
        assert queue.fetch("w1").job_id == "x"
        assert queue.fetch("w1") is None  # y was never registered


class TestWaitResubmits:
    """What an empty coordinator answers, and what the submitter's
    ``wait`` does with it: a job the coordinator does not know is
    resubmitted from its spec, and only that job."""

    def test_the_queue_knows_only_what_it_registered(self):
        queue = JobQueue()
        assert not queue.knows("a")
        queue.submit([job("a")])
        assert queue.knows("a")
        assert not queue.knows("b")
        # In process an unknown id is still an error; only the wire rows
        # answer it as a stale report.
        with pytest.raises(ClusterError, match="unknown job 'b'"):
            queue.complete("b", "w1", {})

    def test_wait_resubmits_a_job_the_coordinator_does_not_know(self):
        log = _events.EventLog()
        previous = _events.set_event_log(log)
        try:
            with Coordinator() as coord:
                submitter = CoordinatorClient(*coord.address, retry=NO_RETRY)
                worker = CoordinatorClient(*coord.address, retry=NO_RETRY)
                results: dict = {}
                waiter = threading.Thread(
                    target=lambda: results.update(
                        submitter.wait([job("a")], timeout=30)),
                    daemon=True)
                waiter.start()
                got = worker.fetch("w1", park_seconds=20)
                assert got is not None and got.job_id == "a"
                assert worker.complete("a", "w1", {"ran": True})
                waiter.join(timeout=30)
                assert not waiter.is_alive()
                assert results["a"]["result"] == {"ran": True}
                submitter.close()
                worker.close()
            lost = [event for event in log.snapshot()
                    if event.message == "coordinator lost a job; resubmitting"]
            assert [event.fields["job_id"] for event in lost] == ["a"]
        finally:
            _events.set_event_log(previous)

    def test_only_the_lost_jobs_are_resubmitted(self):
        """`a` is still known and done; `b` and `c` are not. The wait
        resubmits `b` and `c` once each and keeps `a`'s first result."""
        with Coordinator() as coord:
            submitter = CoordinatorClient(*coord.address, retry=NO_RETRY)
            worker = CoordinatorClient(*coord.address, retry=NO_RETRY)
            a, b, c = job("a"), job("b"), job("c")
            submitter.submit([a])
            assert worker.fetch("w1").job_id == "a"
            assert worker.complete("a", "w1", {"n": 1})

            results: dict = {}
            waiter = threading.Thread(
                target=lambda: results.update(
                    submitter.wait([a, b, c], timeout=30)),
                daemon=True)
            waiter.start()
            ran = []
            for _ in range(2):
                got = worker.fetch("w1", park_seconds=20)
                assert got is not None
                ran.append(got.job_id)
                assert worker.complete(got.job_id, "w1", {"n": 2})
            waiter.join(timeout=30)
            assert not waiter.is_alive()
            assert sorted(ran) == ["b", "c"]
            assert coord.queue.telemetry_summary()["jobs"]["total"] == 3
            assert worker.fetch("w1") is None  # nothing ran twice
            assert results["a"]["result"] == {"n": 1}
            assert {results[k]["state"] for k in "abc"} == {"done"}
            submitter.close()
            worker.close()


class TestCoordinatorBounce:
    def test_restart_mid_batch_loses_no_jobs_and_wait_resubmits(self):
        """The guarantee end-to-end (in-process): the coordinator dies
        mid-batch with a job running and restarts empty on the same
        port; the submitter's wait() — already blocked — rides the
        outage out, resubmits `a`, and then sees `b` through."""
        port = _reserve_port()
        coord = Coordinator(port=port)
        coord.start()
        clients = submitter, worker1, worker2 = [_client(port)
                                                 for _ in range(3)]
        a, b = job("a"), job("b")
        assert submitter.submit([a]) == 1
        assert worker1.fetch("w1").job_id == "a"  # running at the crash

        results: dict = {}

        def two_waves() -> None:
            # `b` is submitted once `a` is done, the way the farm client
            # submits its deploy wave — here across the bounce.
            results.update(submitter.wait([a], timeout=30))
            submitter.submit([b])
            results.update(submitter.wait([b], timeout=30))

        waiter = threading.Thread(target=two_waves, daemon=True)
        waiter.start()
        _parked(coord)

        # Crash: the wire loop dies with `a` leased to w1; the restart
        # waits until the submitter has met the outage.
        coord.server.stop()
        _until(lambda: submitter.registry.snapshot()["counters"][
            "cluster.reconnects"], "the submitter to meet the outage")
        restarted = _restart(port)
        try:
            got = worker2.fetch("w2", park_seconds=20)  # until resubmitted
            assert got is not None and got.job_id == "a"  # not lost
            assert worker2.complete("a", "w2", {"winner": "w2"})
            got = worker2.fetch("w2", park_seconds=20)  # until b is sent
            assert got is not None and got.job_id == "b"
            assert worker2.complete("b", "w2", {})

            waiter.join(timeout=30)
            assert not waiter.is_alive()
            assert results["a"]["state"] == "done"
            assert results["b"]["state"] == "done"
            # A pre-crash zombie report is answered as stale — and
            # worker1's pooled session, warm since before the crash, is
            # picked up by stale-socket resend: one fresh connection,
            # no retry/backoff.
            assert worker1._pool.connections_opened == 1
            assert worker1.complete("a", "w1", {"winner": "zombie"}) is False
            assert worker1._pool.connections_opened == 2
            assert worker1.registry.snapshot()["counters"][
                "cluster.reconnects"] == 0
            assert worker2.status(["a"])["a"]["result"] == {"winner": "w2"}
        finally:
            for client in clients:
                client.close()
            restarted.stop()

    def test_reports_before_the_resubmit_are_not_applied(self):
        """A zombie's reports reach the restarted coordinator before the
        submitter resubmits: each is answered as stale — not applied, no
        error — and registers nothing; the resubmitted job then runs
        again and its result is the one kept."""
        port = _reserve_port()
        coord = Coordinator(port=port)
        coord.start()
        clients = submitter, zombie, worker2 = [_client(port)
                                                for _ in range(3)]
        a = job("a")
        submitter.submit([a])
        assert zombie.fetch("w1").job_id == "a"
        coord.server.stop()
        restarted = _restart(port)
        try:
            assert zombie.renew("a", "w1") is False
            assert zombie.complete("a", "w1", {"winner": "zombie"}) is False
            assert zombie.fail("a", "w1", "boom") == "unknown"
            assert restarted.queue.telemetry_summary()["jobs"]["total"] == 0

            results: dict = {}
            waiter = threading.Thread(
                target=lambda: results.update(submitter.wait([a], timeout=30)),
                daemon=True)
            waiter.start()
            assert worker2.fetch("w2", park_seconds=20).job_id == "a"
            assert worker2.complete("a", "w2", {"winner": "w2"})
            waiter.join(timeout=30)
            assert not waiter.is_alive()
            assert results["a"]["result"] == {"winner": "w2"}
        finally:
            for client in clients:
                client.close()
            restarted.stop()

    def test_a_lost_job_report_is_no_outage_for_the_worker(self):
        """A worker that finishes a job across the restart reports it to
        a coordinator that does not know it: the answer is not-applied,
        the run loop goes on fetching, and no outage is recorded."""
        log = _events.EventLog()
        previous = _events.set_event_log(log)
        port = _reserve_port()
        coord = Coordinator(port=port)
        coord.start()
        restarted = []
        worker = ClusterWorker(_client(port), BlobStore(),
                               worker_id="w-across",
                               max_coordinator_downtime=30.0)

        def execute_across_a_restart(j):
            if not restarted:  # the job's report meets the restart
                coord.server.stop()
                restarted.append(_restart(port))
                # One more job for the loop: an outage would be logged
                # as over as soon as it is done.
                restarted[0].queue.submit([job("y")])
            return {"echo": j.job_id}

        worker.execute = execute_across_a_restart
        try:
            coord.queue.submit([job("x")])
            worker.run(max_idle_seconds=0.5)
            assert restarted[0].queue.status(["y"])["y"]["state"] == "done"
            assert worker.jobs_done.value == 2
            messages = [event.message for event in log.snapshot()]
            assert "coordinator link restored" not in messages
        finally:
            coord.server.stop()
            for coordinator in restarted:
                coordinator.stop()
            _events.set_event_log(previous)

    def test_lost_submit_response_resend_is_success(self, monkeypatch):
        """The submit ambiguity window: request applied, response lost.
        The retried resend answers "duplicate job id" — which proves the
        first send landed, so submit reports success; a genuine
        duplicate (no resend in play) still raises."""
        with Coordinator() as coord:
            host, port = coord.address
            client = CoordinatorClient(host, port, timeout=2,
                                       retry=RetryPolicy(max_attempts=4,
                                                         base_delay=0.01))
            real = client._pool.exchange
            state = {"lost": False}

            def lossy(header, body=b""):
                resp = real(header, body)
                if header.get("cmd") == "submit" and not state["lost"]:
                    state["lost"] = True  # delivered, but the reply dies
                    raise WireError("connection reset reading response")
                return resp

            monkeypatch.setattr(client._pool, "exchange", lossy)
            assert client.submit([job("a"), job("b")]) == 2
            assert state["lost"]
            assert set(coord.queue.status(["a", "b"])) == {"a", "b"}
            with pytest.raises(ClusterError, match="duplicate job id"):
                client.submit([job("a")])

    def test_client_retry_is_observable_in_reconnect_counter(self):
        """Every absorbed wire failure increments cluster.reconnects —
        the signal `cluster status` renders in its retry column."""
        port = _reserve_port()
        client = CoordinatorClient("127.0.0.1", port, timeout=0.5,
                                   retry=RetryPolicy(max_attempts=3,
                                                     base_delay=0.01))
        with pytest.raises(ClusterError):
            client.ping()
        assert client.registry.snapshot()["counters"][
            "cluster.reconnects"] == 2  # one per retry after the first try


class TestCoordinatorOnTheWireLoop:
    """What the control plane gains from the shared ``WireServer``:
    sessions, body guards, tolerant dispatch, ``server_stats``, spans."""

    def test_many_ops_from_one_client_ride_one_connection(self):
        with Coordinator() as coord:
            client = CoordinatorClient(*coord.address, retry=NO_RETRY)
            assert client.ping()
            assert client.submit([job("a"), job("b")]) == 2
            assert client.fetch("w1").job_id == "a"
            assert client.renew("a", "w1")
            assert client.complete("a", "w1", {}, spans=[],
                                   metrics={"counters": {"x": 1}})
            assert client.status(["a"])["a"]["state"] == "done"
            assert client.telemetry()["telemetry"]["jobs"]["total"] == 2
            client.close()
            assert coord.server.connections_served == 1
            assert coord.server.requests_served == 7

    def test_oversized_request_is_rejected_and_the_session_survives(
            self, monkeypatch):
        import repro.cluster.coordinator as coordinator_mod
        monkeypatch.setattr(coordinator_mod, "MAX_REQUEST_BODY_BYTES", 1024)
        with Coordinator() as coord:
            client = CoordinatorClient(*coord.address, retry=NO_RETRY)
            with pytest.raises(ClusterError, match="max_body_bytes=1024"):
                client.complete("a", "w1", {}, spans=[{"pad": "x" * 4096}])
            assert client.ping()  # body drained: same session, in sync
            assert coord.server.connections_served == 1

    def test_malformed_size_ends_that_session_not_the_loop(self):
        with Coordinator() as coord:
            session = WireSession(*coord.address)
            resp, _ = session.exchange({"cmd": "ping", "size": "abc"})
            assert resp["ok"] is False
            assert "malformed header" in resp["error"]
            session.close(polite=False)
            assert CoordinatorClient(*coord.address).ping()

    def test_unknown_command_answers_and_session_continues(self):
        with Coordinator() as coord:
            session = WireSession(*coord.address)
            try:
                resp, _ = session.exchange({"cmd": "frobnicate"})
                assert resp == {"ok": False,
                                "error": "unknown command 'frobnicate'"}
                assert session.exchange({"cmd": "ping"})[0]["ok"]
            finally:
                session.close()
            assert coord.server.connections_served == 1

    def test_release_is_an_unknown_command(self):
        """A worker leaves by its idle cutoff, by coordinator loss or by
        being killed, and says goodbye: there is no ``release`` row, and
        a stray one is answered like any unknown command."""
        with Coordinator() as coord:
            coord.queue.submit([job("a")])
            session = WireSession(*coord.address)
            try:
                resp, _ = session.exchange({"cmd": "release",
                                            "worker": "w1"})
                assert resp == {"ok": False,
                                "error": "unknown command 'release'"}
            finally:
                session.close()
            # Nothing was marked on w1: its fetch gets the job.
            client = CoordinatorClient(*coord.address, retry=NO_RETRY)
            try:
                assert client.fetch("w1", park_seconds=0.5).job_id == "a"
            finally:
                client.close()

    def test_coordinator_answers_server_stats_and_traced_requests(self):
        with Coordinator() as coord:
            session = WireSession(*coord.address)
            try:
                resp, _ = session.exchange({"cmd": "ping", "trace": {
                    "trace_id": "T" * 32, "parent_span_id": "P" * 16}})
                assert resp["ok"]
                stats, _ = session.exchange({"cmd": "server_stats"})
            finally:
                session.close()
            assert stats["connections_served"] == 1
            assert stats["requests_served"] == 2
            assert stats["bytes_in"] > 0 and stats["bytes_out"] > 0
            # The wire span lands where the `telemetry` op drains from.
            names = [span.name for span in
                     coord.queue.recorder.spans()]
            assert names == ["cluster.server.ping"]


class TestWorkerDowntimePolicy:
    def test_worker_exits_after_max_coordinator_downtime(self):
        """A dead coordinator terminates the worker in bounded wall-clock
        time — no strike counting, no spinning forever."""
        port = _reserve_port()
        client = CoordinatorClient("127.0.0.1", port, timeout=0.5,
                                   retry=NO_RETRY)
        worker = ClusterWorker(client, BlobStore(), worker_id="w-exit",
                               max_coordinator_downtime=0.3)
        started = time.monotonic()
        worker.run()  # returns instead of looping forever
        elapsed = time.monotonic() - started
        assert 0.3 <= elapsed < 10.0

    def test_outage_pauses_follow_the_outage_backoff(self):
        """The client's retry is the one loop that rides out an outage:
        its pauses double from the base up to the cap, one per failed
        attempt, until the worker's downtime budget runs out — the last
        pause cut to what is left of it."""
        pauses = []

        def pause(delay):
            pauses.append(delay)
            time.sleep(delay)

        client = CoordinatorClient(
            "127.0.0.1", _reserve_port(), timeout=1,
            retry=RetryPolicy(base_delay=0.02, max_delay=0.08,
                              rng=_AtCap(), sleep=pause))
        worker = ClusterWorker(client, BlobStore(), worker_id="w-pause",
                               max_coordinator_downtime=0.4)
        worker.run()
        *full, last = pauses
        assert full[:3] == [0.02, 0.04, 0.08]
        assert len(full) > 3 and set(full[3:]) == {0.08}
        assert 0 < last <= 0.08
        assert 0.3 < sum(pauses) <= 0.4

    def test_the_downtime_limit_holds_on_the_default_client_retry(
            self, monkeypatch):
        """The downtime clock starts at the first refused connection, not
        once the client's own retry gave up: a worker on the default
        client retry leaves within its limit, one backoff step and one
        connect timeout."""
        monkeypatch.setattr(DEFAULT_COORDINATOR_RETRY, "_rng", _AtCap())
        client = CoordinatorClient("127.0.0.1", _reserve_port(), timeout=0.5)
        assert client.retry is DEFAULT_COORDINATOR_RETRY
        worker = ClusterWorker(client, BlobStore(), worker_id="w-limit",
                               max_coordinator_downtime=0.5)
        started = time.monotonic()
        worker.run()
        elapsed = time.monotonic() - started
        assert 0.5 <= elapsed < 0.5 + DEFAULT_COORDINATOR_RETRY.max_delay + 0.5

    def test_an_outage_is_not_idle_time(self):
        """The idle cutoff counts time with nothing to do, not time the
        coordinator is down: against a closed port, a worker with a
        0.2 s idle cutoff rides the outage out to its 1.0 s downtime
        limit and leaves by that limit."""
        log = _events.EventLog()
        previous = _events.set_event_log(log)
        try:
            client = CoordinatorClient("127.0.0.1", _reserve_port(),
                                       timeout=1, retry=NO_RETRY)
            worker = ClusterWorker(client, BlobStore(), worker_id="w-out",
                                   max_coordinator_downtime=1.0)
            started = time.monotonic()
            worker.run(max_idle_seconds=0.2)
            elapsed = time.monotonic() - started
        finally:
            _events.set_event_log(previous)
        assert 1.0 <= elapsed < 10.0
        assert "coordinator down too long; worker exiting" in \
            [event.message for event in log.snapshot()]

    def test_an_outage_the_client_rode_out_is_not_idle_time(self):
        """A fetch that rode out an outage starts the idle clock afresh:
        with a 0.3 s cutoff and a coordinator that arrives 0.5 s in, the
        worker parks a whole cutoff on it (a second fetch) before it says
        goodbye."""
        port = _reserve_port()
        worker = ClusterWorker(_client(port), BlobStore(), worker_id="w-back",
                               max_coordinator_downtime=30.0)
        arrived = []

        def coordinator_arrives():
            coord = Coordinator(port=port)
            coord.start()
            arrived.append(coord)

        timer = threading.Timer(0.5, coordinator_arrives)
        timer.start()
        try:
            worker.run(max_idle_seconds=0.3)
            timer.join()
            [coord] = arrived
            assert coord.server.requests_served == 3  # fetch, fetch, goodbye
        finally:
            timer.cancel()
            for coord in arrived:
                coord.stop()

    def test_worker_rides_out_outage_shorter_than_limit(self):
        """A worker started before its coordinator exists (or while it
        restarts) keeps polling and completes work once the coordinator
        arrives — the ride-out behind `--max-coordinator-downtime`."""
        port = _reserve_port()
        client = CoordinatorClient("127.0.0.1", port, timeout=1,
                                   retry=RetryPolicy(max_attempts=3,
                                                     base_delay=0.02,
                                                     max_delay=0.1,
                                                     deadline=5.0))
        worker = ClusterWorker(client, BlobStore(), worker_id="w-ride",
                               max_coordinator_downtime=30.0)
        worker.execute = lambda j: {"echo": j.job_id}
        arrived = []

        def coordinator_arrives():
            coord = Coordinator(port=port)
            coord.start()
            coord.queue.submit([job("late")])
            arrived.append(coord)

        # The worker polls a dead address until the coordinator arrives,
        # runs the job, and leaves at its idle cutoff.
        timer = threading.Timer(0.3, coordinator_arrives)
        timer.start()
        try:
            worker.run(max_idle_seconds=0.5)
            timer.join()
            [coord] = arrived
            done = coord.queue.status(["late"])
            assert done["late"]["state"] == "done"
            assert done["late"]["worker"] == "w-ride"
        finally:
            timer.cancel()
            for coord in arrived:
                coord.stop()


class TestFaultyBackend:
    def test_fail_every_schedule_is_deterministic(self):
        flaky = FaultyBackend(MemoryBackend()).fail_every(3, ops=("get",))
        digest = content_digest(b"x")
        flaky.put(digest, b"x")  # unaffected op
        assert flaky.get(digest) == b"x"
        assert flaky.get(digest) == b"x"
        with pytest.raises(ConnectionError, match="injected"):
            flaky.get(digest)
        assert flaky.get(digest) == b"x"  # the counter rolls on
        assert flaky.injected == {"get": 1}
        assert flaky.calls["get"] == 4 and flaky.calls["put"] == 1

    def test_skip_lets_a_warmup_through(self):
        flaky = FaultyBackend(MemoryBackend()).fail_every(1, ops=("has",),
                                                          skip=2)
        digest = content_digest(b"y")
        assert flaky.has(digest) is False
        assert flaky.has(digest) is False
        with pytest.raises(ConnectionError):
            flaky.has(digest)
        with pytest.raises(ConnectionError):
            flaky.has(digest)  # every call fails once the skip is spent

    def test_enospc_after_byte_budget(self):
        flaky = FaultyBackend(MemoryBackend()).enospc_after(10)
        first = b"12345"
        flaky.put(content_digest(first), first)  # 5 bytes: under budget
        second = b"123456789"
        with pytest.raises(OSError) as excinfo:
            flaky.put(content_digest(second), second)  # 14 > 10
        assert excinfo.value.errno == errno.ENOSPC
        assert not flaky.has(content_digest(second))  # never reached inner

    def test_custom_exception_type(self):
        flaky = FaultyBackend(MemoryBackend()).fail_every(1, ops=("digests",),
                                                          exc=TimeoutError)
        with pytest.raises(TimeoutError):
            flaky.digests()


class _StubWorker:
    def __init__(self, worker_id):
        self.worker_id = worker_id

    def execute(self, j):
        return {"ran": j.job_id}


class TestProcessFaultInjection:
    def test_injected_fault_escapes_except_exception(self):
        """The whole point of the BaseException: per-job failure handling
        must NOT catch it — it kills the worker like a real fault."""
        assert not issubclass(InjectedFault, Exception)
        assert issubclass(InjectedFault, BaseException)

    def test_crash_directive_targets_worker_and_kind(self):
        bystander = _StubWorker("w1")
        arm_fault_injection(bystander, "crash:deploy@w2")
        assert bystander.execute(job("j", kind="deploy")) == {"ran": "j"}

        target = _StubWorker("w2")
        arm_fault_injection(target, "crash:deploy@w2")
        assert target.execute(job("i", kind="ir-compile")) == {"ran": "i"}
        with pytest.raises(InjectedFault, match="injected crash"):
            target.execute(job("d", kind="deploy"))

    def test_untargeted_crash_hits_any_job(self):
        target = _StubWorker("anyone")
        arm_fault_injection(target, "crash")
        with pytest.raises(InjectedFault):
            target.execute(job("j"))

    def test_unknown_directive_is_a_startup_error(self):
        with pytest.raises(SystemExit, match="unknown"):
            arm_fault_injection(_StubWorker("w"), "explode")


class TestFlakyProxy:
    def test_refuse_every_counts_and_retried_client_rides_it_out(self):
        with AsyncStoreServer(MemoryBackend()) as server:
            proxy = FlakyProxy(*server.address, refuse_every=2)
            host, port = proxy.start()
            try:
                def fresh(retry):
                    """One connection per operation: a new client each."""
                    return RemoteBackend(host, port, retry=retry)

                fresh(NO_RETRY).set_ref("r", b"1")  # connection 1: forwarded
                with pytest.raises((RemoteStoreError, OSError)):
                    fresh(NO_RETRY).get_ref("r")  # connection 2: refused
                assert proxy.refused == 1
                # The retried client absorbs the same schedule silently.
                patient = RetryPolicy(max_attempts=4, base_delay=0.01)
                for _ in range(6):
                    assert fresh(patient).get_ref("r") == b"1"
                assert proxy.refused >= 2
                proxy.refuse_every = 0  # heal the link
                assert fresh(NO_RETRY).get_ref("r") == b"1"
            finally:
                proxy.stop()
