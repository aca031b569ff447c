"""The fault-tolerant farm: journal checkpoint/restore, the coordinator
client's retry discipline, worker downtime policy, and the fault
injection primitives themselves.

tests/cluster/test_cluster_build.py pins the no-retry failure surface;
this file pins what the retry layer and the journal buy: a coordinator
bounce mid-batch loses zero jobs, submitters' wait() reconnects, and
duplicate reports from pre-crash workers stay idempotent. The full
kill -9 subprocess choreography lives in CI's chaos job; these are the
in-process equivalents of each guarantee.
"""

import errno
import json
import socket
import threading
import time

import pytest

from repro.cluster import (
    ClusterError,
    ClusterWorker,
    Coordinator,
    CoordinatorClient,
    Journal,
)
from repro.cluster.coordinator import JobQueue
from repro.cluster.journal import JOURNAL_REF
from repro.cluster.jobs import Job
from repro.containers import BlobStore
from repro.store import AsyncStoreServer, MemoryBackend, RemoteBackend
from repro.store.remote import RemoteStoreError
from repro.store.wire import WireError, WireSession
from repro.testing import (
    FaultyBackend,
    FlakyProxy,
    InjectedFault,
    arm_fault_injection,
)
from repro.util.hashing import content_digest
from repro.util.retry import NO_RETRY, RetryPolicy


def job(job_id, requires=(), produces=(), affinity="", kind="test"):
    return Job(job_id=job_id, kind=kind, spec={}, requires=tuple(requires),
               produces=tuple(produces), affinity=affinity)


def _reserve_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


#: Fast-but-persistent client retry for bounce tests: rides out a
#: sub-second coordinator restart without stretching the suite.
FAST_RETRY = RetryPolicy(max_attempts=20, base_delay=0.05, max_delay=0.2,
                         deadline=20.0)


class _OutageBackend(MemoryBackend):
    """MemoryBackend whose ref ops raise while ``down`` — the store
    outage the journal must absorb."""

    def __init__(self):
        super().__init__()
        self.down = False

    def _check(self):
        if self.down:
            raise ConnectionError("store down")

    def get_ref(self, name):
        self._check()
        return super().get_ref(name)

    def compare_and_set_ref(self, name, expected, data):
        self._check()
        return super().compare_and_set_ref(name, expected, data)


class TestJournalCheckpointRestore:
    def _journaled_queue(self, store=None):
        store = store if store is not None else MemoryBackend()
        queue = JobQueue()
        journal = Journal(store, autosave_interval=None)
        journal.source = queue.checkpoint_state
        queue.journal = journal
        return queue, journal, store

    def _restored(self, store):
        """A fresh queue restored from the store's journal ref — the
        crash-and-`--resume` path without the TCP."""
        queue = JobQueue()
        journal = Journal(store, autosave_interval=None)
        journal.source = queue.checkpoint_state
        state = journal.load()
        counts = queue.restore(state)
        queue.journal = journal
        return queue, counts

    def test_round_trip_preserves_done_requeues_running(self):
        q1, journal, store = self._journaled_queue()
        q1.submit([job("a", produces=["k"]), job("b", requires=["k"]),
                   job("c")])
        assert q1.fetch("w1").job_id == "a"
        q1.complete("a", "w1", {"made": "k"})
        assert q1.fetch("w1").job_id == "c"  # RUNNING at the crash
        assert journal.save_now()  # last checkpoint before the "crash"

        q2, counts = self._restored(store)
        assert counts == {"jobs": 3, "done": 1, "failed": 0,
                          "requeued": 1, "pending": 1}
        # The terminal result survived with its payload.
        record = q2.status(["a"])["a"]
        assert record["state"] == "done" and record["result"] == {"made": "k"}
        # b (unblocked by a's key) and c (requeued lease-free) are both
        # claimable — zero lost jobs.
        claimed = {q2.fetch("w2").job_id, q2.fetch("w2").job_id}
        assert claimed == {"b", "c"}

    def test_duplicate_completion_from_pre_crash_worker_is_idempotent(self):
        q1, journal, store = self._journaled_queue()
        q1.submit([job("a", produces=["k"])])
        q1.fetch("w1")
        q1.complete("a", "w1", {"winner": "w1"})
        journal.save_now()

        q2, _ = self._restored(store)
        # The zombie reports the same completion to the resumed queue.
        assert q2.complete("a", "w1", {"winner": "zombie"}) is False
        assert q2.status(["a"])["a"]["result"] == {"winner": "w1"}

    def test_failed_jobs_restore_with_their_error(self):
        q1, journal, store = self._journaled_queue()
        queue_failed = JobQueue(max_attempts=1)
        queue_failed.journal = journal
        journal.source = queue_failed.checkpoint_state
        queue_failed.submit([job("a")])
        queue_failed.fetch("w1")
        queue_failed.fail("a", "w1", "boom")
        journal.save_now()

        q2, counts = self._restored(store)
        assert counts["failed"] == 1
        record = q2.status(["a"])["a"]
        assert record["state"] == "failed" and record["error"] == "boom"

    def test_restore_never_overwrites_existing_records(self):
        q1, journal, store = self._journaled_queue()
        q1.submit([job("a")])
        journal.save_now()
        q2, counts = self._restored(store)
        assert counts["jobs"] == 1
        # Replaying the same checkpoint is a no-op, not a duplicate-id
        # error: resubmission tolerance extends to the journal itself.
        again = q2.restore(journal.load())
        assert again["jobs"] == 0

    def test_newer_journal_version_is_refused(self):
        store = MemoryBackend()
        store.set_ref(JOURNAL_REF, json.dumps({"version": 99}).encode())
        with pytest.raises(RuntimeError, match="version 99"):
            Journal(store, autosave_interval=None).load()

    def test_cas_conflict_rereads_and_lands(self):
        """Two coordinators on one ref (split-brain): the stale writer's
        CAS conflicts, re-reads, and still lands — loudly counted."""
        store = MemoryBackend()
        j1 = Journal(store, autosave_interval=None,
                     source=lambda: {"version": 1, "owner": "j1"})
        j2 = Journal(store, autosave_interval=None,
                     source=lambda: {"version": 1, "owner": "j2"})
        j1.load()
        j2.load()
        assert j1.save_now()
        assert j2.save_now()  # expectation stale: conflict, re-read, win
        assert json.loads(store.get_ref(JOURNAL_REF))["owner"] == "j2"
        assert j2.registry.snapshot()["counters"][
            "cluster.journal.conflicts"] == 1

    def test_store_outage_absorbed_and_retried(self):
        """A checkpoint against a down store degrades durability, not
        availability: flush fails soft, stays dirty, succeeds later."""
        store = _OutageBackend()
        journal = Journal(store, autosave_interval=None,
                          source=lambda: {"version": 1, "n": 1})
        store.down = True
        assert journal.save_now() is False  # absorbed, no raise
        snap = journal.registry.snapshot()
        assert snap["counters"]["cluster.journal.failures"] == 1
        assert snap["gauges"]["cluster.journal.dirty"] == 1
        store.down = False
        assert journal.flush()  # still dirty: the retry lands it
        assert json.loads(store.get_ref(JOURNAL_REF))["n"] == 1


class TestCoordinatorBounce:
    def test_resume_mid_batch_loses_no_jobs_and_wait_reconnects(self):
        """The tentpole guarantee end-to-end (in-process): coordinator
        dies mid-batch with a job running, restarts with --resume
        semantics on the same port, and the submitter's wait() — already
        blocked — rides the outage out to a fully-done batch."""
        store = MemoryBackend()
        port = _reserve_port()
        coord = Coordinator(port=port,
                            journal=Journal(store, autosave_interval=None))
        coord.start()
        submitter = CoordinatorClient("127.0.0.1", port, timeout=2,
                                      retry=FAST_RETRY)
        worker1 = CoordinatorClient("127.0.0.1", port, timeout=2,
                                    retry=FAST_RETRY)
        assert submitter.submit([job("a", produces=["k"]),
                                 job("b", requires=["k"])]) == 2
        assert worker1.fetch("w1").job_id == "a"  # running at the crash

        results: dict = {}
        waiter = threading.Thread(
            target=lambda: results.update(
                submitter.wait(["a", "b"], timeout=30)),
            daemon=True)
        waiter.start()
        time.sleep(0.1)  # the waiter is polling

        # Crash: the wire loop dies; no graceful stop, no final journal
        # flush.
        coord.server.stop()
        time.sleep(0.2)  # the waiter sees the outage

        resumed = None
        for _ in range(50):  # the port may need a beat to free up
            try:
                resumed = Coordinator(
                    port=port, journal=Journal(store, autosave_interval=None),
                    resume=True)
                break
            except OSError:
                time.sleep(0.1)
        assert resumed is not None, "could not rebind the coordinator port"
        resumed.start()
        try:
            worker2 = CoordinatorClient("127.0.0.1", port, timeout=2,
                                        retry=FAST_RETRY)
            got = worker2.fetch("w2")
            assert got is not None and got.job_id == "a"  # requeued, not lost
            assert worker2.complete("a", "w2", {"winner": "w2"})
            got = worker2.fetch("w2")
            assert got is not None and got.job_id == "b"
            assert worker2.complete("b", "w2", {})

            waiter.join(timeout=30)
            assert not waiter.is_alive()
            assert results["a"]["state"] == "done"
            assert results["b"]["state"] == "done"
            # The outage was ridden out, not dodged.
            assert submitter.registry.snapshot()["counters"][
                "cluster.reconnects"] > 0
            # Pre-crash zombie reports stay idempotent across the resume —
            # and worker1's pooled session, warm since before the crash,
            # is picked up by stale-socket resend: one fresh connection,
            # no retry/backoff.
            assert worker1._pool.connections_opened == 1
            assert worker1.complete("a", "w1", {"winner": "zombie"}) is False
            assert worker1._pool.connections_opened == 2
            assert worker1.registry.snapshot()["counters"][
                "cluster.reconnects"] == 0
            assert worker2.status(["a"])["a"]["result"] == {"winner": "w2"}
        finally:
            resumed.stop()

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
        the signal `cluster top` renders in its retry column."""
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
            assert client.stats()["jobs"] == 2
            assert client.telemetry()["telemetry"]["jobs"]["total"] == 2
            client.close()
            assert coord.server.connections_served == 1
            assert coord.server.requests_served == 8

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
                     coord.queue.telemetry.recorder.spans()]
            assert names == ["cluster.server.ping"]

    def test_handlers_use_the_executor_exactly_when_journaled(self):
        plain = Coordinator()
        journaled = Coordinator(journal=Journal(MemoryBackend(),
                                                autosave_interval=None))
        try:
            assert plain.server._executor is None
            assert journaled.server._executor is not None
            with journaled:
                client = CoordinatorClient(*journaled.address,
                                           retry=NO_RETRY)
                assert client.submit([job("a")]) == 1  # checkpoints off-loop
                assert client.fetch("w").job_id == "a"
                client.close()
        finally:
            plain.server.stop()


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
        stop = threading.Event()
        thread = threading.Thread(target=worker.run,
                                  kwargs={"stop": stop},
                                  daemon=True)
        thread.start()
        time.sleep(0.3)  # the worker is polling a dead address
        with Coordinator(port=port) as coord:
            submitter = CoordinatorClient(*coord.address, timeout=2,
                                          retry=FAST_RETRY)
            submitter.submit([job("late")])
            done = submitter.wait(["late"], timeout=20)
            assert done["late"]["state"] == "done"
            assert done["late"]["worker"] == "w-ride"
            stop.set()
            thread.join(timeout=10)
            assert not thread.is_alive()


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
        arm_fault_injection(bystander, "crash:lower@w2")
        assert bystander.execute(job("j", kind="lower")) == {"ran": "j"}

        target = _StubWorker("w2")
        arm_fault_injection(target, "crash:lower@w2")
        assert target.execute(job("d", kind="deploy")) == {"ran": "d"}
        with pytest.raises(InjectedFault, match="injected crash"):
            target.execute(job("l", kind="lower"))

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
