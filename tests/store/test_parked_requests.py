"""Parked requests on the wire loop: the row kind blocking calls are built on.

A toy command table drives :class:`~repro.store.wire_server.WireServer`
directly: ``take`` is a parking row that answers ``got`` once the test
has made a token available (or opened the gate), ``echo`` is a plain
row. Nothing here sleeps — tests wait on events the handlers set, and a
``ping`` round trip on another connection is the barrier that proves the
loop has finished the sweep that saw an earlier close.
"""

import json
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import WireSession
from repro.store.wire import read_message
from repro.store.wire_server import Command, WireServer

EXECUTORS = [0, 4]
LONG = 30.0  # a park no test waits out


class Gate:
    """What ``take`` waits on, plus a count of its handler runs."""

    def __init__(self):
        self.lock = threading.Lock()
        self.tokens = 0
        self.open = False
        self.runs = 0
        self.ran = threading.Semaphore(0)  # one release per handler run

    def take(self, req, body):
        with self.lock:
            self.runs += 1
            got = self.open or self.tokens > 0
            if got and not self.open:
                self.tokens -= 1
        self.ran.release()
        if got:
            return {"ok": True, "seq": req.get("seq"), "how": "got"}, b""
        return None

    def timeout(self, req, body):
        return {"ok": True, "seq": req.get("seq"), "how": "timeout"}, b""

    def await_runs(self, n: int) -> None:
        for _ in range(n):
            assert self.ran.acquire(timeout=5), "handler never ran"


def serve(gate: Gate, executor_workers: int) -> WireServer:
    def echo(req, body):
        return {"ok": True, "seq": req.get("seq"), "how": "echo"}, b""

    return WireServer({"take": Command(gate.take, timeout=gate.timeout),
                       "echo": Command(echo),
                       "ping": Command(lambda req, body: ({"ok": True}, b""))},
                      executor_workers=executor_workers)


def send(sock: socket.socket, **header) -> None:
    sock.sendall(json.dumps(header).encode() + b"\n")


def connect(server: WireServer) -> socket.socket:
    return socket.create_connection(server.address, timeout=5)


def barrier(server: WireServer) -> None:
    """Returns once the loop has handled everything that reached it
    before this call (a response is written the sweep after its request
    was read)."""
    session = WireSession(*server.address)
    try:
        assert session.exchange({"cmd": "ping"})[0]["ok"]
    finally:
        session.close()


@pytest.fixture(params=EXECUTORS, ids=lambda n: f"executor{n}")
def farm(request):
    gate = Gate()
    with serve(gate, request.param) as server:
        yield gate, server


class TestParking:
    def test_not_parked_without_park_seconds(self, farm):
        gate, server = farm
        with connect(server) as sock:
            send(sock, cmd="take", seq=1)
            assert read_message(sock.makefile("rb"))["how"] == "timeout"
        assert gate.runs == 1

    def test_answered_by_wake(self, farm):
        gate, server = farm
        with connect(server) as sock:
            send(sock, cmd="take", seq=1, park_seconds=LONG)
            gate.await_runs(1)  # ran, said "not yet": it is parked
            gate.tokens = 1
            server.wake()
            assert read_message(sock.makefile("rb"))["how"] == "got"
        assert gate.runs == 2

    def test_wake_with_nothing_to_give_leaves_it_parked(self, farm):
        gate, server = farm
        with connect(server) as sock:
            send(sock, cmd="take", seq=1, park_seconds=LONG)
            gate.await_runs(1)
            server.wake()
            gate.await_runs(1)  # looked again, still nothing
            barrier(server)
            assert len(server._parked) == 1
            gate.open = True
            server.wake()
            assert read_message(sock.makefile("rb"))["how"] == "got"

    def test_answered_at_its_own_deadline(self, farm):
        gate, server = farm
        with connect(server) as sock:
            started = time.monotonic()
            send(sock, cmd="take", seq=1, park_seconds=0.05)
            assert read_message(sock.makefile("rb"))["how"] == "timeout"
            assert 0.05 <= time.monotonic() - started < 5.0
        # Once on arrival, once more at the deadline before giving up.
        assert gate.runs == 2

    def test_handler_may_ask_to_be_run_again_sooner(self):
        """A number instead of None is "look again within N seconds" —
        how a lease deadline becomes a wake-up nobody has to send."""
        looks = []

        def take(req, body):
            looks.append(time.monotonic())
            if len(looks) < 3:
                return 0.02
            return {"ok": True, "looks": len(looks)}, b""

        with WireServer({"take": Command(
                take, timeout=lambda req, body: ({"ok": False}, b""))}) as srv:
            with connect(srv) as sock:
                send(sock, cmd="take", park_seconds=LONG)
                assert read_message(sock.makefile("rb"))["looks"] == 3
        assert looks[2] - looks[0] >= 0.04

    def test_more_parked_than_executor_threads(self, farm):
        """Eight parked requests hold no thread: a ninth connection is
        served at once, on a 4-thread executor and inline alike."""
        gate, server = farm
        socks = [connect(server) for _ in range(8)]
        try:
            for seq, sock in enumerate(socks):
                send(sock, cmd="take", seq=seq, park_seconds=LONG)
            gate.await_runs(8)
            barrier(server)  # the ninth connection's ping
            assert len(server._parked) == 8
            gate.open = True
            server.wake()
            for seq, sock in enumerate(socks):
                resp = read_message(sock.makefile("rb"))
                assert (resp["seq"], resp["how"]) == (seq, "got")
        finally:
            for sock in socks:
                sock.close()

    def test_pipelined_request_waits_behind_a_parked_one(self, farm):
        gate, server = farm
        with connect(server) as sock:
            sock.sendall(
                json.dumps({"cmd": "take", "seq": 1,
                            "park_seconds": LONG}).encode() + b"\n"
                + json.dumps({"cmd": "echo", "seq": 2}).encode() + b"\n")
            gate.await_runs(1)
            barrier(server)
            sock.setblocking(False)
            with pytest.raises(BlockingIOError):
                sock.recv(1)  # the echo did not jump the queue
            sock.settimeout(5)
            gate.tokens = 1
            server.wake()
            rfile = sock.makefile("rb")
            first, second = read_message(rfile), read_message(rfile)
        assert (first["seq"], first["how"]) == (1, "got")
        assert (second["seq"], second["how"]) == (2, "echo")

    def test_close_while_parked_drops_the_entry(self, farm):
        """The requester is gone: its handler never runs again, so
        nothing can be claimed on its behalf."""
        gate, server = farm
        sock = connect(server)
        send(sock, cmd="take", seq=1, park_seconds=LONG)
        gate.await_runs(1)
        sock.close()
        barrier(server)
        assert server._parked == {}
        gate.tokens = 1
        server.wake()
        barrier(server)
        assert gate.runs == 1 and gate.tokens == 1

    def test_half_close_while_parked_counts_as_a_close(self, farm):
        gate, server = farm
        with connect(server) as sock:
            send(sock, cmd="take", seq=1, park_seconds=LONG)
            gate.await_runs(1)
            sock.shutdown(socket.SHUT_WR)  # indistinguishable from a close
            barrier(server)
            assert server._parked == {}
            assert sock.makefile("rb").readline() == b""

    def test_stop_answers_what_is_parked(self, farm):
        gate, server = farm
        with connect(server) as sock:
            send(sock, cmd="take", seq=1, park_seconds=LONG)
            gate.await_runs(1)
            started = time.monotonic()
            server.stop()
            rfile = sock.makefile("rb")
            assert read_message(rfile)["how"] == "timeout"
            assert rfile.readline() == b""
            assert time.monotonic() - started < 5.0
        assert server._parked == {}
        assert gate.runs == 1  # stopping asks `timeout`, never the handler
        server.wake()  # after stop: harmless

    def test_malformed_park_seconds_is_answered(self, farm):
        gate, server = farm
        session = WireSession(*server.address)
        try:
            resp, _ = session.exchange({"cmd": "take", "park_seconds": "x"})
            assert not resp["ok"]
            assert session.exchange({"cmd": "ping"})[0]["ok"]
        finally:
            session.close()
        assert server._parked == {}

    def test_handler_exception_is_answered(self):
        def take(req, body):
            raise RuntimeError("boom")

        with WireServer({"take": Command(
                take, timeout=lambda req, body: ({"ok": True}, b""))}) as srv:
            session = WireSession(*srv.address)
            try:
                resp, _ = session.exchange({"cmd": "take",
                                            "park_seconds": LONG})
                assert resp == {"ok": False, "error": "boom"}
            finally:
                session.close()
            assert srv._parked == {}


# -- interleavings --------------------------------------------------------------

CONNS = 3
_conn = st.integers(0, CONNS - 1)
OPS = st.lists(st.one_of(
    st.tuples(st.just("echo"), _conn),
    st.tuples(st.just("park"), _conn, st.sampled_from([0.0, 0.01, LONG])),
    st.tuples(st.just("pipelined"), _conn),   # park + echo in one segment
    st.tuples(st.just("wake")),
    st.tuples(st.just("close"), _conn),
), max_size=24)


@pytest.mark.parametrize("executor_workers", EXECUTORS)
@settings(max_examples=30, deadline=None)
@given(ops=OPS)
def test_interleavings_keep_order_and_leave_no_entry(executor_workers, ops):
    """Requests, parks, wakes, deadlines, closes and pipelined requests
    in any order: every surviving connection gets exactly its responses,
    in the order it asked, and the park table ends empty."""
    gate = Gate()
    with serve(gate, executor_workers) as server:
        socks = {i: connect(server) for i in range(CONNS)}
        sent = {i: [] for i in range(CONNS)}
        seq = 0
        try:
            for op in ops:
                if op[0] == "wake":
                    with gate.lock:
                        gate.tokens += 1
                    server.wake()
                    continue
                sock = socks.get(op[1])
                if sock is None:
                    continue  # closed earlier
                if op[0] == "close":
                    socks.pop(op[1]).close()
                    continue
                seq += 1
                if op[0] == "echo":
                    send(sock, cmd="echo", seq=seq)
                    sent[op[1]].append(seq)
                elif op[0] == "park":
                    send(sock, cmd="take", seq=seq, park_seconds=op[2])
                    sent[op[1]].append(seq)
                else:
                    seq += 1
                    sock.sendall(
                        json.dumps({"cmd": "take", "seq": seq - 1,
                                    "park_seconds": LONG}).encode() + b"\n"
                        + json.dumps({"cmd": "echo",
                                      "seq": seq}).encode() + b"\n")
                    sent[op[1]] += [seq - 1, seq]
            gate.open = True  # everything still parked may now answer
            server.wake()
            for i, sock in socks.items():
                rfile = sock.makefile("rb")
                got = [read_message(rfile)["seq"] for _ in sent[i]]
                assert got == sent[i]
        finally:
            for sock in socks.values():
                sock.close()
        barrier(server)
        assert server._parked == {}
