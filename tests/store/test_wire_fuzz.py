"""Generated frame streams against the wire server's parse machine.

Hypothesis builds byte streams of well-formed requests (pipelined,
oversized bodies and unknown commands included), then ends most of them
with one framing failure — a non-JSON line, a header that is not an
object, a ``size`` that is a string, negative, or shorter than its body,
a body or header cut off by the end of the stream — or with ``bye``, and
keeps writing frames after it. Each stream goes out in arbitrary segment
splits to a :class:`~repro.store.wire_server.WireServer` on port 0,
serving either the store table (over a :class:`MemoryBackend`) or the
coordinator table, while a reader thread collects the answers. A model
of each table predicts every answer and the state the answered requests
leave behind. Three properties:

1. after any stream, a fresh connection's ``server_stats`` is answered;
2. the requests before the first framing failure are answered in order,
   the failure gets exactly one error frame, and nothing after it is;
3. a rejected header changes no state: the backend's refs and digests
   (the queue's jobs) are exactly what the answered requests made them.
"""

import io
import json
import socket
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import JobQueue
from repro.cluster.coordinator import coordinator_commands
from repro.cluster.jobs import Job
from repro.store import AsyncStoreServer, MemoryBackend
from repro.store.wire import fold_json_body, json_body, read_message, \
    read_response_body
from repro.store.wire_server import SERVER_STATS_FIELDS, WireServer
from repro.util.hashing import content_digest

MAX_BODY = 64 * 1024
PAYLOADS = [b"", b"a", b"{}\n" * 4, bytes(range(256)) * 40, b"z" * 40_000]
NAMES = ["pins", "idx", "a/b"]
#: What `_answers` waits for a reply before it calls the server wedged.
TIMEOUT = 5.0

#: Per table and ending: every ending is explored, however the draws fall.
FUZZ = settings(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def line(header) -> bytes:
    """One header frame, compact: a line's length is the one computed."""
    return json.dumps(header, separators=(",", ":")).encode() + b"\n"


def rewinding(cmd: str) -> bytes:
    """A ``cmd`` line whose negative size is its own length: consuming
    that many bytes would put the parser back at its start."""
    for size in range(1, 100):
        frame = line({"cmd": cmd, "size": -size})
        if len(frame) == size:
            return frame
    raise AssertionError(cmd)


def is_ok(expected: dict):
    def check(header, body):
        assert header == expected, header
    return check


def is_error(prefix: str):
    def check(header, body):
        assert header["ok"] is False and "too_large" not in header, header
        assert header["error"].startswith(prefix), header
    return check


def not_found(header, body):
    assert header["ok"] is False and header["not_found"] is True, header


def too_large(header, body):
    assert header["ok"] is False and header["too_large"] is True, header


def unknown(header, body):
    assert header == {"ok": False, "error": "unknown command 'frobnicate'"}


def server_stats(header, body):
    assert header["ok"] is True and set(SERVER_STATS_FIELDS) <= set(header)


class StoreTable:
    """The store command table over a fresh :class:`MemoryBackend`; the
    model is ``(digests, refs)``."""

    rewind_cmd = "put"

    def __init__(self):
        self.digests: set[str] = set()
        self.refs: dict[str, bytes] = {}

    def request(self, draw):
        """One well-formed request: ``(bytes, check)``, applied to the
        model as if answered."""
        kind = draw(st.sampled_from(
            ["put", "get", "has", "set_ref", "get_ref", "put_many", "stat",
             "server_stats", "too_large", "unknown"]))
        payload = draw(st.sampled_from(PAYLOADS))
        digest = content_digest(payload)
        name = draw(st.sampled_from(NAMES))
        if kind == "put":
            self.digests.add(digest)
            return (line({"cmd": "put", "digest": digest,
                          "size": len(payload)}) + payload,
                    is_ok({"ok": True}))
        if kind == "get":
            frame = line({"cmd": "get", "digest": digest})
            if digest not in self.digests:
                return frame, not_found

            def got(header, body):
                assert header == {"ok": True, "size": len(payload)}, header
                assert body == payload
            return frame, got
        if kind == "has":
            return (line({"cmd": "has", "digest": digest}),
                    is_ok({"ok": True, "has": digest in self.digests}))
        if kind == "set_ref":
            data = draw(st.binary(max_size=16))
            self.refs[name] = data
            return (line({"cmd": "set_ref", "name": name, "size": len(data)})
                    + data, is_ok({"ok": True}))
        if kind == "get_ref":
            data = self.refs.get(name)
            frame = line({"cmd": "get_ref", "name": name})
            if data is None:
                return frame, is_ok({"ok": True, "size": -1})

            def ref(header, body):
                assert header == {"ok": True, "size": len(data)}, header
                assert body == data
            return frame, ref
        if kind == "put_many":
            blobs = {content_digest(p): p for p in draw(
                st.lists(st.sampled_from(PAYLOADS), max_size=3))}
            self.digests.update(blobs)
            return (line({"cmd": "put_many",
                          "blobs": [[d, len(p)] for d, p in blobs.items()]})
                    + b"".join(blobs.values()),
                    is_ok({"ok": True, "stored": len(blobs)}))
        if kind == "stat":
            count = len(self.digests)
            return line({"cmd": "stat"}), lambda header, body: \
                assert_equal(header["count"], count)
        if kind == "server_stats":
            return line({"cmd": "server_stats"}), server_stats
        if kind == "too_large":
            size = MAX_BODY + draw(st.integers(1, 2000))
            return (line({"cmd": "set_ref", "name": name, "size": size})
                    + b"o" * size, too_large)
        return line({"cmd": "frobnicate"}), unknown

    def sized(self, draw) -> dict:
        """A header that changes state if its handler ever runs."""
        return {"cmd": "set_ref", "name": draw(st.sampled_from(NAMES))}

    def short(self, draw, size: int):
        """A request whose handler runs on a ``size``-byte body cut from
        a longer one: ``(header, check)``, applied to the model."""
        name = draw(st.sampled_from(NAMES))
        self.refs[name] = b"x" * size
        return ({"cmd": "set_ref", "name": name, "size": size},
                is_ok({"ok": True}))

    def serve(self):
        return AsyncStoreServer(MemoryBackend(), max_body_bytes=MAX_BODY)

    def holds(self, server) -> None:
        backend = server.backend
        assert set(backend.digests()) == self.digests
        assert {name: backend.get_ref(name)
                for name in backend.refs()} == self.refs


class CoordinatorTable:
    """The coordinator command table over a fresh :class:`JobQueue`; the
    model is the set of submitted job ids."""

    rewind_cmd = "ping"

    def __init__(self):
        self.jobs: set[str] = set()
        self.queue = JobQueue()

    def request(self, draw):
        kind = draw(st.sampled_from(
            ["ping", "submit", "submit_body", "telemetry", "status",
             "server_stats", "too_large", "unknown"]))
        if kind == "ping":
            return (line({"cmd": "ping"}),
                    is_ok({"ok": True, "server": "cluster-coordinator"}))
        if kind in ("submit", "submit_body"):
            jobs = [self.new_job() for _ in range(draw(st.integers(0, 2)))]
            check = is_ok({"ok": True, "submitted": len(jobs)})
            if kind == "submit":
                return line({"cmd": "submit", "jobs": jobs}), check
            header, body = json_body({"cmd": "submit"}, {"jobs": jobs})
            return line(header) + body, check
        if kind == "telemetry":
            count = len(self.jobs)
            return line({"cmd": "telemetry"}), lambda header, body: \
                assert_equal(header["telemetry"]["jobs"]["total"], count)
        if kind == "status":
            ids = sorted(self.jobs)
            return line({"cmd": "status", "job_ids": ids}), \
                lambda header, body: assert_equal(
                    sorted(fold_json_body(header, body)["jobs"]), ids)
        if kind == "server_stats":
            return line({"cmd": "server_stats"}), server_stats
        if kind == "too_large":
            size = MAX_BODY + draw(st.integers(1, 2000))
            return line({"cmd": "ping", "size": size}) + b"o" * size, \
                too_large
        return line({"cmd": "frobnicate"}), unknown

    def new_job(self) -> dict:
        job = Job(job_id=f"j{len(self.jobs)}", kind="test", spec={})
        self.jobs.add(job.job_id)
        return job.to_json()

    def sized(self, draw) -> dict:
        job = Job(job_id="never", kind="test", spec={})
        return {"cmd": "submit", "jobs": [job.to_json()]}

    def short(self, draw, size: int):
        return ({"cmd": "ping", "size": size},
                is_ok({"ok": True, "server": "cluster-coordinator"}))

    def serve(self):
        return WireServer(coordinator_commands(self.queue),
                          name="cluster.server", max_body_bytes=MAX_BODY)

    def holds(self, server) -> None:
        assert set(self.queue.status()) == self.jobs


def assert_equal(actual, expected) -> None:
    assert actual == expected, (actual, expected)


ENDINGS = ["none", "bye", "not_json", "not_object", "size_string",
           "size_negative", "size_rewinds", "size_short", "body_truncated",
           "header_truncated"]


@st.composite
def streams(draw, table_type, ending):
    """``(table, segments, checks)``: requests closed by ``ending``, the
    bytes split into segments, and one check per answer the server owes,
    in order."""
    table = table_type()
    data = bytearray()
    checks = []
    for _ in range(draw(st.integers(0, 5))):
        frame, check = table.request(draw)
        data += frame
        checks.append(check)
    last = False  # the failure is the end of the stream itself
    if ending == "bye":
        data += line({"cmd": "bye"})
    elif ending == "not_json":
        data += b"{not json\n"
        checks.append(is_error("malformed header"))
    elif ending == "not_object":
        data += b"[1,2]\n"
        checks.append(is_error("malformed header: not an object"))
    elif ending == "size_string":
        data += line({**table.sized(draw), "size": "abc"})
        checks.append(is_error("malformed header"))
    elif ending == "size_negative":
        size = -draw(st.integers(1, 64))
        data += line({**table.sized(draw), "size": size})
        checks.append(is_error("malformed header"))
    elif ending == "size_rewinds":
        data += rewinding(table.rewind_cmd)
        checks.append(is_error("malformed header"))
    elif ending == "size_short":
        # The handler runs on the declared bytes; the rest of the body
        # starts the next header line, which cannot parse.
        size = draw(st.integers(0, 16))
        header, check = table.short(draw, size)
        data += line(header) + b"x" * (size + draw(st.integers(1, 16)))
        checks += [check, is_error("malformed header")]
    elif ending == "body_truncated":
        size = draw(st.integers(1, 64))
        data += line({**table.sized(draw), "size": size})
        data += b"t" * draw(st.integers(0, size - 1))
        checks.append(is_error("short body"))
        last = True
    elif ending == "header_truncated":
        data += b'{"cmd":"stat"'
        checks.append(is_error("malformed header: truncated"))
        last = True
    if ending != "none" and not last:
        # Nothing after the session's end may be answered — or applied.
        throwaway = table_type()
        for _ in range(draw(st.integers(0, 3))):
            data += throwaway.request(draw)[0]
    cuts = sorted(set(draw(st.lists(st.integers(0, len(data)),
                                    max_size=6))))
    bounds = [0, *cuts, len(data)]
    segments = [bytes(data[a:b]) for a, b in zip(bounds, bounds[1:]) if b > a]
    return table, segments, checks


def _answers(address, segments) -> list[tuple[dict, bytes]]:
    """Send ``segments``, half-close, and collect every answer frame
    until the server closes (or goes quiet for TIMEOUT)."""
    received = bytearray()
    with socket.create_connection(address, timeout=TIMEOUT) as sock:
        def read_all() -> None:
            try:
                while chunk := sock.recv(1 << 16):
                    received.extend(chunk)
            except OSError:  # reset or silence: what arrived is the answer
                pass

        reader = threading.Thread(target=read_all)
        reader.start()
        try:
            for segment in segments:
                sock.sendall(segment)
            sock.shutdown(socket.SHUT_WR)
        except OSError:  # the server ended the session first
            pass
        reader.join(timeout=2 * TIMEOUT)
        assert not reader.is_alive()
    rfile = io.BytesIO(bytes(received))
    answers = []
    while rfile.tell() < len(received):
        header = read_message(rfile)
        answers.append((header, read_response_body(rfile, header)))
    return answers


def _probe(address) -> dict:
    """``server_stats`` on a fresh connection, bounded by TIMEOUT."""
    with socket.create_connection(address, timeout=TIMEOUT) as sock:
        sock.sendall(line({"cmd": "server_stats"}))
        return read_message(sock.makefile("rb"))


def _run(table, segments, checks) -> None:
    with table.serve() as server:
        answers = _answers(server.address, segments)
        # Property 1: the server still answers a newcomer.
        assert _probe(server.address)["ok"] is True
        # Property 2: one answer per owed check, in order, then nothing.
        assert len(answers) == len(checks), answers
        for (header, body), check in zip(answers, checks):
            check(header, body)
        # Property 3: only the answered requests changed state.
        table.holds(server)


@pytest.mark.parametrize("ending", ENDINGS)
@pytest.mark.parametrize("table_type", [StoreTable, CoordinatorTable],
                         ids=["store", "coordinator"])
@FUZZ
@given(data=st.data())
def test_any_frame_stream(table_type, ending, data):
    _run(*data.draw(streams(table_type, ending)))
