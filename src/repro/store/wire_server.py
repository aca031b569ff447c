"""The one wire server: a ``selectors`` event loop driven by a command table.

Every socket server in the repo — the artifact-store data plane
(:class:`~repro.store.async_server.AsyncStoreServer`) and the build-farm
control plane (:class:`~repro.cluster.coordinator.Coordinator`) — is a
:class:`WireServer` plus a ``{cmd: Command}`` dict. The loop owns
everything that is about *connections* (accept, framing, sessions,
backpressure, body guards, wire spans, traffic counters, the executor
hand-off); a table row owns everything that is about one *command*: its
handler ``(req, body) -> (header, payload)``, how its header declares a
fixed body, and — for the two store commands that stream — how to open a
chunk sink or a chunk source. A server that wants a new operation adds a
row; nothing in the loop branches on command names.

Design:

* **Non-blocking sockets, incremental parsing.** Each connection owns an
  input buffer and a small state machine (``header`` -> ``body`` /
  ``chunks`` -> back), so a request header split across ten TCP segments
  or a 4 MiB chunked body arriving at line rate both parse without a
  dedicated thread blocking on ``recv``.
* **A small executor for blocking handlers.** With ``executor_workers``
  set, handlers run on a ``ThreadPoolExecutor``; results come back to
  the loop through a completion queue and a socketpair waker. Streamed
  transfers ride the same executor: a chunked put's sink opens, writes
  (in batches of whatever chunks arrived since the last batch) and
  commits off-loop, and a chunked get's source is opened and pulled
  off-loop an outbuf's worth at a time — one contended disk never stalls
  the other connections. With ``executor_workers=0`` everything runs
  inline: for in-memory work the executor hop would dominate. The rule
  both servers apply: an executor exactly when handlers can block on
  storage (a ``persistent`` store backend; a coordinator with a journal).
* **Write-side backpressure.** Responses append to a bounded
  per-connection output buffer. When a slow reader lets it reach
  ``max_outbuf_bytes``, the loop stops *reading* from that connection
  (so it cannot pipeline more work) and stops pulling from an in-flight
  chunked response until the buffer drains below the bound again. The
  same bound caps a chunked put's not-yet-written backlog when the disk
  is the slow side. One stalled peer costs one buffer, never the loop.
* **O(chunk) body residency.** Streamed puts feed each chunk straight
  into the command's sink; streamed gets pull the source ``CHUNK_SIZE``
  bytes at a time, paced by the output buffer. The ``peak_body_bytes``
  high-water mark in :class:`ServerMetrics` is the observable: a 4 MiB
  streamed transfer moves it by one chunk, not one blob.
* **max_body_bytes.** An oversized fixed body is consumed and discarded
  (framing survives), an oversized chunked body aborts its sink and
  drains to the terminator; both get a clean ``"too_large"`` error frame
  and the session continues.
* **Fault isolation.** A header that parses as JSON but is malformed
  where it counts (``"size": "abc"``) fails that session with an error
  frame; an unknown command or a handler exception is answered and the
  session continues; a bug anywhere in a per-connection code path closes
  that connection. None reaches the event loop — a single poisoned
  packet must never take down the daemon.

* **Parked requests.** A row with a ``timeout`` is a *parking* row: its
  handler may answer "not yet", and the loop then holds the request —
  the connection stays ``busy`` exactly as during an executor hand-off,
  but no thread and no executor slot is held — and runs the handler
  again whenever :meth:`WireServer.wake` is called (from any thread)
  and when the request's own deadline passes; ``select()`` sleeps until
  the nearest deadline. Blocking calls (a worker's ``fetch``, a
  submitter's ``wait``) are built on this instead of client-side
  polling. See :class:`Command` for the contract.

Ordering: responses must leave in request order, so while a chunked
response is being pumped (or a request is executing or parked) the loop
parses no further requests from that connection — pipelined input simply
waits in the buffer. A peer that half-closes its write side is honored:
everything already buffered is parsed and answered, the output flushed,
then the connection closed.

Connection identity: the loop never tests liveness by fd membership —
fds are reused, so a completion for a connection that died mid-request
could otherwise act on the unrelated connection that inherited its fd.
Every check is ``_conns.get(conn.fd) is conn``, and :meth:`_close` only
evicts the table entry that still maps to the closing object.
"""

from __future__ import annotations

import collections
import functools
import json
import selectors
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

from repro.store.backend import BlobNotFound
from repro.store.wire import (
    CHUNK_PREFIX_BYTES,
    CHUNK_TERMINATOR,
    MAX_CHUNK_BYTES,
    MAX_HEADER_BYTES,
    chunk_prefix,
    encode_message,
    parse_chunk_prefix,
)
from repro.telemetry import events as _events
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.trace import TraceRecorder, begin_wire_span, end_wire_span

__all__ = ["Command", "ServerMetrics", "WireServer", "size_field",
           "DEFAULT_MAX_BODY_BYTES", "DEFAULT_MAX_OUTBUF_BYTES",
           "SERVER_STATS_FIELDS"]

#: Reject any single request body larger than this instead of staging
#: (or even draining into a sink) without bound. Generous: lowered-module
#: blobs are tens of MB at most.
DEFAULT_MAX_BODY_BYTES = 1 << 30

#: Per-connection output-buffer bound: the backpressure high-water mark.
#: Reaching it pauses both reads from that peer and chunk production for
#: it. Large enough to keep a healthy reader's pipe full, small enough
#: that a thousand stalled peers still cost well under a gigabyte. The
#: same bound caps a chunked put's parsed-but-unwritten backlog.
DEFAULT_MAX_OUTBUF_BYTES = 1 << 20

#: The documented ``stats()`` schema — what the built-in ``server_stats``
#: command of every :class:`WireServer` returns (asserted in
#: tests/telemetry).
SERVER_STATS_FIELDS = ("connections_served", "requests_served", "bytes_in",
                       "bytes_out", "peak_body_bytes", "peak_outbuf_bytes")

# Sized for bulk transfer: reading 64 KiB at a time would cost a full
# select round per chunk frame and cap large-blob throughput well below
# loopback speed; a 256 KiB recv and a send that can flush a whole
# high-water output buffer keep the loop syscall-bound, not round-bound.
_RECV_BYTES = 1 << 18
_SEND_BYTES = 1 << 20

_ACCEPT = "accept"
_WAKER = "waker"
#: `_done` entry queued by :meth:`WireServer.wake`.
_WAKE = (None, None)


def _no_body(req: dict) -> int:
    return 0


def size_field(req: dict) -> int:
    """Body declaration shared by most commands: ``"size": N`` bytes."""
    return int(req.get("size") or 0)


@dataclass(frozen=True)
class Command:
    """One row of a server's command table."""

    #: ``(req, body) -> (response header, response payload)``. ``body``
    #: is the fully-read fixed body; the handler never touches the socket
    #: and is safe to run on an executor thread. An exception is answered
    #: as an error frame and the session continues.
    handler: Callable[[dict, bytes], "tuple[dict, bytes]"]
    #: Fixed body bytes the request header declares. Raising (a malformed
    #: ``size``) ends the session — the frame stream cannot be resynced.
    body_size: Callable[[dict], int] = _no_body
    #: ``sink(req)`` opens an incremental writer (``write``/``commit``/
    #: ``abort``, ``buffered``, ``bytes_written``) for a request body
    #: sent as chunk frames. None: the command takes no chunked body.
    sink: "Callable[[dict], object] | None" = None
    #: ``source(req) -> (header, chunk iterator)`` answers a request that
    #: asked for a chunked response. None: the command never streams.
    source: "Callable[[dict], tuple[dict, object]] | None" = None
    #: ``timeout(req, body) -> (header, payload)`` makes this a *parking*
    #: row. Its ``handler`` may then return, instead of a response,
    #: ``None`` ("not yet") or a number ("not yet; look again within
    #: this many seconds"), and the loop parks the request: the handler
    #: runs again on every :meth:`WireServer.wake`, when that number of
    #: seconds is up, and when the park ends — ``"park_seconds"`` in the
    #: request header after its arrival (absent or 0: at once), or the
    #: server stopping — where ``timeout`` answers if the handler still
    #: does not. The deadline rides the request because only the
    #: requester knows how long it may block (its socket timeout, its own
    #: idle budget). Both callables run on the *loop thread*, never the
    #: executor — they must only read and update in-memory state, and in
    #: exchange a handler that claims something does so in the same step
    #: that buffers its answer on a connection known to be open. They
    #: must be repeatable until they answer. A peer that closes (or half-closes)
    #: while parked is dropped unanswered and its handler never runs
    #: again; a request pipelined behind a parked one waits its turn.
    timeout: "Callable[[dict, bytes], tuple[dict, bytes]] | None" = None


def error_response(exc: Exception) -> dict:
    """The error frame for a failed command; a missing blob is flagged
    so clients can raise their ``BlobNotFound``."""
    resp = {"ok": False, "error": str(exc)}
    if isinstance(exc, BlobNotFound):
        resp["not_found"] = True
    return resp


def _too_large_response(total: int, max_body: int) -> dict:
    return {"ok": False, "too_large": True,
            "error": f"body of {total} bytes exceeds "
                     f"max_body_bytes={max_body}"}


class ServerMetrics:
    """Thread-safe traffic counters of one :class:`WireServer`.

    ``peak_body_bytes`` is the largest single body buffer the server ever
    held resident — a streamed transfer should keep it at the chunk
    size, a whole-body one pins it at the blob size. ``peak_outbuf_bytes``
    is the write-buffer high-water mark (the backpressure bound).

    The counters live in a :class:`~repro.telemetry.registry
    .MetricsRegistry` (one per server) under ``<prefix>.*`` names —
    ``store.server.*`` for the store, ``cluster.server.*`` for the
    coordinator; the attribute reads and :meth:`snapshot` shape are views
    over it.
    """

    def __init__(self, prefix: str) -> None:
        self.registry = MetricsRegistry()
        self._connections = self.registry.counter(f"{prefix}.connections")
        self._requests = self.registry.counter(f"{prefix}.requests")
        self._bytes_in = self.registry.counter(f"{prefix}.bytes_in")
        self._bytes_out = self.registry.counter(f"{prefix}.bytes_out")
        self._peak_body = self.registry.gauge(f"{prefix}.peak_body_bytes")
        self._peak_outbuf = self.registry.gauge(f"{prefix}.peak_outbuf_bytes")
        self.backpressure_pauses = self.registry.counter(
            f"{prefix}.backpressure_pauses")

    def connection(self) -> None:
        self._connections.inc()

    def request(self) -> None:
        self._requests.inc()

    def add_in(self, n: int) -> None:
        self._bytes_in.inc(n)

    def add_out(self, n: int) -> None:
        self._bytes_out.inc(n)

    def note_body(self, n: int) -> None:
        self._peak_body.max_of(n)

    def note_outbuf(self, n: int) -> None:
        self._peak_outbuf.max_of(n)

    @property
    def connections_served(self) -> int:
        return self._connections.value

    @property
    def requests_served(self) -> int:
        return self._requests.value

    @property
    def bytes_in(self) -> int:
        return self._bytes_in.value

    @property
    def bytes_out(self) -> int:
        return self._bytes_out.value

    @property
    def peak_body_bytes(self) -> int:
        return int(self._peak_body.value)

    @property
    def peak_outbuf_bytes(self) -> int:
        return int(self._peak_outbuf.value)

    def snapshot(self) -> dict:
        return {
            "connections_served": self.connections_served,
            "requests_served": self.requests_served,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "peak_body_bytes": self.peak_body_bytes,
            "peak_outbuf_bytes": self.peak_outbuf_bytes,
        }


class _Connection:
    """Per-connection parse/write state for the event loop."""

    __slots__ = ("sock", "fd", "inbuf", "pos", "outbuf", "state", "need",
                 "req", "discard", "declared", "writer", "stream",
                 "stream_total", "failure", "busy", "eof", "closing",
                 "events", "registered", "io_busy", "pending",
                 "pending_bytes", "put_done", "put_over", "opened",
                 "open_sink", "trace_tok", "paused")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.fd = sock.fileno()
        self.inbuf = bytearray()
        self.pos = 0            # parse offset into inbuf (compacted lazily)
        self.outbuf = bytearray()
        self.state = "header"
        self.need = 0           # fixed-body bytes still owed
        self.req = None         # header awaiting its fixed body
        self.discard = False    # fixed body being drained (too large)
        self.declared = 0       # size of the body being drained
        self.writer = None      # incremental sink writer (chunked put)
        self.stream = None      # chunk iterator (chunked response)
        self.stream_total = 0   # chunked-put payload bytes so far
        self.failure = None     # deferred chunked-put error (bad digest...)
        self.busy = False       # a request is executing; don't parse more
        self.eof = False        # peer half-closed its write side
        self.closing = False    # flush outbuf, then close
        self.events = 0
        self.registered = False
        # Executor-routed streamed I/O:
        self.io_busy = False    # a disk op for this conn is in flight
        self.pending = []       # parsed put chunks awaiting their write op
        self.pending_bytes = 0
        self.put_done = False   # terminator seen; commit once writes drain
        self.put_over = False   # body exceeded max_body_bytes; draining
        self.opened = False     # sink open was attempted
        self.open_sink = None   # zero-arg opener of the current put's sink
        self.trace_tok = None   # (wire-span token, cmd) of a traced request
        self.paused = False     # reads suspended by write-side backpressure


class _Parked:
    """One parked request: what to run again, and by when."""

    __slots__ = ("command", "req", "body", "deadline", "due")

    def __init__(self, command: Command, req: dict, body: bytes,
                 deadline: float):
        self.command = command
        self.req = req
        self.body = body
        self.deadline = deadline  # monotonic: the park ends, `timeout` answers
        self.due = deadline       # monotonic: run the handler again by then


class WireServer:
    """Serve ``commands`` over line-framed JSON sessions on ``127.0.0.1``.

    Usage::

        server = WireServer({"ping": Command(lambda req, body:
                                             ({"ok": True}, b""))})
        host, port = server.start()
        ...
        server.stop()

    Also usable as a context manager. Port 0 (the default) lets the OS
    pick a free port — the chosen one is returned by :meth:`start`.
    ``name`` prefixes the server's metric names, wire-span names
    (``<name>.<cmd>``) and thread names. Every table gains a built-in
    ``server_stats`` command answering :data:`SERVER_STATS_FIELDS`.
    """

    def __init__(self, commands: "dict[str, Command]",
                 host: str = "127.0.0.1", port: int = 0,
                 name: str = "wire.server",
                 max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
                 max_outbuf_bytes: int = DEFAULT_MAX_OUTBUF_BYTES,
                 executor_workers: int = 0,
                 recorder: "TraceRecorder | None" = None):
        self.name = name
        self.commands = {"server_stats": Command(self._server_stats),
                         **commands}
        self.max_body_bytes = max_body_bytes
        self.max_outbuf_bytes = max_outbuf_bytes
        self.metrics = ServerMetrics(name)
        #: Spans recorded for traced requests (bounded; untraced traffic
        #: records nothing). Drained by the owner's ``telemetry`` command.
        self.recorder = recorder if recorder is not None else TraceRecorder()
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers,
            thread_name_prefix=f"{name}-io") if executor_workers else None
        self._done: collections.deque = collections.deque()
        self._conns: dict[int, _Connection] = {}
        #: Parked requests in arrival order, so a wake serves the longest
        #: waiter first. Loop-thread only.
        self._parked: dict[_Connection, _Parked] = {}
        self._selector = selectors.DefaultSelector()
        # create_server sets SO_REUSEADDR: a restarted server rebinds the
        # port its predecessor held while those sockets drain TIME_WAIT.
        self._listen = socket.create_server((host, port), backlog=256,
                                            reuse_port=False)
        self._listen.setblocking(False)
        self._selector.register(self._listen, selectors.EVENT_READ, _ACCEPT)
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._selector.register(self._wake_recv, selectors.EVENT_READ,
                                _WAKER)
        self._stopping = False
        self._thread: "threading.Thread | None" = None

    # -- public surface --------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._listen.getsockname()[:2]
        return str(host), int(port)

    @property
    def connections_served(self) -> int:
        return self.metrics.connections_served

    @property
    def requests_served(self) -> int:
        return self.metrics.requests_served

    def stats(self) -> dict:
        """Traffic counters — exactly :data:`SERVER_STATS_FIELDS`."""
        return self.metrics.snapshot()

    def _server_stats(self, req: dict, body: bytes) -> tuple[dict, bytes]:
        return {"ok": True, **self.stats()}, b""

    def start(self) -> tuple[str, int]:
        self._thread = threading.Thread(target=self._run,
                                        name=f"{self.name}-loop",
                                        daemon=True)
        self._thread.start()
        return self.address

    def wake(self) -> None:
        """Run every parked request's handler again (any thread; cheap
        and idempotent — call it whenever what they wait on changed)."""
        self._done.append(_WAKE)
        self._wakeup()

    def stop(self) -> None:
        """Answer what is parked (``timeout``), then close everything."""
        self._stopping = True
        self._wakeup()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        if self._executor is not None:
            self._executor.shutdown(wait=False)
        self.abandon()

    def abandon(self) -> None:
        """Close this process's handles on the listening socket, the wake
        pair and the selector, and tell nobody. The end of :meth:`stop` —
        and all a forked child does with the server it inherited: the
        parent's loop keeps its own descriptors, and once the parent has
        closed them no process is left holding the port open."""
        for sock in (self._listen, self._wake_recv, self._wake_send):
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        # Closes the descriptor only; unregistering would edit the epoll
        # set a forked child shares with its parent.
        self._selector.close()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- event loop ------------------------------------------------------------

    def _wakeup(self) -> None:
        try:
            self._wake_send.send(b"\x01")
        except OSError:  # pragma: no cover - full pipe already wakes us
            pass

    def _live(self, conn: _Connection) -> bool:
        """Whether ``conn`` is still THE connection on its fd. Identity,
        not membership: a reused fd must never vouch for a dead object."""
        return self._conns.get(conn.fd) is conn

    def _run(self) -> None:
        while not self._stopping:
            for key, mask in self._selector.select(self._park_timeout()):
                if key.data is _ACCEPT:
                    self._accept()
                elif key.data is _WAKER:
                    try:
                        while self._wake_recv.recv(1024):
                            pass
                    except BlockingIOError:
                        pass
                else:
                    conn = key.data
                    if not self._live(conn):
                        continue  # closed earlier this sweep
                    try:
                        if mask & selectors.EVENT_READ:
                            self._on_readable(conn)
                        if self._live(conn) and \
                                mask & selectors.EVENT_WRITE:
                            self._on_writable(conn)
                    except Exception:  # a handler bug costs one connection,
                        self._close(conn)  # never the loop
            # After the socket events: a peer found closed this sweep
            # has left the park table before any handler can claim for it.
            self._service_parked(self._drain_done())
        for conn in list(self._parked):
            self._try_parked(conn, stopping=True)
        for conn in list(self._conns.values()):
            if conn.outbuf:  # the parked answers: small, one send
                try:
                    conn.sock.send(conn.outbuf)
                except OSError:
                    pass
            self._close(conn)

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listen.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover
                pass
            conn = _Connection(sock)
            self._conns[conn.fd] = conn
            self._selector.register(sock, selectors.EVENT_READ, conn)
            conn.events = selectors.EVENT_READ
            conn.registered = True
            self.metrics.connection()

    def _close(self, conn: _Connection) -> None:
        if self._conns.get(conn.fd) is conn:
            del self._conns[conn.fd]
        self._parked.pop(conn, None)
        if conn.registered:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError):  # pragma: no cover
                pass
            conn.registered = False
        conn.pending.clear()
        conn.pending_bytes = 0
        if conn.io_busy:
            # An executor op owns the writer/stream right now; its
            # completion callback sees the dead connection and cleans up.
            conn.writer = None
            conn.stream = None
        if conn.writer is not None:
            try:
                conn.writer.abort()
            except Exception:  # pragma: no cover
                pass
            conn.writer = None
        if conn.stream is not None:
            self._close_stream(conn.stream)
            conn.stream = None
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover
            pass

    @staticmethod
    def _close_stream(stream) -> None:
        close = getattr(stream, "close", None)
        if close is not None:
            try:
                close()
            except Exception:  # pragma: no cover
                pass

    def _update(self, conn: _Connection) -> None:
        """Recompute selector interest; close if the session is over."""
        if not self._live(conn):
            return
        if (not conn.outbuf and conn.stream is None and not conn.busy
                and not conn.io_busy):
            if conn.closing or (conn.eof and not conn.inbuf):
                self._close(conn)
                return
        events = 0
        # A parked connection is still read — that is how its peer's
        # close is seen — but what it pipelines meanwhile is bounded.
        parked = conn in self._parked
        want_read = (not conn.eof and not conn.closing
                     and (not conn.busy or parked) and conn.stream is None)
        buffer_full = (len(conn.outbuf) >= self.max_outbuf_bytes
                       or conn.pending_bytes >= self.max_outbuf_bytes
                       or (parked
                           and len(conn.inbuf) >= self.max_outbuf_bytes))
        if want_read and not buffer_full:
            events |= selectors.EVENT_READ
        if want_read and buffer_full:
            if not conn.paused:  # edge, not level: one event per pause
                conn.paused = True
                self.metrics.backpressure_pauses.inc()
                _events.emit("warn", "backpressure pause: reads suspended",
                             fd=conn.fd, outbuf_bytes=len(conn.outbuf),
                             pending_bytes=conn.pending_bytes,
                             max_outbuf_bytes=self.max_outbuf_bytes)
        elif conn.paused:
            conn.paused = False
        if conn.outbuf:
            events |= selectors.EVENT_WRITE
        if events == conn.events:
            return
        if not events:
            if conn.registered:
                self._selector.unregister(conn.sock)
                conn.registered = False
        elif conn.registered:
            self._selector.modify(conn.sock, events, conn)
        else:
            self._selector.register(conn.sock, events, conn)
            conn.registered = True
        conn.events = events if events else 0

    # -- reading / parsing -----------------------------------------------------

    def _on_readable(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            self._close(conn)
            return
        if not data:
            conn.eof = True
            if conn in self._parked:
                # The requester is gone: nothing is claimed on its behalf.
                self._close(conn)
                return
        else:
            self.metrics.add_in(len(data))
            conn.inbuf += data
        self._process(conn)
        self._update(conn)

    def _process(self, conn: _Connection) -> None:
        """Advance the parse state machine over buffered input.

        Stops while a request executes or a chunked response streams —
        responses leave in request order, so pipelined input waits.
        Parsing moves ``conn.pos`` through ``inbuf`` and compacts once on
        the way out, so consuming a frame never memmoves the buffer tail
        (a 4 MiB chunked body is ~64 frames, not 64 buffer rewrites).
        """
        try:
            while (not conn.busy and not conn.closing
                    and conn.stream is None and self._live(conn)):
                if conn.state == "header":
                    if not self._parse_header(conn):
                        return
                elif conn.state == "body":
                    if not self._parse_body(conn):
                        return
                elif conn.state == "chunks":
                    if not self._parse_chunk(conn):
                        return
        finally:
            if conn.pos:
                del conn.inbuf[:conn.pos]
                conn.pos = 0

    def _fail(self, conn: _Connection, error: str) -> None:
        """Framing failure: answer once, then end the session (the frame
        stream cannot be resynchronized)."""
        self._respond(conn, {"ok": False, "error": error})
        conn.closing = True

    def _parse_header(self, conn: _Connection) -> bool:
        idx = conn.inbuf.find(b"\n", conn.pos)
        if idx < 0:
            if len(conn.inbuf) - conn.pos > MAX_HEADER_BYTES:
                self._fail(conn, "header too large")
            elif conn.eof and len(conn.inbuf) > conn.pos:
                self._fail(conn, "malformed header: truncated")
            return False
        line = bytes(conn.inbuf[conn.pos:idx])
        conn.pos = idx + 1
        if len(line) > MAX_HEADER_BYTES:
            self._fail(conn, "header too large")
            return False
        try:
            req = json.loads(line.decode("utf-8"))
        except ValueError as exc:
            self._fail(conn, f"malformed header: {exc}")
            return False
        if not isinstance(req, dict):
            self._fail(conn, "malformed header: not an object")
            return False
        if req.get("cmd") == "bye":
            conn.closing = True
            return False
        self.metrics.request()
        # Traced request: remember a wire-span token; the span closes in
        # `_respond` when this request's response header is buffered
        # (responses leave in request order, so the pairing is exact).
        token = begin_wire_span(req.get("trace"))
        conn.trace_tok = (token, req.get("cmd")) if token is not None else None
        try:
            self._begin_request(conn, req)
        except Exception as exc:
            # Valid JSON, malformed where it counts ("size": "abc",
            # "blobs": 123): the body length is unknowable, so the
            # session ends — and the failure must never reach the loop.
            self._fail(conn, f"malformed header: {exc}")
            return False
        return True

    def _begin_request(self, conn: _Connection, req: dict) -> None:
        command = self.commands.get(req.get("cmd"))
        if req.get("chunked"):
            if command is not None and command.sink is not None:
                self._begin_sink(conn, functools.partial(command.sink, req))
            elif command is not None and command.source is not None:
                self._begin_source(conn,
                                   functools.partial(command.source, req))
            else:
                self._fail(conn,
                           f"command {req.get('cmd')!r} does not stream")
            return
        # An unknown command declares no body; `_run_command` answers it.
        declared = command.body_size(req) if command is not None else 0
        if declared > self.max_body_bytes:
            conn.state = "body"
            conn.need = declared
            conn.declared = declared
            conn.discard = True
            return
        if declared:
            conn.state = "body"
            conn.need = declared
            conn.discard = False
            conn.req = req
            return
        self._dispatch(conn, req, b"")

    def _begin_sink(self, conn: _Connection, open_sink) -> None:
        conn.state = "chunks"
        conn.stream_total = 0
        conn.failure = None
        conn.writer = None
        conn.put_done = False
        conn.put_over = False
        del conn.pending[:]
        conn.pending_bytes = 0
        conn.open_sink = open_sink
        if self._executor is None:
            try:
                conn.writer = open_sink()
            except Exception as exc:
                # Malformed digest or failed open (ENOSPC, EACCES): drain
                # the chunk stream, then report.
                conn.failure = exc
            conn.opened = True
        else:
            # The sink opens lazily inside the first I/O batch, off the
            # loop thread.
            conn.opened = False

    def _parse_body(self, conn: _Connection) -> bool:
        avail = len(conn.inbuf) - conn.pos
        if conn.discard:
            take = min(avail, conn.need)
            conn.pos += take
            conn.need -= take
            if conn.need:
                if conn.eof:
                    self._fail(conn, f"short body: expected {conn.need} "
                                     f"more bytes")
                return False
            conn.discard = False
            conn.state = "header"
            self._respond(conn, _too_large_response(conn.declared,
                                                    self.max_body_bytes))
            return True
        if avail < conn.need:
            if conn.eof:
                self._fail(conn, f"short body: expected "
                                 f"{conn.need - avail} more bytes")
            return False
        body = bytes(conn.inbuf[conn.pos:conn.pos + conn.need])
        conn.pos += conn.need
        req, conn.req = conn.req, None
        conn.need = 0
        conn.state = "header"
        self.metrics.note_body(len(body))
        self._dispatch(conn, req, body)
        return True

    def _parse_chunk(self, conn: _Connection) -> bool:
        avail = len(conn.inbuf) - conn.pos
        if avail < CHUNK_PREFIX_BYTES:
            if conn.eof:
                self._fail(conn, "short body: chunk stream truncated")
            return False
        size = parse_chunk_prefix(conn.inbuf, conn.pos)
        if size == 0:
            conn.pos += CHUNK_PREFIX_BYTES
            conn.state = "header"
            if self._executor is None:
                self._finish_chunked_put(conn)
            else:
                # Writes may still be in flight; hold response ordering
                # (busy) and commit once the write queue drains.
                conn.busy = True
                conn.put_done = True
                self._drive_put(conn)
            return True
        if size > MAX_CHUNK_BYTES:
            self._fail(conn, f"chunk frame of {size} bytes exceeds "
                             f"{MAX_CHUNK_BYTES}")
            return False
        frame = CHUNK_PREFIX_BYTES + size
        if avail < frame:
            if conn.eof:
                self._fail(conn, "short body: chunk stream truncated")
            return False
        start = conn.pos + CHUNK_PREFIX_BYTES
        chunk = bytes(conn.inbuf[start:start + size])
        conn.pos += frame
        conn.stream_total += size
        if conn.stream_total > self.max_body_bytes:
            conn.put_over = True  # keep draining; answer at terminator
        if self._executor is None:
            self._put_chunk_inline(conn, chunk)
        elif not conn.put_over and conn.failure is None:
            self.metrics.note_body(len(chunk))
            conn.pending.append(chunk)
            conn.pending_bytes += size
            self._drive_put(conn)
        elif conn.put_over:
            self._drive_put(conn)  # abort the writer promptly
        return True

    def _put_chunk_inline(self, conn: _Connection, chunk: bytes) -> None:
        if conn.writer is None:
            return  # draining: failed open, overflow, or write failure
        self.metrics.note_body(conn.stream_total if conn.writer.buffered
                               else len(chunk))
        if conn.put_over:
            conn.writer.abort()
            conn.writer = None
            return
        try:
            conn.writer.write(chunk)
        except Exception as exc:  # disk full mid-stream, etc.
            conn.failure = exc
            conn.writer.abort()
            conn.writer = None

    # -- executing -------------------------------------------------------------

    def _dispatch(self, conn: _Connection, req: dict, body: bytes) -> None:
        command = self.commands.get(req.get("cmd"))
        if command is None or command.timeout is None:
            self._submit(conn, lambda: self._run_command(req, body),
                         self._finish)
            return
        try:
            deadline = time.monotonic() + float(
                req.get("park_seconds") or 0.0)
        except (TypeError, ValueError) as exc:
            self._finish(conn, (error_response(exc), b""))
            return
        conn.busy = True
        self._parked[conn] = _Parked(command, req, body, deadline)
        self._try_parked(conn)

    def _run_command(self, req: dict, body: bytes) -> tuple[dict, bytes]:
        command = self.commands.get(req.get("cmd"))
        if command is None:
            return {"ok": False,
                    "error": f"unknown command {req.get('cmd')!r}"}, b""
        try:
            return command.handler(req, body)
        except Exception as exc:  # answered; the session continues
            return error_response(exc), b""

    def _finish_chunked_put(self, conn: _Connection) -> None:
        writer, conn.writer = conn.writer, None
        failure, conn.failure = conn.failure, None
        total = conn.stream_total
        max_body = self.max_body_bytes

        def commit() -> tuple[dict, bytes]:
            if total > max_body:
                return _too_large_response(total, max_body), b""
            if failure is not None:
                return error_response(failure), b""
            try:
                writer.commit()
            except Exception as exc:  # integrity rejection and kin
                return error_response(exc), b""
            # NOT "size": that would declare a response body.
            return {"ok": True, "received": total}, b""

        self._submit(conn, commit, self._finish)

    def _submit(self, conn: _Connection, fn, done) -> None:
        """Run ``fn`` (which never raises) for ``conn`` — inline, or on
        the executor — then ``done(conn, fn())`` on the loop thread. The
        connection parses nothing further until ``done`` clears ``busy``."""
        conn.busy = True
        if self._executor is None:
            done(conn, fn())
        else:
            self._offload(conn, fn, done)

    def _offload(self, conn: _Connection, fn, done) -> None:
        """Executor hand-off: the worker thread queues a loop-side
        completion and pokes the loop awake."""
        def completed(future) -> None:
            self._done.append((conn, lambda c: done(c, future.result())))
            self._wakeup()

        self._executor.submit(fn).add_done_callback(completed)

    def _drain_done(self) -> bool:
        """Run queued completions; whether :meth:`wake` was among them."""
        woken = False
        while self._done:
            conn, fn = self._done.popleft()
            if fn is None:
                woken = True
                continue
            try:
                fn(conn)
                if self._live(conn):
                    self._process(conn)
                    self._update(conn)
            except Exception:  # pragma: no cover - completions clean up
                self._close(conn)
        return woken

    def _finish(self, conn: _Connection, result: tuple[dict, bytes]) -> None:
        conn.busy = False
        if not self._live(conn):
            return
        header, payload = result
        self._respond(conn, header, payload)

    # -- parked requests -------------------------------------------------------

    def _park_timeout(self) -> "float | None":
        """How long ``select()`` may sleep: until the nearest moment a
        parked request wants its handler run again."""
        if not self._parked:
            return None
        nearest = min(entry.due for entry in self._parked.values())
        return max(0.0, nearest - time.monotonic())

    def _service_parked(self, woken: bool) -> None:
        now = time.monotonic()
        for conn, entry in list(self._parked.items()):
            if (woken or now >= entry.due) and self._try_parked(conn):
                try:  # what was pipelined behind it gets its turn
                    self._process(conn)
                    self._update(conn)
                except Exception:  # pragma: no cover - costs one connection
                    self._close(conn)

    def _try_parked(self, conn: _Connection, stopping: bool = False) -> bool:
        """Run a parked request's handler; True when it was answered,
        False when it stays parked (or was dropped earlier this sweep)."""
        entry = self._parked.get(conn)
        if entry is None:
            return False
        command, req, body = entry.command, entry.req, entry.body
        now = time.monotonic()
        try:
            result = None if stopping else command.handler(req, body)
            if not isinstance(result, tuple) and (
                    stopping or now >= entry.deadline):
                result = command.timeout(req, body)
        except Exception as exc:  # answered; the session continues
            result = error_response(exc), b""
        if not isinstance(result, tuple):
            entry.due = entry.deadline if result is None \
                else min(entry.deadline, now + result)
            return False
        del self._parked[conn]
        self._finish(conn, result)
        return True

    # -- executor-routed streamed I/O ------------------------------------------

    def _drive_put(self, conn: _Connection) -> None:
        """Advance a chunked put's disk I/O off the loop thread.

        At most one executor op per connection; chunks parsed meanwhile
        queue in ``conn.pending`` (bounded by the read-side backpressure
        in ``_update``). The sink opens lazily inside the first op, and
        the terminator's commit waits for the queue to drain — every
        disk touch happens on the executor.
        """
        if conn.io_busy or conn.closing:
            return
        discard = conn.put_over or conn.failure is not None
        if discard:
            conn.pending.clear()
            conn.pending_bytes = 0
        need_abort = discard and conn.writer is not None
        need_open = not conn.opened and not discard
        batch = None
        if conn.pending:
            batch, conn.pending = conn.pending, []
            conn.pending_bytes = 0
        if not (need_open or need_abort or batch):
            if conn.put_done:
                conn.put_done = False
                self._finish_chunked_put(conn)
            return
        conn.io_busy = True
        writer = conn.writer
        conn.writer = None  # the executor owns it until the op completes
        open_sink = conn.open_sink
        metrics = self.metrics

        def io() -> "tuple[object, Exception | None]":
            w = writer
            try:
                if need_abort:
                    w.abort()
                    return None, None
                if need_open:
                    w = open_sink()
                for chunk in batch or ():
                    w.write(chunk)
                    if w.buffered:
                        metrics.note_body(w.bytes_written)
                return w, None
            except Exception as exc:
                if w is not None:
                    try:
                        w.abort()
                    except Exception:  # pragma: no cover
                        pass
                return None, exc

        self._offload(conn, io, self._put_io_done)

    def _put_io_done(self, conn: _Connection, result) -> None:
        writer, exc = result
        conn.io_busy = False
        conn.opened = True
        if not self._live(conn):
            # The connection died mid-op; its writer is ours to clean up.
            if writer is not None:
                try:
                    writer.abort()
                except Exception:  # pragma: no cover
                    pass
            return
        conn.writer = writer
        if exc is not None and conn.failure is None:
            conn.failure = exc
        self._drive_put(conn)

    # -- writing ---------------------------------------------------------------

    def _respond(self, conn: _Connection, header: dict,
                 payload: bytes = b"") -> None:
        if conn.trace_tok is not None:
            token, cmd = conn.trace_tok
            conn.trace_tok = None
            end_wire_span(self.recorder, token, f"{self.name}.{cmd}")
        if payload:
            self.metrics.note_body(len(payload))
        conn.outbuf += encode_message(header, payload)
        self.metrics.note_outbuf(len(conn.outbuf))

    def _begin_source(self, conn: _Connection, open_source) -> None:
        """Open a chunked response. The opener may probe storage (a size
        stat), so it runs wherever handlers run, holding the connection
        busy so response order is preserved."""
        def resolve() -> "tuple[dict, object]":
            try:
                return open_source()
            except Exception as exc:
                return error_response(exc), None

        self._submit(conn, resolve, self._source_ready)

    def _source_ready(self, conn: _Connection, result) -> None:
        header, stream = result
        conn.busy = False
        if not self._live(conn):
            if stream is not None:
                self._close_stream(stream)
            return
        self._respond(conn, header)
        if stream is not None:
            conn.stream = stream
            self._pump(conn)

    def _pump(self, conn: _Connection) -> None:
        """Pull response chunks while the output buffer has headroom —
        the backpressure valve for slow readers. With an executor the
        reads happen off-loop (:meth:`_drive_get`); inline otherwise."""
        if self._executor is not None:
            self._drive_get(conn)
            return
        while conn.stream is not None and \
                len(conn.outbuf) < self.max_outbuf_bytes:
            try:
                chunk = next(conn.stream)
            except StopIteration:
                conn.stream = None
                conn.outbuf += CHUNK_TERMINATOR
                break
            except Exception:
                # Blob vanished mid-stream: the frame cannot be finished
                # honestly, so the connection dies rather than lies.
                conn.stream = None
                self._close(conn)
                return
            n = len(chunk)
            if not n:  # pragma: no cover - sources never yield empty
                continue
            self.metrics.note_body(n)
            conn.outbuf += chunk_prefix(n)
            conn.outbuf += chunk
        self.metrics.note_outbuf(len(conn.outbuf))

    def _drive_get(self, conn: _Connection) -> None:
        """Pull one output buffer's worth of response chunks on the
        executor — the backpressure valve doubles as loop isolation."""
        if conn.io_busy or conn.stream is None or conn.closing:
            return
        budget = self.max_outbuf_bytes - len(conn.outbuf)
        if budget <= 0:
            return  # _on_writable re-drives once the peer drains
        conn.io_busy = True
        stream = conn.stream
        metrics = self.metrics

        def pull() -> "tuple[object, bytes, bool, Exception | None]":
            frames = bytearray()
            try:
                while len(frames) < budget:
                    try:
                        chunk = next(stream)
                    except StopIteration:
                        frames += CHUNK_TERMINATOR
                        return stream, bytes(frames), True, None
                    n = len(chunk)
                    if not n:  # pragma: no cover - never yields empty
                        continue
                    metrics.note_body(n)
                    frames += chunk_prefix(n)
                    frames += chunk
                return stream, bytes(frames), False, None
            except Exception as exc:
                return stream, b"", False, exc

        self._offload(conn, pull, self._get_io_done)

    def _get_io_done(self, conn: _Connection, result) -> None:
        stream, frames, done, exc = result
        conn.io_busy = False
        if not self._live(conn):
            self._close_stream(stream)
            return
        if exc is not None:
            # Blob vanished mid-stream: the frame cannot be finished
            # honestly, so the connection dies rather than lies.
            conn.stream = None
            self._close_stream(stream)
            self._close(conn)
            return
        if frames:
            conn.outbuf += frames
            self.metrics.note_outbuf(len(conn.outbuf))
        if done:
            conn.stream = None
            self._close_stream(stream)
        else:
            self._drive_get(conn)

    def _on_writable(self, conn: _Connection) -> None:
        if conn.outbuf:
            try:
                sent = conn.sock.send(memoryview(conn.outbuf)[:_SEND_BYTES])
            except BlockingIOError:  # pragma: no cover
                sent = 0
            except OSError:
                self._close(conn)
                return
            if sent:
                self.metrics.add_out(sent)
                del conn.outbuf[:sent]
        if conn.stream is not None:
            self._pump(conn)
            if not self._live(conn):
                return
        self._process(conn)
        self._update(conn)
