"""Line-framed JSON-over-socket plumbing shared by the store and cluster.

Both the artifact-store server (:mod:`repro.store.async_server`) and the
build-farm coordinator (:mod:`repro.cluster`) speak the same trivially
debuggable wire shape — a newline-terminated JSON header followed by an
optional raw-bytes body whose length the header declares::

    -> {"cmd": ...}\n<body bytes>
    <- {"ok": true, ...}\n<body bytes>

That is the only body encoding: every request and every response is one
header plus the ``size`` bytes it declares, however large the body.

This module owns the framing and the one client transport; the one
server loop is :mod:`repro.store.wire_server`, and each server defines
its own command vocabulary on top.

**Sessions** (:class:`WireSession` / :class:`SessionPool`): many
exchanges pipelined over one connection; ``{"cmd": "bye"}`` (or just
closing) ends the session.

:class:`SessionPool` adds stale-socket detection: a pooled connection the
peer silently dropped (a server restart) fails its next exchange *before
any response bytes arrive*, and the pool transparently reconnects and
resends. A fresh connection failing is a real error and propagates. The
pool is bounded in both directions: at most ``max_idle`` warm sockets
survive check-in, and sockets idle longer than ``max_idle_seconds`` are
reaped on the next pool operation — a long-lived worker talking to many
stores can never accumulate file descriptors without limit.

**JSON bodies** (:func:`json_body` / :func:`fold_json_body`) carry bulk
optional header fields — span batches, metric deltas, job records — as a
fixed body flagged ``"body_json": true``, so they can never overflow the
one-line header frame.
"""

from __future__ import annotations

import json
import socket
import threading
import time

from repro.telemetry import events as _events
from repro.telemetry.registry import MetricsRegistry
from repro.util.retry import RetryPolicy

MAX_HEADER_BYTES = 64 * 1024

#: Connecting is fast or dead — a short timeout distinguishes the two.
DEFAULT_CONNECT_TIMEOUT = 10.0

#: Reads pace a live transfer, which may legitimately take much longer
#: than a connect: a multi-MB body over a slow link is healthy
#: as long as bytes keep arriving. Kept separate from the connect
#: timeout so a slow transfer is never misdiagnosed as a stale socket.
DEFAULT_READ_TIMEOUT = 120.0


def _read_timeout_for(timeout: float) -> float:
    """The per-read socket timeout: a large connect timeout widens reads
    too, but a *small* one never strangles a healthy multi-MB body."""
    return max(DEFAULT_READ_TIMEOUT, timeout or 0.0)


class WireError(RuntimeError):
    """A malformed frame or a failed round-trip at the wire level."""


class ConnectionClosed(WireError):
    """The peer closed the connection at a frame boundary.

    For a pooled client it marks a stale socket worth retrying on a
    fresh connection — no response bytes were received, so the request
    cannot have been half-applied on the wire.
    """


def read_message(rfile) -> dict:
    """Read one newline-terminated JSON header from a socket file."""
    line = rfile.readline(MAX_HEADER_BYTES + 1)
    if not line:
        raise ConnectionClosed("connection closed before header")
    if len(line) > MAX_HEADER_BYTES:
        raise WireError("header too large")
    try:
        return json.loads(line.decode("utf-8"))
    except ValueError as exc:
        raise WireError(f"malformed header: {exc}") from exc


def read_exact(rfile, size: int) -> bytes:
    """Read exactly ``size`` body bytes; a short read is a protocol error.

    Fills one preallocated buffer via ``readinto`` instead of
    accumulating a chunk list and joining — a multi-MB body costs a
    single final copy (bytearray -> bytes) rather than one per read plus
    the join.
    """
    buf = bytearray(size)
    view = memoryview(buf)
    got = 0
    while got < size:
        n = rfile.readinto(view[got:])
        if not n:
            raise WireError(f"short body: expected {size - got} more bytes")
        got += n
    return bytes(buf)


def encode_message(header: dict, body: bytes = b"") -> bytes:
    """One framed message as bytes — what buffer-building senders (the
    server's event loop) append to an output buffer."""
    line = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    return line + body if body else line


def write_message(wfile, header: dict, body: bytes = b"") -> None:
    """Write one JSON header (and optional body) and flush."""
    wfile.write(encode_message(header, body))
    wfile.flush()


def read_response_body(rfile, resp: dict) -> bytes:
    """Read the ``size`` body bytes the response header declares (none
    when it declares no size, or a negative one)."""
    size = resp.get("size", 0)
    if size and size > 0:
        return read_exact(rfile, size)
    return b""


def json_body(header: dict, fields: dict) -> tuple[dict, bytes]:
    """Frame ``fields`` as a JSON body of ``header`` — for bulk values
    (span batches, metric deltas, job records) that could overflow the
    one-line header frame."""
    payload = json.dumps(fields).encode("utf-8")
    return {**header, "size": len(payload), "body_json": True}, payload


def fold_json_body(header: dict, payload: bytes) -> dict:
    """Inverse of :func:`json_body`: merge a ``body_json`` body back into
    the header dict it was split from (in place; returns it)."""
    if header.pop("body_json", False) and payload:
        header.update(json.loads(payload.decode("utf-8")))
    return header


class WireSession:
    """One connection carrying many framed request/response exchanges.

    The write side is never shut down — the connection stays symmetric
    so the next request can follow the last response. ``exchanges``
    counts completed round-trips; a session that
    has completed at least one is *reused* and its next failure may mean
    the peer quietly dropped the connection in between (the case
    :class:`SessionPool` retries).
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        # ``timeout`` bounds only the connect — fast or dead. Once the
        # connection is up the socket switches to the (wider) read
        # timeout, so a multi-MB body on a slow link paces each
        # read against DEFAULT_READ_TIMEOUT instead of being killed by
        # the 10s connect budget and misread as a stale socket.
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.settimeout(_read_timeout_for(timeout))
        # Requests are written whole (buffered makefile + flush), but a
        # body crossing the buffer boundary would split into small
        # segments; on a warm connection Nagle would then stall the tail
        # behind the peer's delayed ACK. Sessions live on low latency —
        # disable it.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")
        self.wfile = self.sock.makefile("wb")
        self.exchanges = 0
        #: Stamped by SessionPool on check-in; drives idle-age reaping.
        self.idle_since = time.monotonic()

    def exchange(self, header: dict, body: bytes = b"") -> tuple[dict, bytes]:
        """One request/response on this connection; body read in full."""
        write_message(self.wfile, header, body)
        resp = read_message(self.rfile)
        payload = read_response_body(self.rfile, resp)
        self.exchanges += 1
        return resp, payload

    def close(self, polite: bool = True) -> None:
        """End the session. ``polite`` sends ``{"cmd": "bye"}`` first so the
        server closes cleanly instead of seeing a mid-frame EOF."""
        if polite:
            try:
                write_message(self.wfile, {"cmd": "bye"})
            except (OSError, ValueError):  # peer already gone
                pass
        for closer in (self.rfile, self.wfile, self.sock):
            try:
                closer.close()
            except OSError:
                pass


class SessionPool:
    """A lazily-connected, thread-safe pool of :class:`WireSession`\\ s.

    ``exchange`` checks a session out (creating one only when the idle
    list is empty — nothing connects until the first operation), runs one
    round-trip, and returns the session to the pool. At most ``max_idle``
    sessions are kept warm; extras are closed on check-in, so a burst of
    concurrent callers never leaves a standing army of sockets.

    Stale sockets are detected and retried transparently: if a *reused*
    session fails before any response bytes arrive (EOF where the header
    should be, or a send into a reset/closed connection), the session is
    discarded and the request is resent on a fresh connection. This is
    what survives a server restart between operations. A *fresh*
    connection failing propagates: that is a real error, not staleness.

    The pool is bounded: at most ``max_idle`` sessions stay warm (extras
    close on check-in), and a session idle longer than
    ``max_idle_seconds`` is reaped the next time the pool is touched —
    so a worker that talks to a store in bursts, or to many stores over
    its lifetime, releases file descriptors between bursts instead of
    holding every socket it ever opened. :meth:`stats` exposes the
    current pool shape for operational visibility.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0,
                 max_idle: int = 4, max_idle_seconds: float = 60.0,
                 registry: "MetricsRegistry | None" = None,
                 connect_retry: "RetryPolicy | None" = None):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_idle = max_idle
        self.max_idle_seconds = max_idle_seconds
        #: Backoff policy for *connect* failures only. A refused or
        #: timed-out connect means the request was never sent, so the
        #: retry is safe for every operation regardless of idempotency —
        #: this is what rides out a store-server restart between ops.
        self.connect_retry = connect_retry
        self._idle: list[WireSession] = []
        self._closed = False
        self._lock = threading.Lock()
        #: Per-pool by default; pass a shared registry to fold pool churn
        #: into a larger component's metric snapshot.
        self.registry = registry if registry is not None else MetricsRegistry()
        self._opened = self.registry.counter("store.pool.connections_opened")
        self._reaped = self.registry.counter("store.pool.connections_reaped")
        self._sent = self.registry.counter("store.pool.requests_sent")
        self._retries = self.registry.counter("store.retries", op="connect")

    @property
    def connections_opened(self) -> int:
        """TCP connections this pool has opened — the benchmark's measure
        of how much connection churn pooling saves."""
        return self._opened.value

    @property
    def connections_reaped(self) -> int:
        """Idle sessions closed by the age reaper or the max_idle cap."""
        return self._reaped.value

    @property
    def requests_sent(self) -> int:
        """Completed pooled exchanges — comparable against the server's
        ``requests_served`` (bye frames are not counted on either side)."""
        return self._sent.value

    def _reap_locked(self) -> list[WireSession]:
        """Pop idle sessions past their age limit; caller closes them
        outside the lock. ``_idle`` is kept in check-in order, so the
        stale ones cluster at the front."""
        if self.max_idle_seconds is None:
            return []
        cutoff = time.monotonic() - self.max_idle_seconds
        stale_count = 0
        for session in self._idle:
            if getattr(session, "idle_since", cutoff) > cutoff:
                break
            stale_count += 1
        if not stale_count:
            return []
        reaped, self._idle = self._idle[:stale_count], self._idle[stale_count:]
        self._reaped.inc(len(reaped))
        return reaped

    def _close_reaped(self, stale: list) -> None:
        if not stale:
            return
        _events.emit("info", "idle sessions reaped",
                     host=self.host, port=self.port, count=len(stale),
                     max_idle_seconds=self.max_idle_seconds)
        for old in stale:
            old.close(polite=False)

    def _connect(self) -> WireSession:
        return WireSession(self.host, self.port, timeout=self.timeout)

    def _note_connect_retry(self, attempt: int, delay: float, exc) -> None:
        self._retries.inc()
        _events.emit("warn", "store connect retry",
                     host=self.host, port=self.port, attempt=attempt,
                     delay_seconds=round(delay, 4), error=str(exc))

    def _checkout(self) -> WireSession:
        with self._lock:
            stale = self._reap_locked()
            session = self._idle.pop() if self._idle else None
        self._close_reaped(stale)
        if session is not None:
            return session
        if self.connect_retry is not None:
            session = self.connect_retry.call(
                self._connect, retry_on=(OSError,),
                on_retry=self._note_connect_retry)
        else:
            session = self._connect()
        self._opened.inc()
        return session

    def _checkin(self, session: WireSession) -> None:
        session.idle_since = time.monotonic()
        with self._lock:
            stale = self._reap_locked()
            if not self._closed and len(self._idle) < self.max_idle:
                self._idle.append(session)
                session = None
            else:
                # Pool full — or close() ran while this request was in
                # flight; a drained pool must never re-grow, so the
                # returning session closes instead of parking.
                self._reaped.inc()
        self._close_reaped(stale)
        if session is not None:
            session.close()

    def stats(self) -> dict:
        """Pool shape for status surfaces: warm sockets, churn, reaping,
        and the client-side request count (``requests_sent``) that
        cross-checks the server's ``requests_served``. One idle-list
        length read under the pool lock plus four counter reads — cheap
        enough to poll, and never touches the sockets themselves."""
        with self._lock:
            idle = len(self._idle)
        return {"idle": idle,
                "max_idle": self.max_idle,
                "connections_opened": self._opened.value,
                "connections_reaped": self._reaped.value,
                "requests_sent": self._sent.value}

    def exchange(self, header: dict, body: bytes = b"") -> tuple[dict, bytes]:
        """One round-trip through a pooled session, reconnecting through
        stale sockets. Raises whatever the underlying exchange raised when
        the failure is not provably pre-response on a reused connection."""
        while True:
            session = self._checkout()
            reused = session.exchanges > 0
            try:
                resp, payload = session.exchange(header, body)
            except BaseException as exc:
                session.close(polite=False)
                if reused and isinstance(exc, (ConnectionClosed,
                                               ConnectionError)):
                    continue  # stale pooled socket: resend on a fresh one
                raise
            self._sent.inc()
            self._checkin(session)
            return resp, payload

    def close(self) -> None:
        """Drain the pool: close every idle session and refuse to park
        new ones. Idempotent, and safe to call concurrently with in-flight
        ``exchange`` calls — a request already past checkout completes on
        its session and the session closes on check-in instead of
        re-growing a pool its owner believes is gone (a cluster worker's
        heartbeat thread and its exit path can race on exactly this). Later exchanges still work: each connects, and closes its
        session on check-in."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for session in idle:
            session.close()

    @property
    def closed(self) -> bool:
        return self._closed
