"""The client half of the shared artifact store: :class:`RemoteBackend`.

Two processes (a CI builder and a fleet deployer, say) share one store by
pointing :class:`RemoteBackend` at an
:class:`~repro.store.async_server.AsyncStoreServer` that wraps any local
:class:`~repro.store.backend.Backend`. The command vocabulary is
documented with the server's command table; the framing and the session
transport in :mod:`repro.store.wire`.

Every operation flows through one lazily-connected
:class:`~repro.store.wire.SessionPool`: hot-path operations cost one
round-trip on a warm socket, and a socket the server dropped in between
(a restart) is detected and transparently replaced. Batched operations
(``put_many``/``get_many``/``has_many``/``blob_size_many``) move
:data:`BATCH_DIGESTS` blobs or probes per round-trip. Blobs of at least
``stream_threshold`` bytes are pushed as chunked streams and ``get``
always asks for a chunked response, so the server never stages a
multi-MB body whole.

Failures come in two kinds the retry layer keys on:
:class:`StoreUnavailable` (the wire broke — worth a backed-off resend for
idempotent operations, a read-verify for ``cas_ref``) and plain
:class:`RemoteStoreError` (a healthy server said no — never retried).
"""

from __future__ import annotations

import time
from typing import Iterable

from repro.store.backend import Backend, BlobNotFound
from repro.store.wire import SessionPool, WireError, fold_json_body
from repro.telemetry import events as _events
from repro.telemetry import trace as _trace
from repro.telemetry.registry import MetricsRegistry
from repro.util.retry import RetryPolicy

__all__ = [
    "BATCH_DIGESTS", "STREAM_THRESHOLD", "DEFAULT_STORE_RETRY",
    "RemoteBackend", "RemoteStoreError", "StoreUnavailable",
]

#: Digests per batched wire request — keeps every header comfortably under
#: :data:`~repro.store.wire.MAX_HEADER_BYTES` (a digest is ~75 header bytes).
BATCH_DIGESTS = 256

#: Blobs at least this large stream as chunked bodies; smaller ones ride
#: classic whole-body frames whose fixed cost is lower.
STREAM_THRESHOLD = 256 * 1024


class RemoteStoreError(WireError):
    pass


class StoreUnavailable(RemoteStoreError):
    """A wire-level failure (dropped connection, truncated frame, refused
    connect) as opposed to a semantic error response from a healthy
    server. The distinction is what the retry layer keys on: unavailable
    is worth backing off and resending (for idempotent ops) or
    re-reading and verifying (``cas_ref``); a semantic error never is."""


#: Default client retry discipline: enough attempts/backoff to ride out
#: a store-server restart of a few seconds, bounded by a hard per-op
#: deadline so a dead store fails a build in tens of seconds, not never.
DEFAULT_STORE_RETRY = RetryPolicy(max_attempts=6, base_delay=0.1,
                                  max_delay=2.0, deadline=30.0)


class RemoteBackend(Backend):
    """Client half of the wire protocol: every operation, batched and
    metadata ones included, is a native wire op.

    Operations flow through a lazily-connected, thread-safe session pool:
    the first operation opens a connection, subsequent ones reuse it, and
    a socket the server dropped in between (a restart) is detected and
    transparently replaced.

    Blobs at least ``stream_threshold`` bytes are pushed as chunked
    streams, and ``get`` always asks for a chunked response.
    """

    persistent = True

    def __init__(self, host: str, port: int, timeout: float = 10.0,
                 max_sessions: int = 4,
                 stream_threshold: int = STREAM_THRESHOLD,
                 max_idle_seconds: float = 60.0,
                 registry: "MetricsRegistry | None" = None,
                 retry: "RetryPolicy | None" = None):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.stream_threshold = stream_threshold
        #: Retry discipline for idempotent operations and connect
        #: failures (see the per-op matrix in docs/architecture.md).
        #: Pass :data:`repro.util.retry.NO_RETRY` to fail on the first
        #: error.
        self.retry = retry if retry is not None else DEFAULT_STORE_RETRY
        #: Client-side wire metrics (request counts and per-command
        #: latency histograms) plus the session pool's churn counters.
        #: Cluster workers pass their own registry so store-op latencies
        #: ride their heartbeat deltas to the coordinator.
        self.registry = registry if registry is not None else MetricsRegistry()
        self._requests = self.registry.counter("store.client.requests")
        self._pool = SessionPool(host, port, timeout=timeout,
                                 max_idle=max_sessions,
                                 max_idle_seconds=max_idle_seconds,
                                 registry=self.registry,
                                 connect_retry=(self.retry if self.retry.enabled
                                                else None))

    def close(self) -> None:
        """Release pooled connections (each with a polite ``bye``).

        Idempotent and safe to race with in-flight requests: the pool
        refuses to re-grow after its drain, so whichever of the tier
        flush thread and the worker exit path closes last still leaves
        zero parked sockets. The backend stays usable afterwards — each
        later operation connects, and closes its session when done."""
        self._pool.close()

    @property
    def connections_opened(self) -> int:
        """TCP connections this backend has opened."""
        return self._pool.connections_opened

    def pool_stats(self) -> dict:
        """Session-pool shape (idle sockets, churn, reaping)."""
        return self._pool.stats()

    def _note_retry(self, cmd: str, attempt: int, delay: float, exc) -> None:
        self.registry.counter("store.retries", op=cmd).inc()
        _events.emit("warn", "store op retry",
                     host=self.host, port=self.port, cmd=cmd, attempt=attempt,
                     delay_seconds=round(delay, 4), error=str(exc))

    def _round_trip(self, header: dict, body: bytes = b"",
                    retryable: bool = False) -> tuple[dict, bytes]:
        cmd = str(header.get("cmd"))
        # When a trace is active (recorder, or just an incoming context to
        # forward) the request opens a client span and ships its identity
        # in the header's `trace` field so the server's span parents to
        # it. Untraced operation: `span` is a no-op and the header is
        # sent untouched.
        with _trace.span(f"store.client.{cmd}"):
            ctx = _trace.current()
            if ctx is not None:
                header = {**header, "trace": ctx}
            started = time.perf_counter()
            try:
                if retryable and self.retry.enabled:
                    # Idempotent operation: a mid-exchange wire failure is
                    # worth a backed-off resend of the whole request.
                    # (Connect-phase failures retry inside the pool for
                    # every op — the request was provably never sent.)
                    resp, payload = self.retry.call(
                        lambda: self._pool.exchange(header, body),
                        retry_on=(WireError, OSError),
                        on_retry=lambda attempt, delay, exc:
                            self._note_retry(cmd, attempt, delay, exc))
                else:
                    resp, payload = self._pool.exchange(header, body)
            except WireError as exc:
                # Framing failures (truncated response, dropped
                # connection) surface as the retryable kind.
                raise StoreUnavailable(str(exc)) from exc
            self._requests.inc()
            self.registry.histogram(
                "store.client.request_seconds",
                cmd=cmd).observe(time.perf_counter() - started)
        if not resp.get("ok"):
            if resp.get("not_found"):
                raise BlobNotFound(resp.get("error", ""))
            raise RemoteStoreError(resp.get("error", "remote store error"))
        return resp, payload

    # -- blobs -----------------------------------------------------------------

    def _streams(self, data: bytes) -> bool:
        # An empty body sends no chunk frames, so never "stream" one
        # (matters only for stream_threshold=0, i.e. stream-everything).
        return bool(data) and len(data) >= self.stream_threshold

    def put(self, digest: str, data: bytes) -> None:
        # Content-addressed: resending a put is harmless, the server
        # simply re-verifies the digest — so puts retry like reads.
        header = {"cmd": "put", "digest": digest, "size": len(data)}
        if self._streams(data):
            header["chunked"] = True
        self._round_trip(header, data, retryable=True)

    def get(self, digest: str) -> bytes:
        # Chunked responses cost ~8 framing bytes per 64 KiB — noise for
        # small blobs, and the server never stages big ones whole.
        _, payload = self._round_trip({"cmd": "get", "digest": digest,
                                       "chunked": True}, retryable=True)
        return payload

    def has(self, digest: str) -> bool:
        resp, _ = self._round_trip({"cmd": "has", "digest": digest},
                                   retryable=True)
        return bool(resp["has"])

    def delete(self, digest: str) -> bool:
        resp, _ = self._round_trip({"cmd": "delete", "digest": digest},
                                   retryable=True)
        return bool(resp["deleted"])

    def digests(self) -> list[str]:
        resp, _ = self._round_trip({"cmd": "digests"}, retryable=True)
        return list(resp["digests"])

    def blob_age_seconds(self, digest: str) -> float | None:
        resp, _ = self._round_trip({"cmd": "blob_age", "digest": digest},
                                   retryable=True)
        age = resp.get("age")
        return None if age is None else float(age)

    def blob_size(self, digest: str) -> int | None:
        """Byte size without transferring the blob (size accounting stays
        metadata-only over the wire)."""
        resp, _ = self._round_trip({"cmd": "blob_size", "digest": digest},
                                   retryable=True)
        size = resp.get("blob_size")
        return None if size is None else int(size)

    # -- batched blob operations -----------------------------------------------

    def put_many(self, blobs: dict[str, bytes]) -> None:
        """Push many blobs, ~:data:`BATCH_DIGESTS` per round-trip.

        Blobs above the streaming threshold go individually as chunked
        streams (the server never stages them whole); the remainder ride
        the concatenated-body batches.
        """
        items = []
        for digest, data in blobs.items():
            if self._streams(data):
                self.put(digest, data)
            else:
                items.append((digest, data))
        for start in range(0, len(items), BATCH_DIGESTS):
            chunk = items[start:start + BATCH_DIGESTS]
            header = {"cmd": "put_many",
                      "blobs": [[digest, len(data)] for digest, data in chunk]}
            body = b"".join(data for _, data in chunk)
            self._round_trip(header, body, retryable=True)

    def _batches(self, cmd: str, digests: Iterable[str]):
        """``(chunk, response, payload)`` per :data:`BATCH_DIGESTS`
        digests of one batched read command."""
        wanted = list(digests)
        for start in range(0, len(wanted), BATCH_DIGESTS):
            chunk = wanted[start:start + BATCH_DIGESTS]
            resp, payload = self._round_trip({"cmd": cmd, "digests": chunk},
                                             retryable=True)
            yield chunk, resp, payload

    def get_many(self, digests: Iterable[str]) -> dict[str, bytes]:
        """Fetch many blobs; missing digests are omitted from the result."""
        out: dict[str, bytes] = {}
        for chunk, resp, payload in self._batches("get_many", digests):
            offset = 0
            for digest, size in zip(chunk, resp["sizes"]):
                if size < 0:
                    continue
                out[digest] = payload[offset:offset + size]
                offset += size
        return out

    def has_many(self, digests: Iterable[str]) -> dict[str, bool]:
        out: dict[str, bool] = {}
        for chunk, resp, _ in self._batches("has_many", digests):
            out.update(zip(chunk, (bool(h) for h in resp["has"])))
        return out

    def blob_size_many(self, digests: Iterable[str]) -> dict[str, int | None]:
        out: dict[str, int | None] = {}
        for chunk, resp, _ in self._batches("blob_size_many", digests):
            out.update(zip(chunk, (None if s is None else int(s)
                                   for s in resp["blob_sizes"])))
        return out

    # -- size accounting -------------------------------------------------------

    def stat(self) -> tuple[int, int]:
        """``(count, total_bytes)`` from one round-trip — callers needing
        both (``cache stats``, GC reports) must not pay two."""
        resp, _ = self._round_trip({"cmd": "stat"}, retryable=True)
        return int(resp["count"]), int(resp["total_bytes"])

    def __len__(self) -> int:
        return self.stat()[0]

    @property
    def total_bytes(self) -> int:
        return self.stat()[1]

    def server_stats(self) -> dict:
        """The server's traffic counters (``bytes_in``/``bytes_out``/
        ``peak_body_bytes``...) in one round-trip — what ``cache serve``
        status output and the benchmarks read."""
        resp, _ = self._round_trip({"cmd": "server_stats"}, retryable=True)
        return {key: value for key, value in resp.items() if key != "ok"}

    def telemetry(self, drain_spans: bool = False) -> dict:
        """The server's full telemetry in one round-trip: the documented
        ``stats`` schema, the metric-registry ``metrics`` snapshot,
        buffered trace ``spans`` (``drain_spans=True`` removes them
        server-side — trace collection does; live status surfaces must
        not), and the sampler-fed metric ``history``."""
        header: dict = {"cmd": "telemetry"}
        if drain_spans:
            header["drain_spans"] = True
        # drain_spans is a destructive read — a blind resend could
        # double-drain, so only the non-draining form retries.
        resp, payload = self._round_trip(header, retryable=not drain_spans)
        out = fold_json_body(resp, payload)
        del out["ok"], out["size"]
        return out

    # -- refs ------------------------------------------------------------------

    def set_ref(self, name: str, data: bytes) -> None:
        # Last-write-wins: resending the same bytes is idempotent.
        self._round_trip({"cmd": "set_ref", "name": name, "size": len(data)},
                         data, retryable=True)

    def get_ref(self, name: str) -> bytes | None:
        resp, payload = self._round_trip({"cmd": "get_ref", "name": name},
                                         retryable=True)
        if resp.get("size", -1) < 0:
            return None
        return payload

    def delete_ref(self, name: str) -> bool:
        resp, _ = self._round_trip({"cmd": "delete_ref", "name": name},
                                   retryable=True)
        return bool(resp["deleted"])

    def _cas_round_trip(self, name: str, expected: bytes | None,
                        data: bytes) -> bool:
        header = {
            "cmd": "cas_ref", "name": name,
            "expected_size": -1 if expected is None else len(expected),
            "size": len(data),
        }
        resp, _ = self._round_trip(header, (expected or b"") + data)
        return bool(resp["swapped"])

    def compare_and_set_ref(self, name: str, expected: bytes | None,
                            data: bytes) -> bool:
        """CAS with read-verify recovery instead of blind resend.

        A wire failure mid-``cas_ref`` is ambiguous: the swap may or may
        not have been applied before the connection died, so resending
        could misreport a success as a conflict (the ref now holds
        ``data``, no longer ``expected``). Recovery therefore re-reads
        the ref: our bytes present means the swap landed (True), the
        expected bytes still present means it never applied (resend),
        anything else is a genuine conflict (False) for the caller's
        read-merge-retry loop to resolve.
        """
        try:
            return self._cas_round_trip(name, expected, data)
        except (StoreUnavailable, OSError) as exc:
            if not self.retry.enabled:
                raise
            first_error = exc

        def verify() -> bool:
            current = self.get_ref(name)
            if current == data:
                return True
            if current == expected:
                return self._cas_round_trip(name, expected, data)
            return False

        self._note_retry("cas_ref", 1, 0.0, first_error)
        return self.retry.call(verify, retry_on=(StoreUnavailable, OSError),
                               on_retry=lambda attempt, delay, exc:
                                   self._note_retry("cas_ref", attempt + 1,
                                                    delay, exc))

    def refs(self) -> list[str]:
        resp, _ = self._round_trip({"cmd": "refs"}, retryable=True)
        return list(resp["refs"])
