"""The artifact-store server: the store command table on the one wire loop.

:class:`AsyncStoreServer` wraps any local
:class:`~repro.store.backend.Backend` — typically a
:class:`~repro.store.backend.FileBackend`, giving both persistence *and*
sharing — and serves it to other processes through
:class:`~repro.store.wire_server.WireServer`; the loop (sessions,
streaming, backpressure, body guards, counters) is documented there, the
client half in :mod:`repro.store.remote`. This module is the store's
command vocabulary::

    -> {"cmd": "put", "digest": "sha256:...", "size": 123}\\n<123 body bytes>
    <- {"ok": true}\\n

    -> {"cmd": "get", "digest": "sha256:..."}\\n
    <- {"ok": true, "size": 123}\\n<123 body bytes>

Batched commands amortize round-trips: ``put_many``/``get_many``/
``has_many``/``blob_size_many`` move N blobs (or N probes) in one
exchange — one header listing digests, bodies concatenated in digest
order.

**Streaming bodies** keep multi-MB lowered modules from being staged
whole in RAM. A ``put`` header declaring ``"chunked": true`` is followed
by length-prefixed chunks ended by a zero-length terminator; the loop
feeds each chunk into the backend's incremental blob writer (temp file +
running hash for :class:`FileBackend`). A ``get`` header declaring
``"chunked": true`` asks the server to *answer* chunked, reading the blob
``CHUNK_SIZE`` bytes at a time.

Ref compare-and-swap rides the fixed-body shape — the body carries the
expected bytes (``expected_size >= 0``; ``-1`` means "ref must not
exist") followed by the new bytes, and the handler is the backend's own
atomic ``compare_and_set_ref``, so N clients hammering one shared ref
serialize correctly::

    -> {"cmd": "cas_ref", "name": "pins",
        "expected_size": 2, "size": 4}\\n<2 expected bytes><4 new bytes>
    <- {"ok": true, "swapped": true}\\n

Digests are verified on the server side (the backend re-hashes every
write, incrementally for streamed ones), so a corrupted transfer is
rejected rather than stored.

The ``telemetry`` command exposes the full metric-registry snapshot plus
any trace spans the server buffered. A request header may carry a
``trace`` field (``{"trace_id": ..., "parent_span_id": ...}``); the loop
then records a span for that request parented to the client's, which is
how one ``cluster build --trace`` correlates store traffic across
processes. Untraced requests skip span handling entirely.
"""

from __future__ import annotations

from repro.store.backend import Backend, BlobNotFound
from repro.store.wire import CHUNK_SIZE, json_body
from repro.store.wire_server import (
    DEFAULT_MAX_BODY_BYTES,
    DEFAULT_MAX_OUTBUF_BYTES,
    Command,
    WireServer,
    size_field,
)
from repro.telemetry.history import HistorySampler, MetricsHistory
from repro.telemetry.registry import sample_process_gauges, sync_dropped_counter

__all__ = ["AsyncStoreServer", "DEFAULT_MAX_OUTBUF_BYTES"]


def _cas_body_size(req: dict) -> int:
    expected = int(req.get("expected_size", -1))
    return max(expected, 0) + int(req.get("size", 0))


def _put_many_body_size(req: dict) -> int:
    return sum(int(size) for _, size in req.get("blobs", ()))


def store_commands(server: "AsyncStoreServer") -> "dict[str, Command]":
    """The store's command table over ``server.backend``. Handlers raise
    for command-level failures (missing blob, integrity rejection); the
    loop answers those without ending the session."""
    backend = server.backend

    def put(req, body):
        backend.put(req["digest"], body)
        return {"ok": True}, b""

    def get(req, body):
        data = backend.get(req["digest"])
        return {"ok": True, "size": len(data)}, data

    def get_chunked(req):
        """Answer a ``get`` chunk by chunk — O(chunk) resident however
        large the blob."""
        digest = req["digest"]
        size = backend.blob_size(digest)
        if size is None:
            raise BlobNotFound(digest)

        def chunks():
            with backend.open_blob(digest) as blob:
                while chunk := blob.read(CHUNK_SIZE):
                    yield chunk

        return {"ok": True, "chunked": True, "size": size}, chunks()

    def has(req, body):
        return {"ok": True, "has": backend.has(req["digest"])}, b""

    def delete(req, body):
        return {"ok": True, "deleted": backend.delete(req["digest"])}, b""

    def digests(req, body):
        return {"ok": True, "digests": backend.digests()}, b""

    def blob_age(req, body):
        return {"ok": True,
                "age": backend.blob_age_seconds(req["digest"])}, b""

    def blob_size(req, body):
        return {"ok": True,
                "blob_size": backend.blob_size(req["digest"])}, b""

    def stat(req, body):
        count, total = backend.stat()
        return {"ok": True, "count": count, "total_bytes": total}, b""

    def put_many(req, body):
        blobs = {}
        offset = 0
        view = memoryview(body)
        for digest, size in req.get("blobs", ()):
            blobs[str(digest)] = bytes(view[offset:offset + int(size)])
            offset += int(size)
        backend.put_many(blobs)
        return {"ok": True, "stored": len(blobs)}, b""

    def get_many(req, body):
        sizes: list[int] = []
        parts: list[bytes] = []
        for digest in req.get("digests", ()):
            try:
                data = backend.get(digest)
            except KeyError:  # BlobNotFound included
                sizes.append(-1)
                continue
            sizes.append(len(data))
            parts.append(data)
        payload = b"".join(parts)
        return {"ok": True, "sizes": sizes, "size": len(payload)}, payload

    def has_many(req, body):
        wanted = list(req.get("digests", ()))
        present = backend.has_many(wanted)
        return {"ok": True, "has": [present[d] for d in wanted]}, b""

    def blob_size_many(req, body):
        wanted = list(req.get("digests", ()))
        sized = backend.blob_size_many(wanted)
        return {"ok": True, "blob_sizes": [sized[d] for d in wanted]}, b""

    def set_ref(req, body):
        backend.set_ref(req["name"], body)
        return {"ok": True}, b""

    def get_ref(req, body):
        data = backend.get_ref(req["name"])
        if data is None:
            return {"ok": True, "size": -1}, b""
        return {"ok": True, "size": len(data)}, data

    def cas_ref(req, body):
        expected_size = int(req.get("expected_size", -1))
        if expected_size >= 0:
            expected: bytes | None = body[:expected_size]
            data = body[expected_size:]
        else:
            expected = None
            data = body
        return {"ok": True, "swapped": backend.compare_and_set_ref(
            req["name"], expected, data)}, b""

    def delete_ref(req, body):
        return {"ok": True, "deleted": backend.delete_ref(req["name"])}, b""

    def refs(req, body):
        return {"ok": True, "refs": backend.refs()}, b""

    def telemetry(req, body):
        """Live observability in one round-trip: the documented stats
        schema, the full metric-registry snapshot, and (optionally
        draining) whatever trace spans the loop buffered for traced
        requests. `cache stats --store-server` and the cluster client's
        trace collection both ride this."""
        registry = server.metrics.registry
        sample_process_gauges(registry)
        sync_dropped_counter(registry, "telemetry.spans_dropped",
                             server.recorder.dropped)
        spans = server.recorder.drain() if req.get("drain_spans") \
            else server.recorder.spans()
        # Spans and metric history ride the response *body*, not the
        # header: a long traced build buffers thousands of spans, a day
        # of history holds hundreds of samples per series, and a single
        # JSON header line is capped at MAX_HEADER_BYTES.
        return json_body(
            {"ok": True, "stats": server.stats(),
             "metrics": registry.snapshot()},
            {"spans": [span.to_json() for span in spans],
             "history": server.history.to_json()})

    return {
        "put": Command(put, size_field,
                       sink=lambda req: backend.open_blob_writer(
                           req["digest"])),
        "get": Command(get, source=get_chunked),
        "has": Command(has),
        "delete": Command(delete),
        "digests": Command(digests),
        "blob_age": Command(blob_age),
        "blob_size": Command(blob_size),
        "stat": Command(stat),
        "put_many": Command(put_many, _put_many_body_size),
        "get_many": Command(get_many),
        "has_many": Command(has_many),
        "blob_size_many": Command(blob_size_many),
        "set_ref": Command(set_ref, size_field),
        "get_ref": Command(get_ref),
        "cas_ref": Command(cas_ref, _cas_body_size),
        "delete_ref": Command(delete_ref),
        "refs": Command(refs),
        "telemetry": Command(telemetry),
    }


class AsyncStoreServer(WireServer):
    """Serve a local backend to other processes over ``127.0.0.1``.

    Usage::

        server = AsyncStoreServer(FileBackend("/var/cache/xaas"))
        host, port = server.start()
        ...  # hand host/port to builders
        server.stop()

    Handlers run on a small executor exactly when the backend is
    ``persistent`` (disk ops block); against an in-memory backend
    everything runs inline on the loop.
    """

    def __init__(self, backend: Backend, host: str = "127.0.0.1",
                 port: int = 0,
                 max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
                 max_outbuf_bytes: int = DEFAULT_MAX_OUTBUF_BYTES,
                 executor_workers: "int | None" = None,
                 history_interval: float = 1.0):
        self.backend = backend
        if executor_workers is None:
            executor_workers = 4 if backend.persistent else 0
        super().__init__(store_commands(self), host=host, port=port,
                         name="store.server", max_body_bytes=max_body_bytes,
                         max_outbuf_bytes=max_outbuf_bytes,
                         executor_workers=executor_workers)
        #: Fixed-memory metrics history fed by a local sampler thread
        #: while the server runs; surfaced by the `telemetry` wire op.
        self.history = MetricsHistory()
        self._history_sampler = HistorySampler(
            self.metrics.registry, self.history, interval=history_interval)

    def start(self) -> tuple[str, int]:
        address = super().start()
        self._history_sampler.start()
        return address

    def stop(self) -> None:
        self._history_sampler.stop()
        super().stop()
