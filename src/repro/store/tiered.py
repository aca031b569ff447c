"""Two-level store hierarchy: a fast local tier over a shared upstream.

This is the ccache/sccache topology applied to the artifact store: every
farm worker keeps a worker-local :class:`~repro.store.backend.FileBackend`
in front of the shared :class:`~repro.store.remote.RemoteBackend`, so hot
artifacts are served at local-disk latency and the shared store sees only
first-miss traffic. :class:`TieredBackend` composes any two backends into
that hierarchy and is itself a :class:`~repro.store.backend.Backend`:

* **Read-through promotion.** ``get``/``get_many`` serve from the local
  tier when possible; a miss fetches from upstream and lands the blob in
  the local tier on the way back, so the second read is local.
* **Single-flight miss de-duplication.** N threads missing the same
  digest concurrently produce exactly *one* upstream fetch: the first
  becomes the fetcher, the rest wait on its flight and share the result
  (or its failure). A warm-up stampede costs one round-trip per blob, not
  one per thread.
* **Write-back puts.** ``put``/``put_many`` land in the local tier
  immediately and enqueue the blob for upstream on a bounded write-back
  queue, flushed as one batched ``put_many`` when the queue hits its
  blob/byte bound, when the optional background thread's
  ``flush_interval`` elapses, on any **ref write** (an index entry must
  never precede its blobs upstream — the publish-before-announce
  invariant the cluster relies on), on explicit :meth:`flush`, and on
  :meth:`close`. A republished blob is re-enqueued even when the local
  tier already holds it, which is what re-uploads a blob the upstream's
  GC evicted out from under the tier.
* **Refs delegate upstream, always.** The cache index and pin set are
  shared mutable state; CAS semantics are exactly the upstream's, so the
  multi-writer retry-merge loops behave identically with or without a
  tier in front.
* **Tier-aware batched ops.** ``has_many``/``get_many``/
  ``blob_size_many`` answer what they can locally and ask upstream only
  about the remainder — a mostly-warm probe costs one small round-trip.

Global introspection (``digests``/``__len__``/``total_bytes``/``stat``)
first flushes the write-back queue and then answers for the *upstream*
(plus, for ``digests``, anything only the local tier holds) — read-your-
writes for GC and ``cache stats`` without double-counting promoted blobs.

Metrics (``store.tier.*``) live in the supplied registry so a cluster
worker's tier hit/miss/flush counters ride its heartbeat deltas to the
coordinator (``repro cluster top`` renders them per worker).

**Degraded mode.** An upstream outage (connect refused, dropped wire,
timeout) flips the tier into a bounded *degraded* state instead of
failing every operation: reads keep serving whatever the local tier
holds, accepted puts buffer on the write-back queue (up to
``degraded_max_bytes``, beyond which puts fail with
:class:`TierDegraded`), and upstream probes back off exponentially so a
dead store is not hammered. Ref operations — shared mutable state that
*cannot* be answered locally — fail fast with :class:`TierDegraded`
while the probe window is closed. Any successful upstream operation
(including an explicit :meth:`flush`, which always probes) recovers the
tier: the backlog drains upstream and the state clears, with both
transitions narrated via events and mirrored in the
``store.tier.degraded`` gauge.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable

from repro.store.backend import Backend, BlobNotFound
from repro.store.remote import StoreUnavailable
from repro.telemetry import events as _events
from repro.telemetry.registry import MetricsRegistry

__all__ = ["TierDegraded", "TieredBackend"]

#: Write-back queue bounds: a flush is forced when the pending set reaches
#: either limit. Small enough that a crash loses little, large enough that
#: a publish burst amortizes into a few batched upstream round-trips.
DEFAULT_FLUSH_MAX_BLOBS = 128
DEFAULT_FLUSH_MAX_BYTES = 16 * 1024 * 1024

#: Write-back backlog bound while degraded: beyond this, puts fail with
#: :class:`TierDegraded` instead of buffering without limit.
DEFAULT_DEGRADED_MAX_BYTES = 256 * 1024 * 1024

#: Upstream probe backoff while degraded: first retry after the initial
#: delay, doubling per consecutive failure up to the cap.
DEGRADED_PROBE_INITIAL = 0.5
DEGRADED_PROBE_MAX = 8.0

#: Errors that mean "the upstream is unreachable" (worth degrading over),
#: as opposed to semantic failures a healthy upstream returned.
#: ConnectionError and socket timeouts are OSError; StoreUnavailable is
#: the remote client's wrapper for wire-level failures that survived its
#: own retry budget.
OUTAGE_ERRORS = (OSError, StoreUnavailable)


class TierDegraded(RuntimeError):
    """The tier is in degraded mode and this operation cannot be served
    locally (a ref op, a read miss, or a put past the backlog bound)."""


class _Flight:
    """One in-flight upstream fetch; waiters share its outcome."""

    __slots__ = ("event", "data", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.data: bytes | None = None
        self.error: BaseException | None = None


class TieredBackend(Backend):
    """A :class:`Backend` composing ``local`` in front of ``upstream``.

    ``local`` is typically a worker-private
    :class:`~repro.store.backend.FileBackend` (or a
    :class:`~repro.store.backend.MemoryBackend` in tests); ``upstream``
    the shared :class:`~repro.store.remote.RemoteBackend` — but any two
    backends compose, including File-over-File for a two-disk hierarchy.

    ``flush_interval`` (seconds) starts a daemon thread that flushes the
    write-back queue by age; ``None`` relies on the size bound, ref
    writes, and explicit :meth:`flush`/:meth:`close` alone. ``tier_id``
    labels nothing on the wire — it names the tier in errors and lets a
    cluster worker report a stable identity for its local tier directory.
    """

    def __init__(self, local: Backend, upstream: Backend, *,
                 flush_max_blobs: int = DEFAULT_FLUSH_MAX_BLOBS,
                 flush_max_bytes: int = DEFAULT_FLUSH_MAX_BYTES,
                 flush_interval: float | None = None,
                 registry: MetricsRegistry | None = None,
                 tier_id: str = "",
                 degraded_max_bytes: int = DEFAULT_DEGRADED_MAX_BYTES):
        self.local = local
        self.upstream = upstream
        self.tier_id = tier_id
        self.flush_max_blobs = max(1, int(flush_max_blobs))
        self.flush_max_bytes = max(1, int(flush_max_bytes))
        self.flush_interval = flush_interval
        self.registry = registry if registry is not None else MetricsRegistry()
        self._hits = self.registry.counter("store.tier.hits")
        self._misses = self.registry.counter("store.tier.misses")
        self._promotions = self.registry.counter("store.tier.promotions")
        self._flushes = self.registry.counter("store.tier.flushes")
        self._flushed_blobs = self.registry.counter("store.tier.flushed_blobs")
        self._flushed_bytes = self.registry.counter("store.tier.flushed_bytes")
        self._coalesced = self.registry.counter(
            "store.tier.single_flight_waits")
        self._pending_gauge = self.registry.gauge("store.tier.pending_blobs")
        self.degraded_max_bytes = max(0, int(degraded_max_bytes))
        self._degraded_gauge = self.registry.gauge("store.tier.degraded")
        self._degraded_entries = self.registry.counter(
            "store.tier.degraded_entries")
        self._failfast = self.registry.counter(
            "store.tier.degraded_failfast")
        self._degraded = False
        self._degraded_since = 0.0
        self._probe_after = 0.0
        self._probe_backoff = DEGRADED_PROBE_INITIAL
        # Write-back queue: digest -> bytes, deduplicated by construction
        # (content-addressed blobs are immutable, so collapsing double
        # puts of one digest loses nothing).
        self._pending: dict[str, bytes] = {}
        self._pending_bytes = 0
        self._lock = threading.Lock()
        # flush() serializes actual upstream pushes so two triggers (size
        # bound + background timer, say) never interleave their batches.
        self._flush_lock = threading.Lock()
        self._flights: dict[str, _Flight] = {}
        self._flights_lock = threading.Lock()
        self._closed = False
        self._stop_flusher = threading.Event()
        self._flusher: threading.Thread | None = None
        if flush_interval is not None and flush_interval > 0:
            self._flusher = threading.Thread(
                target=self._flush_loop, daemon=True,
                name=f"tier-flush-{tier_id or f'{id(self):x}'}")
            self._flusher.start()

    # ``persistent`` reflects the *shared* tier: entries and refs live
    # upstream, so the cache treats a tiered store exactly like its
    # upstream (a memory-local tier over a file upstream is persistent).
    @property
    def persistent(self) -> bool:
        return self.upstream.persistent

    # -- hit/miss accounting ----------------------------------------------------

    @property
    def tier_hits(self) -> int:
        """Reads served by the local tier."""
        return self._hits.value

    @property
    def tier_misses(self) -> int:
        """Reads that had to go upstream (each promotes on success)."""
        return self._misses.value

    @property
    def flushed_blobs(self) -> int:
        """Blobs pushed upstream by the write-back queue so far."""
        return self._flushed_blobs.value

    @property
    def pending_blobs(self) -> int:
        with self._lock:
            return len(self._pending)

    # -- degraded mode ----------------------------------------------------------

    @property
    def degraded(self) -> bool:
        with self._lock:
            return self._degraded

    def _upstream_ok(self) -> bool:
        """Healthy, or degraded with the probe window open — either way
        the caller may try upstream. False means: serve locally or fail
        fast, do not touch the wire."""
        with self._lock:
            return (not self._degraded
                    or time.monotonic() >= self._probe_after)

    def _require_upstream(self, op: str) -> None:
        if self._upstream_ok():
            return
        self._failfast.inc()
        raise TierDegraded(
            f"tier {self.tier_id or '?'} degraded: upstream unreachable; "
            f"{op} fails fast until the next probe window")

    def _note_upstream_failure(self, exc: BaseException) -> None:
        now = time.monotonic()
        with self._lock:
            entered = not self._degraded
            self._degraded = True
            if entered:
                self._degraded_since = now
                self._probe_backoff = DEGRADED_PROBE_INITIAL
            else:
                self._probe_backoff = min(self._probe_backoff * 2,
                                          DEGRADED_PROBE_MAX)
            self._probe_after = now + self._probe_backoff
            pending = len(self._pending)
        self._degraded_gauge.set(1)
        if entered:
            self._degraded_entries.inc()
            _events.emit("warn", "tier degraded: upstream unreachable",
                         tier=self.tier_id, pending_blobs=pending,
                         error=f"{type(exc).__name__}: {exc}")

    def _note_upstream_success(self, drain: bool = True) -> None:
        now = time.monotonic()
        with self._lock:
            if not self._degraded:
                return
            self._degraded = False
            self._probe_backoff = DEGRADED_PROBE_INITIAL
            since = self._degraded_since
            backlog = len(self._pending)
        self._degraded_gauge.set(0)
        _events.emit("info", "tier recovered; draining backlog",
                     tier=self.tier_id, backlog_blobs=backlog,
                     degraded_seconds=round(now - since, 3))
        if drain and backlog:
            try:
                self.flush()
            except OUTAGE_ERRORS:
                pass  # relapse: the batch re-queued and the tier re-marked

    def _upstream_call(self, fn, *args):
        """One upstream operation with outage bookkeeping: a wire-level
        failure marks (or deepens) degraded mode and propagates; success
        recovers it (draining the backlog on the transition)."""
        try:
            result = fn(*args)
        except OUTAGE_ERRORS as exc:
            self._note_upstream_failure(exc)
            raise
        self._note_upstream_success()
        return result

    # -- write-back queue -------------------------------------------------------

    def _enqueue(self, blobs: dict[str, bytes]) -> None:
        added = sum(len(data) for digest, data in blobs.items())
        with self._lock:
            if (self._degraded and self.degraded_max_bytes
                    and self._pending_bytes + added > self.degraded_max_bytes):
                over_bound = True
            else:
                over_bound = False
                for digest, data in blobs.items():
                    if digest not in self._pending:
                        self._pending_bytes += len(data)
                    self._pending[digest] = data
                self._pending_gauge.set(len(self._pending))
                over = (len(self._pending) >= self.flush_max_blobs
                        or self._pending_bytes >= self.flush_max_bytes)
        if over_bound:
            self._failfast.inc()
            raise TierDegraded(
                f"tier {self.tier_id or '?'} degraded: write-back backlog "
                f"would exceed {self.degraded_max_bytes} bytes")
        if over:
            self._maybe_flush()

    def _maybe_flush(self) -> None:
        """Size-bound/interval flush trigger: respects the degraded
        probe backoff (keep buffering instead of hammering a dead
        upstream) and absorbs outage errors — the batch is re-queued by
        :meth:`flush` and a later probe drains it. Explicit callers use
        :meth:`flush`, which always attempts and always propagates."""
        if not self._upstream_ok():
            return
        try:
            self.flush()
        except OUTAGE_ERRORS:
            pass

    def flush(self) -> int:
        """Push the write-back queue upstream now; returns blobs pushed.

        Batched publishers call this before *announcing* their artifacts
        (the cluster worker does, before reporting job completion) — the
        content-addressed analogue of fsync-before-ack. On failure the
        batch is re-queued, so no accepted put is ever silently dropped.
        """
        with self._flush_lock:
            with self._lock:
                batch, self._pending = self._pending, {}
                self._pending_bytes = 0
                self._pending_gauge.set(0)
            if not batch:
                return 0
            try:
                self.upstream.put_many(batch)
            except BaseException as exc:
                with self._lock:
                    for digest, data in batch.items():
                        if digest not in self._pending:
                            self._pending_bytes += len(data)
                            self._pending[digest] = data
                    self._pending_gauge.set(len(self._pending))
                _events.emit("error", "tier flush failed; batch re-queued",
                             tier=self.tier_id, blobs=len(batch),
                             bytes=sum(len(d) for d in batch.values()),
                             error=f"{type(exc).__name__}: {exc}")
                if isinstance(exc, OUTAGE_ERRORS):
                    self._note_upstream_failure(exc)
                raise
            self._note_upstream_success(drain=False)
            self._flushes.inc()
            self._flushed_blobs.inc(len(batch))
            self._flushed_bytes.inc(sum(len(d) for d in batch.values()))
            return len(batch)

    def _flush_loop(self) -> None:
        interval = float(self.flush_interval or 0)
        while not self._stop_flusher.wait(interval):
            try:
                self._maybe_flush()
            except Exception:  # pragma: no cover - upstream hiccup; the
                pass           # batch is re-queued, the next tick retries

    def close(self) -> None:
        """Final flush, stop the background flusher, close both tiers.

        Idempotent and safe to race with an in-flight background flush:
        the flush lock serializes the last push, and closing the upstream
        (e.g. :meth:`RemoteBackend.close`) is itself idempotent.
        """
        with self._lock:
            if self._closed:
                already = True
            else:
                self._closed = True
                already = False
        self._stop_flusher.set()
        if self._flusher is not None:
            self._flusher.join(timeout=5)
        if not already:
            self.flush()
        for backend in (self.local, self.upstream):
            closer = getattr(backend, "close", None)
            if closer is not None:
                closer()

    # -- blobs ------------------------------------------------------------------

    def put(self, digest: str, data: bytes) -> None:
        # Local first (it verifies the digest), then enqueue for upstream
        # — unconditionally, even when the local tier already held the
        # blob: the caller republishing is the only signal that the
        # upstream may have GC'd it, and a duplicate upstream put of
        # identical content-addressed bytes is a no-op by construction.
        self.local.put(digest, data)
        self._enqueue({digest: data})

    def put_many(self, blobs: dict[str, bytes]) -> None:
        if not blobs:
            return
        self.local.put_many(blobs)
        self._enqueue(dict(blobs))

    def get(self, digest: str) -> bytes:
        try:
            data = self.local.get(digest)
        except BlobNotFound:
            pass
        else:
            self._hits.inc()
            return data
        # Degraded with the probe window closed: the local tier cannot
        # answer and upstream must not be hammered — fail fast.
        self._require_upstream("get")
        return self._fetch_single_flight(digest)

    def _fetch_single_flight(self, digest: str) -> bytes:
        """One upstream fetch per digest, however many threads miss it."""
        with self._flights_lock:
            flight = self._flights.get(digest)
            leader = flight is None
            if leader:
                flight = self._flights[digest] = _Flight()
        if not leader:
            self._coalesced.inc()
            _events.emit("debug", "single-flight wait",
                         tier=self.tier_id, digest=digest)
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            self._hits.inc()  # served from the leader's fetch, not upstream
            return flight.data  # type: ignore[return-value]
        try:
            self._misses.inc()
            _events.emit("debug", "single-flight fetch",
                         tier=self.tier_id, digest=digest)
            data = self._upstream_call(self.upstream.get, digest)
            # Promote so the next reader is local. Never enqueued: the
            # blob came *from* upstream.
            self.local.put(digest, data)
            self._promotions.inc()
            flight.data = data
            return data
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._flights_lock:
                del self._flights[digest]
            flight.event.set()

    def has(self, digest: str) -> bool:
        if self.local.has(digest):
            return True
        with self._lock:
            if digest in self._pending:  # pragma: no cover - put() lands
                return True              # locally first; belt-and-braces
        if not self._upstream_ok():
            return False  # degraded: answer from what we hold
        return self._upstream_call(self.upstream.has, digest)

    def delete(self, digest: str) -> bool:
        """Remove the blob everywhere (GC's primitive): the local copy,
        the pending write-back (which would otherwise resurrect it on the
        next flush), and the upstream blob."""
        with self._lock:
            data = self._pending.pop(digest, None)
            if data is not None:
                self._pending_bytes -= len(data)
                self._pending_gauge.set(len(self._pending))
        deleted_local = self.local.delete(digest)
        self._require_upstream("delete")
        deleted_upstream = self._upstream_call(self.upstream.delete, digest)
        return bool(deleted_local or deleted_upstream
                    or data is not None)

    def digests(self) -> list[str]:
        self.flush()
        upstream = self.upstream.digests()
        seen = set(upstream)
        return upstream + [d for d in self.local.digests() if d not in seen]

    def __len__(self) -> int:
        return self.stat()[0]

    @property
    def total_bytes(self) -> int:
        return self.stat()[1]

    def stat(self) -> tuple[int, int]:
        """Upstream size accounting after a flush — what GC budgets and
        ``cache stats`` mean by "the store"; local copies of promoted
        blobs are a cache, not additional inventory."""
        self.flush()
        return self.upstream.stat()

    def blob_age_seconds(self, digest: str) -> float | None:
        """Age from whichever tier still holds the blob (upstream wins:
        GC windows are about shared-store time, not promotion time)."""
        age = self.upstream.blob_age_seconds(digest)
        if age is not None:
            return age
        with self._lock:
            if digest in self._pending:
                return 0.0  # accepted moments ago, not yet upstream
        return self.local.blob_age_seconds(digest)

    def blob_size(self, digest: str) -> int | None:
        size = self.local.blob_size(digest)
        return size if size is not None else self.upstream.blob_size(digest)

    # -- batched blob operations ------------------------------------------------

    def get_many(self, digests: Iterable[str]) -> dict[str, bytes]:
        wanted = list(digests)
        out = self.local.get_many(wanted)
        self._hits.inc(len(out))
        missing = [d for d in wanted if d not in out]
        if missing and not self._upstream_ok():
            return out  # degraded: serve what the tier holds
        if missing:
            self._misses.inc(len(missing))
            fetched = self._upstream_call(self.upstream.get_many, missing)
            if fetched:
                self.local.put_many(fetched)
                self._promotions.inc(len(fetched))
                out.update(fetched)
        return out

    def has_many(self, digests: Iterable[str]) -> dict[str, bool]:
        wanted = list(digests)
        out = self.local.has_many(wanted)
        missing = [d for d, present in out.items() if not present]
        if missing and self._upstream_ok():
            out.update(self._upstream_call(self.upstream.has_many, missing))
        return out

    def blob_size_many(self, digests: Iterable[str]) -> dict[str, int | None]:
        wanted = list(digests)
        out = self.local.blob_size_many(wanted)
        missing = [d for d, size in out.items() if size is None]
        if missing and self._upstream_ok():
            out.update(self._upstream_call(self.upstream.blob_size_many,
                                           missing))
        return out

    # -- refs: shared mutable state lives upstream, full stop -------------------
    # Every ref *write* flushes the write-back queue first: an index entry
    # (or pin) naming a blob must never become visible upstream before the
    # blob itself — otherwise a peer (or GC's orphan scan) could observe
    # an index that points at bytes only this worker's disk holds.

    # While degraded, every ref op fails fast with :class:`TierDegraded`
    # until the probe window opens: refs cannot be served locally without
    # lying about shared state, and a closed window means the upstream
    # was just observed down. When the window is open the op doubles as
    # the recovery probe.

    def set_ref(self, name: str, data: bytes) -> None:
        self._require_upstream("set_ref")
        self.flush()
        self._upstream_call(self.upstream.set_ref, name, data)

    def get_ref(self, name: str) -> bytes | None:
        self._require_upstream("get_ref")
        return self._upstream_call(self.upstream.get_ref, name)

    def delete_ref(self, name: str) -> bool:
        self._require_upstream("delete_ref")
        return self._upstream_call(self.upstream.delete_ref, name)

    def refs(self) -> list[str]:
        self._require_upstream("refs")
        return self._upstream_call(self.upstream.refs)

    def compare_and_set_ref(self, name: str, expected: bytes | None,
                            data: bytes) -> bool:
        self._require_upstream("cas_ref")
        self.flush()
        return self._upstream_call(self.upstream.compare_and_set_ref,
                                   name, expected, data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" id={self.tier_id!r}" if self.tier_id else ""
        return (f"TieredBackend({self.local!r} -> {self.upstream!r}{tag}, "
                f"pending={len(self._pending)})")
