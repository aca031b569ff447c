"""Content-addressed blob store — the foundation of the OCI image model.

Every object in an OCI registry (layer tarballs, image configs, manifests) is
a blob identified by the SHA-256 digest of its bytes. Immutability by
construction is the property the paper leans on in Sec. 5.2: any change to an
image layer produces a new digest and therefore a new image identity, which
is why deploy-time specialization must create a *new* image rather than
mutate the pulled one.

Storage itself is pluggable (:mod:`repro.store`): the default
:class:`~repro.store.backend.MemoryBackend` keeps the historical in-process
dict semantics, while :class:`~repro.store.backend.FileBackend` and
:class:`~repro.store.remote.RemoteBackend` persist and share blobs across
processes. :class:`ArtifactCache` keeps its key index in an access-ordered
ref blob on the same backend, so a cold process warm-starts from whatever a
previous build left behind.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Any

from repro.store.backend import (
    INDEX_REF_PREFIX,
    PINS_REF,
    Backend,
    BlobNotFound,
    MemoryBackend,
    cas_merge_ref,
    index_ref_name,
    index_ref_names,
)
from repro.telemetry import events as _events
from repro.telemetry.registry import Counter, MetricsRegistry
from repro.util.hashing import content_digest, is_digest, stable_hash

__all__ = [
    "ArtifactCache", "BlobNotFound", "BlobStore", "BULK_FLUSH_EVERY",
    "CacheCounters", "CacheEntry", "IndexEntry", "INDEX_REF_PREFIX",
    "PINS_REF",
]

#: ``flush_every`` for bulk publishers (cluster workers, farm-backed CLI
#: paths): thousand-entry jobs write O(n) index bytes instead of O(n^2),
#: and their payload blobs in one backend batch ahead of the index that
#: names them. Nothing such a cache publishes — blob or index entry — is
#: on the store before its next flush, so callers batching this hard must
#: flush before announcing their artifacts to anyone who will look for
#: them.
BULK_FLUSH_EVERY = 1024


class BlobStore:
    """Digest -> bytes mapping with integrity checking over a backend."""

    def __init__(self, backend: Backend | None = None):
        self.backend: Backend = backend if backend is not None else MemoryBackend()

    def put(self, data: bytes | str) -> str:
        """Store a blob; returns its digest. Idempotent."""
        if isinstance(data, str):
            data = data.encode("utf-8")
        digest = content_digest(data)
        self.backend.put(digest, data)
        return digest

    def get(self, digest: str) -> bytes:
        if not is_digest(digest):
            raise ValueError(f"malformed digest {digest!r}")
        return self.backend.get(digest)

    def get_text(self, digest: str) -> str:
        return self.get(digest).decode("utf-8")

    def has(self, digest: str) -> bool:
        return self.backend.has(digest)

    def blob_size(self, digest: str) -> int | None:
        """Byte size of one blob without fetching it when the backend can
        answer from metadata (stat / remote size op); None if absent."""
        return self.backend.blob_size(digest)

    # -- batched operations (one round-trip on a remote backend) ---------------

    def put_many(self, blobs) -> list[str]:
        """Store many blobs in one backend batch; returns their digests
        in the order given."""
        datas = [data.encode("utf-8") if isinstance(data, str) else data
                 for data in blobs]
        digests = [content_digest(data) for data in datas]
        self.backend.put_many(dict(zip(digests, datas)))
        return digests

    def get_many(self, digests) -> dict[str, bytes]:
        """Fetch many blobs at once; missing digests are omitted."""
        return self.backend.get_many(digests)

    def has_many(self, digests) -> dict[str, bool]:
        """Existence-probe many digests at once."""
        return self.backend.has_many(digests)

    def blob_size_many(self, digests) -> dict[str, int | None]:
        """Metadata-only sizes for many blobs at once; None if absent."""
        return self.backend.blob_size_many(digests)

    def stat(self) -> tuple[int, int]:
        """``(blob_count, total_bytes)`` in one backend operation."""
        return self.backend.stat()

    def delete(self, digest: str) -> bool:
        """Remove one blob; True if it existed. (GC's primitive — callers
        are responsible for not deleting blobs still referenced.)"""
        return self.backend.delete(digest)

    def __len__(self) -> int:
        return len(self.backend)

    @property
    def total_bytes(self) -> int:
        """Store size; maintained incrementally by the backend, O(1)."""
        return self.backend.total_bytes

    def copy_blob(self, digest: str, dest: "BlobStore") -> None:
        """Transfer one blob (push/pull primitive); verifies integrity."""
        data = self.get(digest)
        stored = dest.put(data)
        if stored != digest:  # pragma: no cover - put() recomputes, cannot differ
            raise RuntimeError("digest mismatch during transfer")


# -- artifact cache ------------------------------------------------------------


class CacheCounters:
    """Hit/miss accounting for one cache namespace: a read-only view over
    two telemetry counters (``cache.hits{namespace=...}`` /
    ``cache.misses{...}``), so the same numbers appear in metric
    snapshots without double bookkeeping.
    """

    __slots__ = ("_hits", "_misses")

    def __init__(self, hits: Counter, misses: Counter):
        self._hits = hits
        self._misses = misses

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def __eq__(self, other) -> bool:
        if isinstance(other, CacheCounters):
            return (self.hits, self.misses) == (other.hits, other.misses)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheCounters(hits={self.hits}, misses={self.misses})"


@dataclass(frozen=True)
class CacheEntry:
    """One cached artifact: its blob digest, payload text, and — when the
    artifact lives in this process — the live object it serializes."""

    digest: str
    payload: str
    obj: Any = None


@dataclass
class IndexEntry:
    """One index record: which blob a cache key resolves to, its namespace,
    and the access sequence number LRU eviction orders by."""

    namespace: str
    digest: str
    seq: int


class ArtifactCache:
    """Content-addressed build-artifact cache layered on a :class:`BlobStore`.

    Pipeline stages key intermediate artifacts (preprocessed text, IR
    modules, lowered machine modules) by the content digests of everything
    that went into producing them, so a repeated build — or a batch
    deployment fanning one IR container out to many systems — reuses work
    instead of recomputing it. Payload text is persisted in the underlying
    blob store (shareable, digest-verified); live objects (e.g.
    :class:`~repro.compiler.ir.Module`) ride along in-process and are
    *reconstructed from the payload* by the cache-aware wrappers when a
    cold process hits a warm persistent store.

    On a persistent backend (file or remote) the key index itself is stored
    as access-ordered ref blobs, **sharded per namespace**
    (``artifact-index/<namespace>``), updated on every publish and hit: a
    later process — or :func:`repro.store.gc.collect` — sees both the
    mapping and the LRU order. Sharding is what keeps a busy farm off one
    hot ref: a worker publishing ``lower`` artifacts and one publishing
    ``preprocess`` CAS entirely different refs (zero cross-namespace
    retries), and each save rewrites O(one namespace) bytes instead of
    O(whole index). Blobs named in the pin set (:data:`PINS_REF`, see
    :meth:`pin`) are exempt from garbage collection along with everything
    they transitively reference.

    Index and pin persistence are **multi-writer safe**: every rewrite goes
    through :func:`repro.store.backend.cas_merge_ref`, which re-reads the
    current ref, merges the other writer's entries and access-order
    updates into ours, and retries if the swap is beaten.
    Two builders racing on one ``FileBackend`` or store server converge
    on the union of their publishes, recency bumps, and pins — never
    last-writer-wins. Keys this process evicted are tracked as tombstone
    *records* (digest + seq), so a merge can tell the stale entry we
    removed apart from a fresh republish by another writer: the former
    stays dead, the latter is adopted.

    Namespaces ("preprocess", "ir", "lower") keep independent hit/miss
    counters, surfaced per build in ``PipelineStats``. Thread-safe: the
    pipeline's parallel map may look up and publish concurrently.
    """

    def __init__(self, store: BlobStore | None = None, flush_every: int = 1,
                 registry: "MetricsRegistry | None" = None):
        self.store = store if store is not None else BlobStore()
        #: Telemetry registry all cache counters live in. Per-cache by
        #: default; cluster workers pass their own so cache traffic rides
        #: their heartbeat metric deltas.
        self.registry = registry if registry is not None else MetricsRegistry()
        self._entries: dict[str, IndexEntry] = {}  # cache key -> index record
        self._objects: dict[str, Any] = {}         # cache key -> live object
        self._counters: dict[str, CacheCounters] = {}
        self._lock = threading.Lock()
        self._seq = 0
        #: Single :meth:`put` calls per index save (a :meth:`put_many`
        #: batch is always saved once, when it returns). 1 (the default)
        #: persists on every put — maximum durability and cross-process
        #: visibility. Bulk publishers (cluster workers) raise it: each
        #: save CAS-rewrites the whole namespace shard, so a job making a
        #: thousand single puts at flush_every=1 writes O(n^2) index
        #: bytes. A cache that defers its index on a persistent backend
        #: defers the payload blobs with it (see ``_pending_blobs``).
        #: Batched writers must :meth:`flush_index` before *announcing*
        #: their artifacts (the cluster does, before reporting job
        #: completion).
        self.flush_every = max(1, flush_every)
        self._dirty_keys: set[str] = set()  # locally modified since last save
        # Namespaces whose shard must be rewritten even without a dirty
        # key in it — evictions leave nothing behind *but* the rewrite.
        self._dirty_namespaces: set[str] = set()
        # Tombstone records for keys we evicted: digest+seq let a merge
        # tell "the stale entry we removed" from "a fresh republish".
        self._evicted: dict[str, IndexEntry] = {}
        self._cas_retries = self.registry.counter("cache.index_cas_retries")
        self._pin_cas_retries = self.registry.counter("cache.pin_cas_retries")
        self._persistent = self.store.backend.persistent
        # Payload blobs :meth:`put` has hashed but not yet stored
        # (digest -> bytes). Nobody else can find a blob before the index
        # names it, so a cache that batches index saves keeps the blobs
        # too and every save lands them first, as one backend batch: one
        # mutation lock and one stamp per flush instead of one per
        # artifact, and no blob-without-entry window for a concurrent GC.
        self._defer_blobs = self._persistent and self.flush_every > 1
        self._pending_blobs: dict[str, bytes] = {}
        if self._persistent:
            with self._lock:
                self._load_index_locked()

    @property
    def persistent(self) -> bool:
        """True when the backing store outlives this process (file/remote)."""
        return self._persistent

    @property
    def pending_blobs(self) -> tuple[int, int]:
        """``(count, bytes)`` of payload blobs the next index save will
        land — always ``(0, 0)`` unless this cache defers its index on a
        persistent backend."""
        with self._lock:
            return (len(self._pending_blobs),
                    sum(len(data) for data in self._pending_blobs.values()))

    @property
    def cas_retries(self) -> int:
        """Lost index-CAS attempts (another writer swapped first and we
        re-merged). The sharded layout's acceptance number: writers in
        different namespaces must show zero."""
        return self._cas_retries.value

    @property
    def pin_cas_retries(self) -> int:
        """Lost pin-CAS attempts, counted separately."""
        return self._pin_cas_retries.value

    def _counters_locked(self, namespace: str) -> CacheCounters:
        counters = self._counters.get(namespace)
        if counters is None:
            counters = CacheCounters(
                self.registry.counter("cache.hits", namespace=namespace),
                self.registry.counter("cache.misses", namespace=namespace))
            self._counters[namespace] = counters
        return counters

    # -- index persistence -----------------------------------------------------

    def _load_index_locked(self) -> None:
        """Adopt whatever index state the backend holds: each namespace
        shard is merged with authority over its own namespace. Any other
        ref — including a bare ``artifact-index`` left by a pre-sharding
        writer — is not an index and is ignored; the entries it listed
        are cache misses, which is always correct."""
        backend = self.store.backend
        for name in index_ref_names(backend):
            self._merge_index_locked(
                backend.get_ref(name), name[len(INDEX_REF_PREFIX):])

    def _merge_index_locked(self, raw: bytes | None, namespace: str) -> None:
        """Reconcile our in-memory index with ``raw`` (the bytes another
        writer last persisted to ``namespace``'s shard).

        * Unseen keys are adopted — a concurrent publish survives.
        * Keys present on both sides keep whichever record is fresher:
          ours when we modified the key since our last save (a new publish
          or an LRU bump), otherwise the backend's; seq is merged by max
          so *both* writers' recency updates survive.
        * Keys we carry but the backend no longer lists were evicted by
          another writer (or its GC); unless we re-dirtied them, we drop
          them rather than resurrect what someone else collected. The
          shard's authority ends at its namespace: local entries of other
          namespaces are never dropped.
        * Tombstoned keys stay dead when the backend still shows the very
          record we evicted; a record with a new digest or later seq is a
          fresh republish and is adopted (tombstone cleared).
        """
        if raw is None:
            return
        blob = json.loads(raw.decode("utf-8"))
        self._seq = max(self._seq, int(blob.get("seq", 0)))
        backend_keys: set[str] = set()
        for key, ns, digest, seq in blob.get("entries", ()):
            seq = int(seq)
            tomb = self._evicted.get(key)
            if tomb is not None:
                if digest == tomb.digest and seq <= tomb.seq:
                    continue  # the entry we evicted; keep it dead
                del self._evicted[key]  # fresh republish elsewhere
            backend_keys.add(key)
            mine = self._entries.get(key)
            if mine is None:
                self._entries[key] = IndexEntry(ns, digest, seq)
            elif key in self._dirty_keys:
                mine.seq = max(mine.seq, seq)
            elif seq >= mine.seq:
                mine.namespace, mine.digest, mine.seq = ns, digest, seq
        for key in list(self._entries):
            if self._entries[key].namespace != namespace:
                continue  # this shard has no authority over that namespace
            if key not in backend_keys and key not in self._dirty_keys:
                del self._entries[key]
                self._objects.pop(key, None)

    def flush_index(self) -> None:
        """Persist the index now, even on a non-persistent backend.

        Hit-driven LRU bumps are batched (persisting the whole index per
        lookup would be O(n) I/O per hit); any operation boundary —
        ``put``, ``evict``, ``snapshot``, ``stats``, GC — flushes them.
        Call this explicitly before handing a memory backend to
        :func:`repro.store.transfer.export_store`, or to persist a
        read-only session's recency updates immediately.
        """
        with self._lock:
            self._save_index_locked(force=True)

    def _save_index_locked(self, force: bool = False) -> None:
        """Persist the locally-modified index shards: only namespaces
        with local changes (dirty keys, evictions) are rewritten, each
        through its own CAS retry-merge loop — writers in different
        namespaces touch different refs and never conflict, and each
        payload is O(namespace). Deferred payload blobs go first — an
        entry must never be visible before its blob — and stay pending
        when the backend refuses them, so the next save retries both."""
        if not self._persistent and not force:
            return
        if self._pending_blobs:
            self.store.backend.put_many(self._pending_blobs)
            self._pending_blobs = {}
        dirty = {self._entries[key].namespace
                 for key in self._dirty_keys if key in self._entries}
        dirty |= self._dirty_namespaces
        for namespace in sorted(dirty):
            self._save_shard_locked(namespace)
        self._dirty_namespaces.clear()

    def _save_shard_locked(self, namespace: str) -> None:
        """Rewrite one namespace's index shard through the CAS
        read-merge-retry loop: each attempt merges the other writer's
        state into ours and swaps the union back, so both racing writers'
        entries and access-order updates survive."""
        ref_name = index_ref_name(namespace)
        dirty_here: list[str] = []

        def merge(raw: bytes | None) -> bytes:
            nonlocal dirty_here
            self._merge_index_locked(raw, namespace)
            # Re-stamp the keys we modified *after* the merge raised _seq
            # past everything the index has seen: a publish made by a
            # handle whose local counter lagged would otherwise carry a
            # seq below an old tombstone's and be mistaken for the stale
            # entry that tombstone killed. Re-stamping in current-seq
            # order keeps the keys' relative access order intact (they
            # were all just touched, so above-the-index is honest LRU).
            dirty_here = [key for key in self._dirty_keys
                          if key in self._entries
                          and self._entries[key].namespace == namespace]
            for key in sorted(dirty_here,
                              key=lambda k: self._entries[k].seq):
                self._entries[key].seq = self._next_seq_locked()
            return json.dumps({
                "version": 1,
                "seq": self._seq,
                "entries": [[key, e.namespace, e.digest, e.seq]
                            for key, e in sorted(self._entries.items())
                            if e.namespace == namespace],
            }, sort_keys=True).encode("utf-8")

        def on_retry() -> None:
            self._cas_retries.inc()
            _events.emit("info", "index CAS retry", ref=ref_name,
                         retries=self._cas_retries.value)

        cas_merge_ref(self.store.backend, ref_name, merge, on_retry)
        self._dirty_keys.difference_update(dirty_here)

    def _flush_dirty_locked(self) -> None:
        if self._dirty_keys:
            self._save_index_locked()

    def _next_seq_locked(self) -> int:
        self._seq += 1
        return self._seq

    # -- lookup / publish --------------------------------------------------------

    @staticmethod
    def cache_key(namespace: str, parts: Any) -> str:
        """Canonical key: namespace + JSON-stable digest of the parts."""
        return stable_hash({"ns": namespace, "key": parts})

    def get(self, namespace: str, parts: Any,
            require_obj: bool = False) -> CacheEntry | None:
        """Look up an artifact; counts a hit or miss in ``namespace``.

        ``require_obj=True`` treats a payload-only entry as a miss — for
        callers that cannot (or must not) reconstruct the live object from
        the payload text.
        """
        key = self.cache_key(namespace, parts)
        with self._lock:
            counters = self._counters_locked(namespace)
            record = self._entries.get(key)
            obj = self._objects.get(key)
            payload = None
            if record is not None and not (require_obj and obj is None):
                # One read, under the lock, is the existence check too: an
                # index entry whose blob another writer's GC collected is
                # a miss, not an error.
                pending = self._pending_blobs.get(record.digest)
                try:
                    payload = pending.decode("utf-8") if pending is not None \
                        else self.store.get_text(record.digest)
                except BlobNotFound:
                    pass
            if payload is None:
                counters._misses.inc()
                return None
            counters._hits.inc()
            # A hit refreshes the entry's position in the LRU order; the
            # bump is persisted at the next operation boundary (put,
            # snapshot, stats, GC) rather than per lookup.
            record.seq = self._next_seq_locked()
            if self._persistent:
                self._dirty_keys.add(key)
        return CacheEntry(record.digest, payload, obj)

    def put(self, namespace: str, parts: Any, payload: str,
            obj: Any = None) -> CacheEntry:
        """Publish an artifact; idempotent, does not touch the counters."""
        key = self.cache_key(namespace, parts)
        with self._lock:
            if self._defer_blobs:
                digest, = self._defer_locked([payload])
            else:
                digest = self.store.put(payload)
            self._index_locked(key, namespace, digest, obj)
            if len(self._dirty_keys) >= self.flush_every:
                self._save_index_locked()
        return CacheEntry(digest, payload, obj)

    def put_many(self, namespace: str, items, blobs=()) -> list[CacheEntry]:
        """Publish a batch of artifacts: ``items`` are ``(parts, payload)``
        pairs, ``blobs`` the bulk bodies those payloads name by digest
        (see :meth:`put_blob`). Equivalent to ``put_blob`` per blob and
        ``put`` per item, in order — a key named twice keeps its last
        payload — but all blobs land in one backend batch (one mutation
        lock and stamp on a file store, one round trip per
        ``BATCH_DIGESTS`` on a remote one) and the index is saved once,
        whatever ``flush_every`` says: the batch is durable and visible
        to other processes when this returns. The blobs are stored before
        the index names them, so no reader or GC ever sees an entry whose
        bulk body is missing. An empty batch touches nothing.

        For publishers that hold a whole stage's results at once. Results
        that appear one at a time inside a parallel map keep using
        :meth:`put`: its per-item persistence is what a killed build
        resumes from.
        """
        items = list(items)
        if not items:
            return []
        payloads = [payload for _parts, payload in items]
        with self._lock:
            if self._defer_blobs:
                # Through the same queue as put()'s blobs, so the save
                # below lands this batch and whatever was pending as one.
                digests = self._defer_locked([*payloads, *blobs])
            else:
                digests = self.store.put_many([*payloads, *blobs])
            for (parts, _payload), digest in zip(items, digests):
                self._index_locked(self.cache_key(namespace, parts),
                                   namespace, digest, None)
            self._save_index_locked()
        return [CacheEntry(digest, payload)
                for digest, payload in zip(digests, payloads)]

    def _defer_locked(self, blobs) -> list[str]:
        """Hash ``blobs`` (text or bytes) and keep them for the next index
        save to land; their digests, in order."""
        datas = [data.encode("utf-8") if isinstance(data, str) else data
                 for data in blobs]
        digests = [content_digest(data) for data in datas]
        self._pending_blobs.update(zip(digests, datas))
        return digests

    def _index_locked(self, key: str, namespace: str, digest: str,
                      obj: Any) -> None:
        """Point ``key`` at a freshly stored payload blob and mark it
        dirty for the next index save."""
        self._entries[key] = IndexEntry(namespace, digest,
                                        self._next_seq_locked())
        # A republish of a key we once evicted is a fresh entry; the
        # tombstone must not swallow it at the next merge.
        self._evicted.pop(key, None)
        self._dirty_keys.add(key)
        if obj is not None:
            self._objects[key] = obj
        else:
            # Re-publishing without an object must not leave a stale
            # live object paired with the new payload.
            self._objects.pop(key, None)

    def put_blob(self, payload: str) -> str:
        """Store a raw content-addressed blob with no index entry.

        For bulk artifact bodies (preprocessed text) that a payload refers
        to by digest, so index payloads stay small and hits stay O(1) in
        artifact size.
        """
        with self._lock:
            return self.store.put(payload)

    # -- pins --------------------------------------------------------------------

    def pin(self, name: str, digest: str) -> None:
        """Protect ``digest`` — and everything it transitively references —
        from garbage collection, under a human-readable name.

        Deployable state is pinned by its root: pinning an image's manifest
        digest keeps its config and layer blobs alive because GC follows
        digest references inside pinned blobs.
        """
        if not is_digest(digest):
            raise ValueError(f"malformed digest {digest!r}")
        with self._lock:
            self._update_pins_locked(lambda pins: pins.update({name: digest}))

    def unpin(self, name: str) -> bool:
        with self._lock:
            return self._update_pins_locked(
                lambda pins: pins.pop(name, None) is not None)

    def _update_pins_locked(self, mutate) -> bool:
        """Apply ``mutate`` to the pin set via the CAS retry loop.

        ``mutate`` edits the freshly-read dict in place and may return
        False to signal a no-op (e.g. unpinning a name that is not
        pinned); anything else counts as a change. Re-reading inside the
        loop means two processes pinning different names both survive.
        """
        def merge(raw: bytes | None) -> bytes | None:
            pins = {} if raw is None else json.loads(raw.decode("utf-8"))
            if mutate(pins) is False:
                return None
            return json.dumps(pins, sort_keys=True).encode("utf-8")

        def on_retry() -> None:
            self._pin_cas_retries.inc()
            _events.emit("info", "pin CAS retry",
                         retries=self._pin_cas_retries.value)

        return cas_merge_ref(self.store.backend, PINS_REF, merge, on_retry)

    def pins(self) -> dict[str, str]:
        with self._lock:
            return self._load_pins()

    def _load_pins(self) -> dict[str, str]:
        raw = self.store.backend.get_ref(PINS_REF)
        return {} if raw is None else json.loads(raw.decode("utf-8"))

    # -- introspection (stats, GC) -----------------------------------------------

    def entries(self) -> dict[str, IndexEntry]:
        """Snapshot of the index (key -> record copy), for stats and GC.

        On a persistent backend the snapshot first syncs with the live
        ref, so GC and stats see entries other writers published since we
        last saved — not just our own view.
        """
        with self._lock:
            self._flush_dirty_locked()
            if self._persistent:
                self._load_index_locked()
            return {key: IndexEntry(e.namespace, e.digest, e.seq)
                    for key, e in self._entries.items()}

    def evict(self, key: str) -> IndexEntry | None:
        """Drop one index entry (not its blob); returns the removed record.

        Blob deletion is GC's job — it alone knows which blobs are still
        referenced by surviving entries or pinned manifests.
        """
        with self._lock:
            record = self._entries.pop(key, None)
            self._objects.pop(key, None)
            self._dirty_keys.discard(key)
            if record is not None:
                # Tombstone the full record: the save's merge must not
                # resurrect what we just evicted, but a *fresh* republish
                # of the same key (new digest or later seq) by another
                # writer must still be adopted.
                self._evicted[key] = IndexEntry(record.namespace,
                                                record.digest, record.seq)
                # The key's shard must be rewritten even though no dirty
                # key remains in that namespace.
                self._dirty_namespaces.add(record.namespace)
                self._save_index_locked()
            return record

    def gc(self, max_bytes: int, grace_seconds: float = 0.0,
           dry_run: bool = False, max_age_seconds: float | None = None):
        """Bound the backing store to ``max_bytes`` by LRU eviction.

        Delegates to :func:`repro.store.gc.collect`; see there for the
        policy (orphans first, then TTL expiry when ``max_age_seconds``
        is given, then least-recently-used entries; pinned blobs are
        never deleted). Pass a positive ``grace_seconds`` when other
        writers may be publishing concurrently: blobs younger than the
        window are never swept, closing the put-blob-then-write-index
        gap every publisher has. ``dry_run=True`` prices the eviction
        plan without deleting anything.
        """
        from repro.store.gc import collect
        return collect(self, max_bytes, grace_seconds=grace_seconds,
                       dry_run=dry_run, max_age_seconds=max_age_seconds)

    def stats(self) -> dict:
        """Machine-readable store/cache statistics (``cache stats --json``).

        ``bytes_by_namespace`` prices each namespace the way GC would free
        it: every blob an entry's payload references (the payload blob
        itself plus bulk blobs it names by digest, e.g. preprocessed text)
        is attributed to the entry's namespace, counted once per
        namespace. This is what makes warm/cold scheduling decisions — and
        per-namespace GC budgets — inspectable.
        """
        from repro.store.gc import referenced_digests
        with self._lock:
            self._flush_dirty_locked()
            if self._persistent:
                self._load_index_locked()
            per_ns: dict[str, int] = {}
            ns_digests: dict[str, set[str]] = {}
            for record in self._entries.values():
                per_ns[record.namespace] = per_ns.get(record.namespace, 0) + 1
                ns_digests.setdefault(record.namespace, set())
            # Sizing is metadata-first and *batched*: every payload blob
            # is priced in one blob_size_many call (a stat per blob
            # locally, one round-trip remotely). Content is fetched —
            # again in one batch — only for *small* payloads, to discover
            # the bulk blobs they name by digest; the indirection pattern
            # (tiny JSON pointing at big preprocessed text) never puts
            # digests in large blobs, so the scan cutoff loses nothing
            # while keeping `cache stats` from downloading a remote store
            # wholesale.
            scan_cutoff = 64 * 1024
            unique_digests = {r.digest for r in self._entries.values()}
            size_cache = {digest: size for digest, size
                          in self.store.blob_size_many(unique_digests).items()
                          if size is not None}
            small = {digest for digest in unique_digests
                     if 0 <= size_cache.get(digest, -1) <= scan_cutoff}
            payloads = self.store.get_many(sorted(small))
            payload_refs = {digest: referenced_digests(data)
                            for digest, data in payloads.items()}
            bulk = {ref for refs in payload_refs.values() for ref in refs
                    if ref not in size_cache}
            size_cache.update(
                (digest, size or 0) for digest, size
                in self.store.blob_size_many(bulk).items())
            for record in self._entries.values():
                if record.digest not in size_cache:
                    continue  # blob vanished under us (another writer's GC)
                if record.digest in small and record.digest not in payloads:
                    continue  # raced a delete between sizing and fetching
                seen = ns_digests.setdefault(record.namespace, set())
                seen.add(record.digest)
                seen.update(payload_refs.get(record.digest, ()))
            bytes_by_ns = {
                ns: sum(size_cache.get(d, 0) for d in digests)
                for ns, digests in ns_digests.items()}
            blob_count, total_bytes = self.store.stat()
            return {
                "blobs": blob_count,
                "total_bytes": total_bytes,
                "entries": len(self._entries),
                "entries_by_namespace": dict(sorted(per_ns.items())),
                "bytes_by_namespace": dict(sorted(bytes_by_ns.items())),
                "pins": self._load_pins(),
                "persistent": self._persistent,
                "index_cas_retries": self.cas_retries,
                "pin_cas_retries": self.pin_cas_retries,
            }

    # -- counters ----------------------------------------------------------------

    def counters(self, namespace: str) -> CacheCounters:
        with self._lock:
            return self._counters_locked(namespace)

    def snapshot(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) per namespace — for computing per-build deltas.

        Builds and deployments snapshot before and after a run, which makes
        this the natural operation boundary to persist batched LRU bumps.
        """
        with self._lock:
            self._flush_dirty_locked()
            return {ns: (c.hits, c.misses) for ns, c in self._counters.items()}

    def __len__(self) -> int:
        return len(self._entries)
