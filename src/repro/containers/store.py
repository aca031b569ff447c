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
processes. :class:`ArtifactCache` resolves its keys through a
:class:`repro.store.index.ArtifactIndex` persisted in refs on the same
backend — that module owns the index format, the multi-writer merge and the
pin set — so a cold process warm-starts from whatever a previous build left
behind.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

from repro.store.backend import Backend, BlobNotFound, MemoryBackend
from repro.store.gc import collect, referenced_digests
from repro.store.index import ArtifactIndex, IndexEntry
from repro.telemetry.registry import MetricsRegistry
from repro.util.hashing import content_digest, is_digest, stable_hash

__all__ = [
    "ArtifactCache", "BlobNotFound", "BlobStore", "BULK_FLUSH_EVERY",
    "CacheEntry",
]

#: ``flush_every`` for bulk publishers (cluster workers, farm-backed CLI
#: paths). A stage publishes its misses with one ``put_many``, saved at
#: once; the single puts left, hits promoting a decoded object, wait for
#: the next flush instead of each rewriting a shard. Nothing such a put
#: publishes — blob or index entry — is on the store before then, so
#: callers batching this hard must flush before announcing their
#: artifacts to anyone who will look for them.
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

    def copy_blob(self, digest: str, dest: "BlobStore") -> None:
        """Transfer one blob (push/pull primitive); verifies integrity."""
        data = self.get(digest)
        stored = dest.put(data)
        if stored != digest:  # pragma: no cover - put() recomputes, cannot differ
            raise RuntimeError("digest mismatch during transfer")


# -- artifact cache ------------------------------------------------------------


@dataclass(frozen=True)
class CacheEntry:
    """One cached artifact: its blob digest, payload text, and — when the
    artifact lives in this process — the live object it serializes."""

    digest: str
    payload: str
    obj: Any = None


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

    Which blob a key resolves to is the business of ``self.index``, a
    :class:`repro.store.index.ArtifactIndex`: the access-ordered table,
    its per-namespace shard refs, the multi-writer CAS merge, eviction
    tombstones and the pin set all live there. This class is what sits
    around it — the lock every index call is made under, lookups and
    publishes, the live objects and the queue of payload blobs a save
    lands ahead of the entries that name them. On a
    persistent backend (file or remote) a later process — or
    :func:`repro.store.gc.collect` — sees both the mapping and the LRU
    order this one saved.

    The cache counts nothing: its callers count their own lookups (the
    pipeline stages in :class:`~repro.pipeline.stats.PipelineStats`, the
    lowering loop in ``lowerings_performed`` / ``lowerings_reused``).
    Thread-safe: a farm worker's lease-renewal heartbeat calls
    :meth:`flush_index` while the job's thread publishes, and that flush
    is what makes a long job's entries durable before it completes.
    """

    def __init__(self, store: BlobStore | None = None, flush_every: int = 1,
                 registry: "MetricsRegistry | None" = None):
        self.store = store if store is not None else BlobStore()
        #: Telemetry registry the index's CAS-retry counters live in.
        self.registry = registry if registry is not None else MetricsRegistry()
        self._objects: dict[str, Any] = {}         # cache key -> live object
        self._lock = threading.Lock()
        self.index = ArtifactIndex(
            self.store.backend, self.registry,
            on_drop=lambda key: self._objects.pop(key, None))
        #: Single :meth:`put` calls per index save (a :meth:`put_many`
        #: batch is always saved once, when it returns); the single puts
        #: left are hits promoting a decoded object. 1 (the default)
        #: persists on every put. Bulk publishers (cluster workers) raise
        #: it: each save CAS-rewrites the whole namespace shard, so a job
        #: promoting a thousand hits at flush_every=1 writes O(n^2) index
        #: bytes. The payload blobs wait with the entries (see
        #: ``_pending_blobs``). Batched writers must :meth:`flush_index`
        #: before *announcing* their artifacts (the cluster does, before
        #: reporting job completion).
        self.flush_every = max(1, flush_every)
        self._persistent = self.store.backend.persistent
        # Payload blobs hashed but not yet stored (digest -> bytes).
        # Nobody else can find a blob before the index names it, so every
        # publish queues its blobs here and every save lands them first,
        # as one backend batch (one round trip per batch on a remote
        # store), leaving no blob-without-entry window for a concurrent
        # GC. A non-persistent backend never saves its index unasked, so
        # there each publish lands its own blobs.
        self._pending_blobs: dict[str, bytes] = {}
        if self._persistent:
            with self._lock:
                self.index.load()

    @property
    def persistent(self) -> bool:
        """True when the backing store outlives this process (file/remote)."""
        return self._persistent

    @property
    def pending_blobs(self) -> tuple[int, int]:
        """``(count, bytes)`` of payload blobs the next index save will
        land — ``(0, 0)`` between saves."""
        with self._lock:
            return (len(self._pending_blobs),
                    sum(len(data) for data in self._pending_blobs.values()))

    @property
    def cas_retries(self) -> int:
        """Lost index-CAS attempts; see :class:`ArtifactIndex`."""
        return self.index.cas_retries

    # -- saving ------------------------------------------------------------------

    def flush_index(self) -> None:
        """Persist the index now, even on a non-persistent backend.

        Hit-driven LRU bumps are batched (persisting a shard per lookup
        would be O(n) I/O per hit); the next ``put``, ``evict``,
        :meth:`sync` or ``flush_index`` saves them — nothing else does.
        Call this explicitly before handing a memory backend to
        :func:`repro.store.transfer.export_store`, or to persist a
        read-only session's recency updates immediately.
        """
        with self._lock:
            self._save_locked(force=True)

    def sync(self) -> None:
        """Save what this handle modified, then adopt what other writers
        saved since — entries they published become hits, entries they
        evicted are dropped. A non-persistent backend has no other
        writers; there this only lands queued blobs."""
        with self._lock:
            self._sync_locked()

    def _land_blobs_locked(self) -> None:
        """Queued payload blobs go to the backend before any entry that
        names them — an entry must never be visible before its blob — and
        stay queued when the backend refuses them, so the next save
        retries both."""
        if self._pending_blobs:
            self.store.backend.put_many(self._pending_blobs)
            self._pending_blobs = {}

    def _save_locked(self, force: bool = False) -> None:
        self._land_blobs_locked()
        if self._persistent or force:
            self.index.save()

    def _sync_locked(self) -> None:
        self._land_blobs_locked()
        if self._persistent:
            self.index.sync()

    # -- lookup / publish --------------------------------------------------------

    @staticmethod
    def cache_key(namespace: str, parts: Any) -> str:
        """Canonical key: namespace + JSON-stable digest of the parts."""
        return stable_hash({"ns": namespace, "key": parts})

    def get(self, namespace: str, parts: Any) -> CacheEntry | None:
        """Look up an artifact; None on a miss."""
        key = self.cache_key(namespace, parts)
        with self._lock:
            record = self.index.get(key)
            payload = None
            if record is not None:
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
                return None
            # A hit refreshes the entry's position in the LRU order; the
            # bump is persisted at the next save rather than per lookup.
            self.index.touch(key)
            return CacheEntry(record.digest, payload, self._objects.get(key))

    def put(self, namespace: str, parts: Any, payload: str,
            obj: Any = None) -> CacheEntry:
        """Publish an artifact; idempotent."""
        key = self.cache_key(namespace, parts)
        with self._lock:
            digest, = self._publish_locked(namespace, [key], [payload])
            if obj is not None:
                self._objects[key] = obj
            if not self._persistent \
                    or len(self.index.dirty) >= self.flush_every:
                self._save_locked()
        return CacheEntry(digest, payload, obj)

    def put_many(self, namespace: str, items, blobs=()) -> list[CacheEntry]:
        """Publish a batch of artifacts: ``items`` are ``(parts, payload)``
        or ``(parts, payload, obj)``, ``blobs`` the bulk bodies those
        payloads name by digest (preprocessed text, say — indexed payloads
        stay small, so hits stay O(1) in artifact size). Equivalent to
        ``put`` per item, in order — a key named twice keeps its last
        payload and its last object, or none — with the bulk
        bodies stored beside the payloads, but all blobs land in one
        backend batch (one round trip per ``BATCH_DIGESTS`` on a remote
        store) and the index is saved once, whatever ``flush_every``
        says: the batch is durable and visible to other processes when
        this returns. The blobs are stored before the index names them,
        so no reader or GC ever sees an entry whose bulk body is missing.
        An empty batch touches nothing.

        Every stage publishes its misses this way once it holds them all
        (configure, preprocess, IR compile, a deployment's lowering
        loop), so a killed build resumes from the batches that landed,
        never from part of one; :meth:`put` is left to the hits that
        promote a decoded object.
        """
        items = list(items)
        if not items:
            return []
        keys = [self.cache_key(namespace, item[0]) for item in items]
        payloads = [item[1] for item in items]
        objs = [item[2] if len(item) > 2 else None for item in items]
        with self._lock:
            # Through the same queue as put()'s blobs, so the save below
            # lands this batch and whatever was pending as one.
            digests = self._publish_locked(namespace, keys,
                                           [*payloads, *blobs])
            # The publish dropped every key's old object; the dict keeps
            # each key's last one.
            for key, obj in dict(zip(keys, objs)).items():
                if obj is not None:
                    self._objects[key] = obj
            self._save_locked()
        return [CacheEntry(*entry) for entry in zip(digests, payloads, objs)]

    def _publish_locked(self, namespace: str, keys, blobs) -> list[str]:
        """Hash ``blobs`` (text or bytes) and queue them for the next save
        to land, then point each of ``keys`` at the blob in its position;
        the digests, in order."""
        datas = [data.encode("utf-8") if isinstance(data, str) else data
                 for data in blobs]
        digests = [content_digest(data) for data in datas]
        self._pending_blobs.update(zip(digests, datas))
        for key, digest in zip(keys, digests):
            self.index.set(key, namespace, digest)
            # Re-publishing must not leave a stale live object paired
            # with the new payload.
            self._objects.pop(key, None)
        return digests

    # -- pins, entries, eviction: the index's, under our lock ---------------------

    def pin(self, name: str, digest: str) -> None:
        """See :meth:`ArtifactIndex.pin`."""
        with self._lock:
            self.index.pin(name, digest)

    def unpin(self, name: str) -> bool:
        with self._lock:
            return self.index.unpin(name)

    def pins(self) -> dict[str, str]:
        with self._lock:
            return self.index.pins()

    def entries(self) -> dict[str, IndexEntry]:
        """Snapshot of the index (key -> record copy), for stats and GC,
        taken after a :meth:`sync` — so it includes entries other writers
        published since we last saved, not just our own view."""
        with self._lock:
            self._sync_locked()
            return self.index.rows()

    def evict(self, key: str) -> IndexEntry | None:
        """Drop one index entry (not its blob); returns the removed record.

        Blob deletion is GC's job — it alone knows which blobs are still
        referenced by surviving entries or pinned manifests.
        """
        with self._lock:
            record = self.index.evict(key)
            self._objects.pop(key, None)
            if record is not None:
                self._save_locked()
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
        with self._lock:
            self._sync_locked()
            records = self.index.rows().values()
            per_ns: dict[str, int] = {}
            ns_digests: dict[str, set[str]] = {}
            for record in records:
                per_ns[record.namespace] = per_ns.get(record.namespace, 0) + 1
                ns_digests.setdefault(record.namespace, set())
            # Sizing is metadata-first and *batched*: every payload blob
            # is priced in one blob_size_many call (a stat per blob
            # locally, one round-trip remotely). Content is fetched, in
            # one batch, only for payloads *stored* small (the cutoff
            # compares stored sizes; a FileBackend's are deflated), to find
            # the bulk blobs they name by digest; tiny JSON pointing at big
            # preprocessed text never puts digests in large blobs, so the
            # cutoff loses nothing while keeping `cache stats` from
            # downloading a remote store wholesale.
            scan_cutoff = 64 * 1024
            unique_digests = {r.digest for r in records}
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
            for record in records:
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
                "entries": len(records),
                "entries_by_namespace": dict(sorted(per_ns.items())),
                "bytes_by_namespace": dict(sorted(bytes_by_ns.items())),
                "pins": self.index.pins(),
                "persistent": self._persistent,
                "index_cas_retries": self.cas_retries,
                "pin_cas_retries": self.index.pin_cas_retries,
            }

    def __len__(self) -> int:
        return len(self.index)
