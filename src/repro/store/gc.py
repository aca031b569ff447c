"""Size accounting and LRU garbage collection for artifact stores.

The cache grows without bound: every preprocessed text, IR module, lowered
machine module, and image blob a build ever produced stays in the store.
:func:`collect` bounds the store to a byte budget with a two-phase sweep:

1. **Orphans first.** Blobs referenced by nothing — no index entry, no pin,
   no digest mention inside a live payload — are deleted outright. (These
   accumulate when an entry is re-published with a new payload: the old
   blob keeps its bytes but loses its last referrer.)
2. **TTL expiry** (when ``max_age_seconds`` is given). Entries whose
   payload blob is older than the window are expired *regardless of
   budget* — oldest first, deleting newly-unreferenced blobs exactly like
   an LRU eviction. Age comes from the backend's ``blob_age_seconds``
   (the same clock the grace window reads); a backend without age data
   answers None and expires nothing. This is what keeps a long-lived
   shared store — or a worker's local tier — bounded in *time* as well
   as bytes.
3. **LRU eviction.** While the store still exceeds the budget, evict the
   least-recently-used index entry (the access-ordered index is maintained
   by :class:`~repro.containers.store.ArtifactCache` on every hit and
   publish) and delete whichever blobs thereby lose their last reference.

Pinned roots are sacred: any digest in the pin set — and everything it
transitively references, discovered by scanning pinned blobs for embedded
``sha256:`` digests (an OCI manifest names its config and layer blobs this
way) — is never deleted, even if the budget cannot be met without it.

Collection is multi-writer aware. The cache's index snapshot syncs with
the live ref and each eviction rewrites the index through the cache's
CAS retry-merge loop, so a publisher racing the collector keeps its
entries (and an evicted entry cannot be resurrected by a stale save).
Before any blob is deleted, the sweep re-reads the live index ref and
spares every digest reachable from entries published since the snapshot —
a fresh publish is never swept as an orphan.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.store.index import index_ref_names, stored_rows
from repro.telemetry import events as _events

_DIGEST_RE = re.compile(rb"sha256:[0-9a-f]{64}")


@dataclass
class GCReport:
    """What one collection did — or would do — for auditing and the CLI.

    ``dry_run`` reports carry the same priced plan (per-blob deletions,
    per-namespace totals) as a live run but mutate nothing:
    ``after_bytes == before_bytes`` and ``projected_after_bytes`` shows
    where applying the plan would land the store.
    """

    max_bytes: int
    before_bytes: int
    after_bytes: int
    before_blobs: int
    after_blobs: int
    evicted_entries: int = 0
    expired_entries: int = 0
    deleted_blobs: int = 0
    pinned_blobs: int = 0
    grace_seconds: float = 0.0
    max_age_seconds: float | None = None
    dry_run: bool = False
    # (namespace, key) of every evicted entry, LRU-first.
    evicted: list[tuple[str, str]] = field(default_factory=list)
    # (namespace, key) of every TTL-expired entry, oldest-first.
    expired: list[tuple[str, str]] = field(default_factory=list)
    # Every (planned) blob deletion: namespace attribution, digest, bytes.
    # Orphan-phase deletions are attributed to the pseudo-namespace
    # "(orphan)" — they belong to no live entry by definition.
    deletions: list[dict] = field(default_factory=list)
    # namespace -> {"entries": evicted entries, "blobs": n, "bytes": b}.
    by_namespace: dict[str, dict] = field(default_factory=dict)

    @property
    def planned_freed_bytes(self) -> int:
        return sum(d["bytes"] for d in self.deletions)

    @property
    def projected_after_bytes(self) -> int:
        return self.before_bytes - self.planned_freed_bytes

    @property
    def freed_bytes(self) -> int:
        return self.before_bytes - self.after_bytes

    @property
    def within_budget(self) -> bool:
        after = self.projected_after_bytes if self.dry_run else self.after_bytes
        return after <= self.max_bytes

    def to_json(self) -> dict:
        return {
            "max_bytes": self.max_bytes,
            "before_bytes": self.before_bytes,
            "after_bytes": self.after_bytes,
            "freed_bytes": self.freed_bytes,
            "planned_freed_bytes": self.planned_freed_bytes,
            "projected_after_bytes": self.projected_after_bytes,
            "before_blobs": self.before_blobs,
            "after_blobs": self.after_blobs,
            "evicted_entries": self.evicted_entries,
            "expired_entries": self.expired_entries,
            "deleted_blobs": self.deleted_blobs,
            "pinned_blobs": self.pinned_blobs,
            "grace_seconds": self.grace_seconds,
            "max_age_seconds": self.max_age_seconds,
            "dry_run": self.dry_run,
            "within_budget": self.within_budget,
            "evicted": [{"namespace": ns, "key": key} for ns, key in self.evicted],
            "expired": [{"namespace": ns, "key": key} for ns, key in self.expired],
            "deletions": list(self.deletions),
            "by_namespace": {ns: dict(agg) for ns, agg
                             in sorted(self.by_namespace.items())},
        }


def referenced_digests(data: bytes) -> set[str]:
    """Every well-formed ``sha256:`` digest mentioned inside a blob."""
    return {m.decode("ascii") for m in _DIGEST_RE.findall(data)}


def pin_closure(store, roots: set[str]) -> set[str]:
    """Transitive closure of digest references starting from pinned roots.

    A pinned image manifest references its config and layer blobs by
    digest; those blobs may reference further digests (a manifest layer
    embeds the IR digests its install entries point at). Missing blobs are
    tolerated — a pin may outlive parts of its graph. Each BFS level is
    fetched with one batched ``get_many`` — a deep pin graph on a remote
    store costs one round-trip per level, not per blob.
    """
    seen: set[str] = set()
    frontier = set(roots)
    while frontier:
        level = sorted(frontier - seen)
        seen |= frontier
        blobs = store.get_many(level)
        frontier = {ref for data in blobs.values()
                    for ref in referenced_digests(data)} - seen
    return seen


def collect(cache, max_bytes: int, grace_seconds: float = 0.0,
            dry_run: bool = False,
            max_age_seconds: float | None = None) -> GCReport:
    """Bound ``cache``'s backing store to ``max_bytes``; see module doc.

    ``cache`` is an :class:`~repro.containers.store.ArtifactCache` (duck-
    typed: anything with ``store``/``entries()``/``evict()``/``pins()``
    works). Returns a :class:`GCReport`; ``within_budget`` is False when
    pinned blobs alone exceed the budget.

    ``grace_seconds`` spares blobs younger than the window from deletion
    (git's ``gc --prune=<age>`` idea): a publisher stores its blob *before*
    its index entry lands, and only a grace window makes that gap safe
    when GC runs concurrently with live builders. Blobs whose age the
    backend cannot report are treated as young. 0 disables the window
    (safe when nothing else writes the store).

    ``max_age_seconds`` adds a TTL phase: index entries whose payload
    blob is older than the window are expired oldest-first, independent
    of the byte budget (pass a huge ``max_bytes`` for a pure-TTL sweep).
    Entries whose age the backend cannot report are kept.

    ``dry_run=True`` prices the eviction plan — which entries the LRU
    sweep would evict, which blobs would be deleted, how many bytes each
    namespace gives back — without deleting a blob or touching the index.
    """
    if max_bytes < 0:
        raise ValueError("max_bytes must be non-negative")
    if max_age_seconds is not None and max_age_seconds < 0:
        raise ValueError("max_age_seconds must be non-negative")
    store = cache.store
    before_blobs, before_bytes = store.stat()
    report = GCReport(max_bytes=max_bytes,
                      before_bytes=before_bytes, after_bytes=0,
                      before_blobs=before_blobs, after_blobs=0,
                      grace_seconds=grace_seconds, dry_run=dry_run,
                      max_age_seconds=max_age_seconds)
    age_of = store.backend.blob_age_seconds

    def _in_grace(digest: str) -> bool:
        if grace_seconds <= 0:
            return False
        age = age_of(digest)
        # None is "no age data": assume young, never delete.
        return age is None or age < grace_seconds

    pinned = pin_closure(store, set(cache.pins().values()))
    report.pinned_blobs = len(pinned)

    # Per-entry reference sets: the payload blob itself plus every digest
    # the payload mentions (preprocess payloads point at their bulk text
    # blob this way). Refcounts let eviction delete newly-unreferenced
    # blobs without rescanning the surviving entries. Payload blobs are
    # fetched with one batched get_many rather than a has+get per entry.
    entries = cache.entries()
    payload_blobs = store.get_many(
        sorted({record.digest for record in entries.values()}))
    entry_refs: dict[str, set[str]] = {}
    refcount: dict[str, int] = {}
    for key, record in entries.items():
        refs = {record.digest}
        data = payload_blobs.get(record.digest)
        if data is not None:
            refs |= referenced_digests(data)
        entry_refs[key] = refs
        for digest in refs:
            refcount[digest] = refcount.get(digest, 0) + 1

    # Candidate pricing is batched up front: one blob_size_many round-trip
    # covers every blob the sweep may delete (deletion never transfers the
    # bytes it throws away). Content-addressed blobs never change size, so
    # the prefetch cannot go stale; blobs another writer deletes meanwhile
    # fail their store.delete and are not counted.
    all_digests = store.backend.digests()
    sizes = store.blob_size_many(all_digests)

    def _size_of(digest: str) -> int | None:
        if digest in sizes:
            return sizes[digest]
        return store.blob_size(digest)

    # The index-ref *name list* is cached per phase rather than re-listed
    # per eviction: shard payloads are always re-read (that is the whole
    # point — fresh publishes land in existing shards), but a shard for a
    # brand-new namespace can only appear under a concurrent writer, and
    # concurrent-writer GC requires a grace window (see module doc) that
    # already spares every blob such a writer just stored.
    index_names = index_ref_names(store.backend)

    def _fresh_publish_closure() -> set[str]:
        """Digests reachable from index entries that appeared *after* our
        snapshot — a concurrent publisher's work, which the sweep must
        spare even though the snapshot never heard of it. Walks every
        index shard."""
        fresh: set[str] = set()
        for _key, _ns, digest, _seq in stored_rows(store.backend,
                                                   index_names):
            if refcount.get(digest, 0) == 0 and digest not in fresh:
                fresh.add(digest)
        for digest, data in store.get_many(sorted(fresh)).items():
            fresh |= referenced_digests(data)
        return fresh

    protected = _fresh_publish_closure()
    simulated_deleted: set[str] = set()  # dry-run stand-in for store deletes

    def _note_deletion(namespace: str, digest: str, nbytes: int) -> None:
        report.deleted_blobs += 1
        report.deletions.append({"namespace": namespace, "digest": digest,
                                 "bytes": nbytes})
        agg = report.by_namespace.setdefault(
            namespace, {"entries": 0, "blobs": 0, "bytes": 0})
        agg["blobs"] += 1
        agg["bytes"] += nbytes

    def _delete_if_unreferenced(digest: str, namespace: str) -> None:
        if digest in pinned or digest in protected or _in_grace(digest):
            return
        if refcount.get(digest, 0) != 0 or digest in simulated_deleted:
            return
        nbytes = _size_of(digest)
        if nbytes is None:
            return  # another writer's GC got there first
        if dry_run:
            simulated_deleted.add(digest)
            _note_deletion(namespace, digest, nbytes)
        elif store.delete(digest):
            _note_deletion(namespace, digest, nbytes)

    # Phase 1: orphans — blobs no pin and no entry can reach.
    for digest in all_digests:
        _delete_if_unreferenced(digest, "(orphan)")
    _events.emit("info", "gc orphan phase done",
                 deleted_blobs=report.deleted_blobs,
                 freed_bytes=report.planned_freed_bytes, dry_run=dry_run)

    # Phase 2: TTL expiry — entries past max_age_seconds go oldest-first,
    # before (and independent of) the byte budget. Shares the LRU phase's
    # machinery: evict through the cache's CAS merge, drop refcounts,
    # re-protect concurrent publishes, delete newly-unreferenced blobs.
    expired_keys: set[str] = set()
    if max_age_seconds is not None:
        by_blob_age = sorted(
            ((age_of(record.digest), key, record)
             for key, record in entries.items()),
            key=lambda item: -(item[0] or 0.0))
        for age, key, record in by_blob_age:
            if age is None or age <= max_age_seconds:
                break  # sorted oldest-first: the rest are younger
            if not dry_run and cache.evict(key) is None:
                continue  # raced with a concurrent eviction
            expired_keys.add(key)
            report.expired_entries += 1
            report.expired.append((record.namespace, key))
            report.by_namespace.setdefault(
                record.namespace,
                {"entries": 0, "blobs": 0, "bytes": 0})["entries"] += 1
            for digest in entry_refs[key]:
                refcount[digest] -= 1
            if not dry_run:
                protected |= _fresh_publish_closure()
            for digest in entry_refs[key]:
                _delete_if_unreferenced(digest, record.namespace)
    if max_age_seconds is not None:
        _events.emit("info", "gc ttl phase done",
                     expired_entries=report.expired_entries,
                     max_age_seconds=max_age_seconds, dry_run=dry_run)

    # Phase 3: LRU eviction until the store fits the budget. Once only
    # pinned bytes remain, evicting further entries cannot free anything —
    # stop rather than strip a warm cache for no gain.
    index_names = index_ref_names(store.backend)  # phase boundary refresh
    protected |= _fresh_publish_closure()  # publishes that raced phase 1
    # Bytes eviction cannot free: pinned closures, plus (under a grace
    # window) every blob too young to delete. Stopping at this floor keeps
    # a fully-in-grace store's warm index intact instead of stripping it
    # for zero gain; the entries stay evictable by a later, quieter GC.
    unfreeable = set(pinned)
    if grace_seconds > 0:
        for digest in all_digests:
            if digest not in unfreeable and _in_grace(digest):
                unfreeable.add(digest)
    floor_bytes = sum(_size_of(d) or 0 for d in unfreeable)
    by_age = sorted(((key, record) for key, record in entries.items()
                     if key not in expired_keys),
                    key=lambda item: item[1].seq)

    def _current_bytes() -> int:
        if dry_run:
            return report.before_bytes - report.planned_freed_bytes
        return store.total_bytes

    for key, record in by_age:
        if _current_bytes() <= max(max_bytes, floor_bytes):
            break
        if not dry_run and cache.evict(key) is None:
            continue  # raced with a concurrent eviction
        report.evicted_entries += 1
        report.evicted.append((record.namespace, key))
        report.by_namespace.setdefault(
            record.namespace,
            {"entries": 0, "blobs": 0, "bytes": 0})["entries"] += 1
        # Drop refcounts first, then re-read the live index (evict just
        # rewrote it through the cache's CAS merge, so it includes any
        # concurrent publish) and protect digests it still reaches: a
        # fresh entry sharing a digest with the evicted one must not lose
        # its blob when the snapshot refcount hits zero.
        for digest in entry_refs[key]:
            refcount[digest] -= 1
        if not dry_run:
            protected |= _fresh_publish_closure()
        for digest in entry_refs[key]:
            _delete_if_unreferenced(digest, record.namespace)

    report.after_blobs, report.after_bytes = store.stat()
    _events.emit(
        "info" if report.within_budget else "warn", "gc lru phase done",
        evicted_entries=report.evicted_entries,
        deleted_blobs=report.deleted_blobs,
        freed_bytes=report.freed_bytes,
        after_bytes=report.after_bytes,
        within_budget=report.within_budget, dry_run=dry_run)
    return report
