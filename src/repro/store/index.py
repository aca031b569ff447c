"""The artifact index — the one module that knows its stored format.

An :class:`~repro.containers.store.ArtifactCache` resolves a cache key to
the blob holding its payload through an *index*: ``key -> (namespace,
digest, seq)``, where ``seq`` is the access sequence number LRU eviction
orders by. On a backend the index is **sharded per namespace**, one ref
each at ``artifact-index/<namespace>`` holding, big-endian::

    header   b"XIDX", format version (u32), seq (u64)       16 B
    row      raw key digest, raw payload digest, seq (u64)  72 B each

rows sorted by key; the ref name is the namespace. Any other payload (a
JSON shard an earlier writer left, a truncated one) reads as empty: what
it listed is a cache miss, never an error.

Sharding is what keeps a busy farm off one hot ref: a worker publishing
``lower`` artifacts and one publishing ``preprocess`` CAS entirely
different refs (zero cross-namespace retries). A save costs O(its
namespace), in bytes and in work: one ref read, a merge only when the
shard holds another writer's change — a handle remembers the bytes it
last read or rendered per namespace, and re-reading exactly those merges
nothing — and a render of that namespace's rows alone. The pin set
(blobs exempt from garbage collection, with everything they reference)
is one more ref, :data:`PINS_REF`.

Everything that reads or writes those refs goes through this module:
:func:`parse_shard` / :func:`render_shard` are the only code that
interprets the payload, and :class:`ArtifactIndex` is the only writer.
The cache publishes and looks up through one, garbage collection evicts
through the cache's, and an archive import
(:func:`repro.store.transfer.import_store`) is a publish of the archive's
unseen rows through a fresh one.

Persistence is **multi-writer safe**: every rewrite goes through
:func:`repro.store.backend.cas_merge_ref`, which re-reads the current
ref, merges the other writer's entries and access-order updates into
ours, and retries if the swap is beaten. Two builders racing on one
``FileBackend`` or store server converge on the union of their
publishes, recency bumps, and pins — never last-writer-wins. Keys a
handle evicted are tracked as tombstone *records* (digest + seq), so a
merge can tell the stale entry it removed apart from a fresh republish
by another writer: the former stays dead, the latter is adopted.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.store.backend import Backend, cas_merge_ref
from repro.telemetry import events as _events
from repro.telemetry.registry import MetricsRegistry
from repro.util.hashing import canonical_json, is_digest

#: One access-ordered ref per namespace at ``artifact-index/<namespace>``.
INDEX_REF_PREFIX = "artifact-index/"
#: The one-blob index ref pre-sharding writers kept; nothing reads it.
PRE_SHARDING_INDEX_REF = INDEX_REF_PREFIX.rstrip("/")
#: Ref holding the pin set: pinned blobs survive any garbage collection.
PINS_REF = "pins"

#: A shard's header (magic, format version, seq) and one row (raw key
#: digest, raw payload digest, seq), big-endian.
_HEADER = struct.Struct(">4sIQ")
_ROW = struct.Struct(">32s32sQ")
_MAGIC, _VERSION = b"XIDX", 2


def index_ref_name(namespace: str) -> str:
    """The ref holding one namespace's index shard."""
    return INDEX_REF_PREFIX + namespace


def index_ref_names(backend: Backend) -> list[str]:
    """Every index shard ref present on ``backend``, sorted. Any other
    ref — including a bare ``artifact-index`` left by a pre-sharding
    writer — is not an index; the entries it listed are cache misses,
    which is always correct."""
    return sorted(name for name in backend.refs()
                  if name.startswith(INDEX_REF_PREFIX))


def parse_shard(raw: bytes | None, namespace: str) -> tuple[int, list[list]]:
    """``(seq, rows)`` of one stored shard of ``namespace``, each row
    ``[key, namespace, digest, seq]``; an absent ref, or one not in the
    shard format, is empty."""
    if raw is None or (len(raw) - _HEADER.size) % _ROW.size:
        return 0, []  # shorter than a header too: % is never negative
    magic, version, seq = _HEADER.unpack_from(raw)
    if (magic, version) != (_MAGIC, _VERSION):
        return 0, []
    return seq, [["sha256:" + key.hex(), namespace, "sha256:" + digest.hex(), n]
                 for key, digest, n in _ROW.iter_unpack(raw[_HEADER.size:])]


def render_shard(seq: int, rows: list[list]) -> bytes:
    """The stored form of one shard: ``rows`` as :func:`parse_shard`
    returns them, sorted by key, their namespace left to the ref name."""
    return _HEADER.pack(_MAGIC, _VERSION, seq) + bytes.fromhex("".join([
        f"{key[-64:]}{digest[-64:]}{row_seq:016x}"
        for key, _ns, digest, row_seq in rows]))


def stored_rows(backend: Backend,
                names: list[str] | None = None) -> Iterator[list]:
    """Every row the backend holds right now, across all shards — read
    without a handle, so nothing is merged or adopted. ``names``
    short-circuits the ref listing when the caller already holds (and is
    entitled to reuse) one."""
    for name in (index_ref_names(backend) if names is None else names):
        yield from parse_shard(backend.get_ref(name),
                               name[len(INDEX_REF_PREFIX):])[1]


@dataclass
class IndexEntry:
    """One index record: which blob a cache key resolves to, its namespace,
    and the access sequence number LRU eviction orders by."""

    namespace: str
    digest: str
    seq: int


class ArtifactIndex:
    """One handle's view of the index on ``backend``, and its persistence.

    Holds the table (``key -> IndexEntry``), the sequence counter, the
    keys modified since their shard was last saved, and the tombstones of
    keys this handle evicted. Not thread-safe: the owner (the cache, under
    its lock) serializes every call. ``on_drop(key)`` is told when a merge
    drops or re-points a key, so the owner can forget what it keeps beside it.
    """

    def __init__(self, backend: Backend,
                 registry: MetricsRegistry | None = None,
                 on_drop: Callable[[str], None] = lambda key: None):
        self.backend = backend
        self.seq = 0
        self._entries: dict[str, IndexEntry] = {}
        # The same keys by namespace: a shard's merge and render see
        # only its own, never the whole table.
        self._keys: dict[str, set[str]] = {}
        # Per namespace, the shard bytes this handle last read or
        # rendered: re-reading exactly those, nobody else's change can
        # be in them.
        self._seen: dict[str, bytes] = {}
        #: Keys modified locally since their shard was last saved.
        self.dirty: set[str] = set()
        # Namespaces whose shard must be rewritten even without a dirty
        # key in it — evictions leave nothing behind *but* the rewrite.
        self._dirty_namespaces: set[str] = set()
        # Tombstone records for keys we evicted: digest+seq let a merge
        # tell "the stale entry we removed" from "a fresh republish".
        self._evicted: dict[str, IndexEntry] = {}
        # Keys set since their shard's last save -> the digest each
        # replaced, which the shard may still list.
        self._replaced: dict[str, str] = {}
        self._on_drop = on_drop
        registry = registry if registry is not None else MetricsRegistry()
        self._cas_retries = registry.counter("cache.index_cas_retries")
        self._pin_cas_retries = registry.counter("cache.pin_cas_retries")

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

    # -- the table ---------------------------------------------------------------

    def _next_seq(self) -> int:
        self.seq += 1
        return self.seq

    def _put(self, key: str, entry: IndexEntry) -> None:
        self._drop(key)
        self._entries[key] = entry
        self._keys.setdefault(entry.namespace, set()).add(key)

    def _drop(self, key: str) -> IndexEntry | None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._keys[entry.namespace].discard(key)
        return entry

    def get(self, key: str) -> IndexEntry | None:
        return self._entries.get(key)

    def __len__(self) -> int:
        return len(self._entries)

    def rows(self) -> dict[str, IndexEntry]:
        """Snapshot of the table (key -> record copy)."""
        return {key: IndexEntry(e.namespace, e.digest, e.seq)
                for key, e in self._entries.items()}

    def set(self, key: str, namespace: str, digest: str) -> None:
        """Point ``key`` at ``digest`` as the newest entry and mark it
        dirty for the next save; both are digests, or ``ValueError``."""
        if not (is_digest(key) and is_digest(digest)):
            raise ValueError(f"not a digest: {key!r} -> {digest!r}")
        # A republish of a key we once evicted is a fresh entry; the
        # tombstone must not swallow it at the next merge. Until the save,
        # though, the shard may still list the record this replaces —
        # live or evicted — and an eviction before then must tombstone it.
        old = self._evicted.pop(key, None) or self._entries.get(key)
        if old is not None:
            self._replaced.setdefault(key, old.digest)
        self._put(key, IndexEntry(namespace, digest, self._next_seq()))
        self.dirty.add(key)

    def touch(self, key: str) -> None:
        """Refresh ``key``'s position in the LRU order; persisted with
        its shard's next save rather than per lookup."""
        self._entries[key].seq = self._next_seq()
        self.dirty.add(key)

    def evict(self, key: str) -> IndexEntry | None:
        """Drop one entry; returns the removed record. The shard is
        rewritten by the next :meth:`save`."""
        record = self._drop(key)
        self.dirty.discard(key)
        if record is not None:
            # Tombstone what the shard lists (the digest an unsaved set
            # replaced, else the evicted one): the merge keeps it dead but
            # adopts a fresh republish (new digest or later seq).
            self._evicted[key] = IndexEntry(
                record.namespace, self._replaced.pop(key, record.digest),
                record.seq)
            # The key's shard must be rewritten even though no dirty key
            # remains in that namespace.
            self._dirty_namespaces.add(record.namespace)
        return record

    # -- persistence -------------------------------------------------------------

    def load(self) -> None:
        """Adopt whatever index state the backend holds: each namespace
        shard is merged with authority over its own namespace."""
        for name in index_ref_names(self.backend):
            self.merge(self.backend.get_ref(name),
                       name[len(INDEX_REF_PREFIX):])

    def sync(self) -> None:
        """Save what is dirty, then adopt what other writers saved."""
        self.save()
        self.load()

    def merge(self, raw: bytes | None, namespace: str) -> None:
        """Reconcile the table with ``raw`` (the bytes another writer last
        persisted to ``namespace``'s shard).

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

        ``raw`` equal to the bytes this handle last read or rendered there
        holds nothing to reconcile — every change since is ours, dirty or
        tombstoned — and is not parsed.
        """
        if raw is None or raw == self._seen.get(namespace):
            return
        self._seen[namespace] = raw
        shard_seq, rows = parse_shard(raw, namespace)
        self.seq = max(self.seq, shard_seq)
        backend_keys: set[str] = set()
        for key, ns, digest, seq in rows:
            tomb = self._evicted.get(key)
            if tomb is not None:
                if digest == tomb.digest and seq <= tomb.seq:
                    continue  # the entry we evicted; keep it dead
                del self._evicted[key]  # fresh republish elsewhere
            backend_keys.add(key)
            mine = self._entries.get(key)
            if mine is None:
                self._put(key, IndexEntry(ns, digest, seq))
            elif key in self.dirty:
                mine.seq = max(mine.seq, seq)
            elif seq >= mine.seq:
                if digest != mine.digest:
                    self._on_drop(key)  # what we kept beside it is stale
                self._put(key, IndexEntry(ns, digest, seq))
        # The shard has authority over its own namespace only.
        mine_here = self._keys.get(namespace, set())
        for key in mine_here - backend_keys - self.dirty:
            self._drop(key)
            self._on_drop(key)

    def save(self) -> None:
        """Persist the locally-modified shards: only namespaces with
        local changes (dirty keys, evictions) are rewritten, each through
        its own CAS retry-merge loop — writers in different namespaces
        touch different refs and never conflict. A save costs
        O(namespace): one ref read, a merge only when another writer
        changed the shard since this handle last read or rendered it, and
        a render of that namespace's rows alone."""
        dirty = {self._entries[key].namespace
                 for key in self.dirty if key in self._entries}
        dirty |= self._dirty_namespaces
        for namespace in sorted(dirty):
            self._save_shard(namespace)
        self._dirty_namespaces.clear()

    def _save_shard(self, namespace: str) -> None:
        """Rewrite one namespace's shard through the CAS read-merge-retry
        loop: each attempt merges the other writer's state into ours and
        swaps the union back, so both racing writers' entries and
        access-order updates survive."""
        ref_name = index_ref_name(namespace)
        dirty_here: list[str] = []

        def merge(raw: bytes | None) -> bytes:
            nonlocal dirty_here
            self.merge(raw, namespace)
            # Re-stamp the keys we modified *after* the merge raised seq
            # past everything the index has seen: a publish made by a
            # handle whose local counter lagged would otherwise carry a
            # seq below an old tombstone's and be mistaken for the stale
            # entry that tombstone killed. Re-stamping in current-seq
            # order keeps the keys' relative access order intact (they
            # were all just touched, so above-the-index is honest LRU).
            keys = self._keys.get(namespace, set())
            dirty_here = [key for key in self.dirty if key in keys]
            for key in sorted(dirty_here,
                              key=lambda k: self._entries[k].seq):
                self._entries[key].seq = self._next_seq()
            # Bytes rendered from the table hold nothing it lacks, landed
            # or not: a later read of exactly these is nothing to merge.
            self._seen[namespace] = render_shard(self.seq, [
                [key, namespace, self._entries[key].digest,
                 self._entries[key].seq] for key in sorted(keys)])
            return self._seen[namespace]

        def on_retry() -> None:
            self._cas_retries.inc()
            _events.emit("info", "index CAS retry", ref=ref_name,
                         retries=self._cas_retries.value)

        cas_merge_ref(self.backend, ref_name, merge, on_retry)
        self.dirty.difference_update(dirty_here)
        for key in dirty_here:
            self._replaced.pop(key, None)

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
        self._update_pins(lambda pins: pins.update({name: digest}))

    def unpin(self, name: str) -> bool:
        return self._update_pins(
            lambda pins: pins.pop(name, None) is not None)

    def _update_pins(self, mutate) -> bool:
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
            return canonical_json(pins).encode("utf-8")

        def on_retry() -> None:
            self._pin_cas_retries.inc()
            _events.emit("info", "pin CAS retry",
                         retries=self._pin_cas_retries.value)

        return cas_merge_ref(self.backend, PINS_REF, merge, on_retry)

    def adopt_pins(self, raw: bytes) -> None:
        """Union a stored pin set (an archive's) into the backend's; an
        incoming pin wins a name conflict — the exporting side published
        it more recently than we pinned ours."""
        self._update_pins(
            lambda pins: pins.update(json.loads(raw.decode("utf-8"))))

    def pins(self) -> dict[str, str]:
        raw = self.backend.get_ref(PINS_REF)
        return {} if raw is None else json.loads(raw.decode("utf-8"))
