"""Move a whole artifact store between machines as one archive.

``cache export`` packs every blob and ref of a store into a single
gzip-compressed tar (blobs under ``objects/``, refs under ``refs/``, plus a
small manifest); ``cache import`` merges such an archive into any backend.
Because blobs are content-addressed, import is idempotent and conflict-free
— the only merge logic needed is for the access-ordered index refs, where
the importing side keeps its own newer entries and adopts unseen ones.

Blob movement is batched through the backend's ``get_many``/``has_many``/
``put_many`` (one round-trip per :data:`TRANSFER_BATCH` blobs against a
remote store instead of one per blob). Index and pin merges land through
the backend's ref compare-and-swap, so importing into a store that live
builders are publishing to drops neither their writes nor the archive's.

Index refs are per-namespace shards (``artifact-index/<namespace>``). An
archive carrying a bare ``artifact-index`` ref was written by a
pre-sharding exporter; no reader consults that layout any more, so
importing it would silently lose every entry — it is rejected instead.
"""

from __future__ import annotations

import io
import json
import tarfile

from repro.store.backend import (
    INDEX_REF_PREFIX,
    PINS_REF,
    Backend,
    BackendError,
    BlobNotFound,
    FileBackend,
    cas_merge_ref,
    iter_index_payloads,
)

ARCHIVE_FORMAT = "xaas-store-archive-v1"

#: Blobs per batched backend call during export/import.
TRANSFER_BATCH = 64

#: The one-blob index ref pre-sharding writers kept; nothing reads it.
_PRE_SHARDING_INDEX_REF = INDEX_REF_PREFIX.rstrip("/")


def _add_bytes(tar: tarfile.TarFile, name: str, data: bytes) -> None:
    info = tarfile.TarInfo(name)
    info.size = len(data)
    info.mtime = 0  # deterministic archives: same store -> same bytes
    tar.addfile(info, io.BytesIO(data))


def export_store(backend: Backend, path: str) -> dict:
    """Write every blob and ref of ``backend`` to a tar.gz at ``path``.

    Returns a summary dict (blob/ref counts and byte totals) for CLI
    output.
    """
    blobs = sorted(backend.digests())
    refs = sorted(backend.refs())
    total = 0
    with tarfile.open(path, "w:gz") as tar:
        _add_bytes(tar, "manifest.json", json.dumps({
            "format": ARCHIVE_FORMAT,
            "blobs": len(blobs),
            "refs": refs,
        }, sort_keys=True).encode("utf-8"))
        for start in range(0, len(blobs), TRANSFER_BATCH):
            chunk = blobs[start:start + TRANSFER_BATCH]
            datas = backend.get_many(chunk)
            for digest in chunk:
                data = datas.get(digest)
                if data is None:
                    raise BlobNotFound(digest)
                total += len(data)
                _add_bytes(tar, f"objects/{digest.split(':', 1)[1]}", data)
        for name in refs:
            data = backend.get_ref(name)
            if data is not None:
                # Same escaping as FileBackend: any ref name round-trips,
                # and "a%2fb" can never collide with "a/b" in the archive.
                _add_bytes(tar, f"refs/{FileBackend._escape_ref(name)}", data)
    return {"blobs": len(blobs), "refs": len(refs), "blob_bytes": total,
            "path": path}


def _merge_index(existing: bytes | None, incoming: bytes,
                 floor_seq: int = 0) -> bytes:
    """Union two access-ordered indexes; on key conflict keep the fresher
    record (higher seq), re-basing incoming seqs after
    ``max(local maximum, floor_seq)`` so imported entries do not leapfrog
    locally hot ones. ``floor_seq`` carries the maximum seq observed
    across the destination's *other* index shards — entry recency is
    ordered globally even though persistence is per-namespace."""
    new = json.loads(incoming.decode("utf-8"))
    if existing is None:
        old = {"entries": [], "seq": 0}
    else:
        old = json.loads(existing.decode("utf-8"))
    merged = {key: (ns, digest, seq)
              for key, ns, digest, seq in old.get("entries", ())}
    base = max(int(old.get("seq", 0)), int(floor_seq))
    incoming_entries = sorted(new.get("entries", ()), key=lambda e: e[3])
    seq = base
    for key, ns, digest, _ in incoming_entries:
        if key not in merged:
            seq += 1
            merged[key] = (ns, digest, seq)
    return json.dumps({
        "version": 1,
        "seq": max(seq, base),
        "entries": [[key, ns, digest, s] for key, (ns, digest, s) in merged.items()],
    }, sort_keys=True).encode("utf-8")


def _merge_pins(existing: bytes | None, incoming: bytes) -> bytes:
    """Union two pin sets; an incoming pin wins a name conflict (the
    exporting side published it more recently than we pinned ours)."""
    if existing is None:
        return incoming
    pins = json.loads(existing.decode("utf-8"))
    pins.update(json.loads(incoming.decode("utf-8")))
    return json.dumps(pins, sort_keys=True).encode("utf-8")


def _dest_index_seq_floor(backend: Backend) -> int:
    """The destination's highest index seq across every shard, so
    imported entries enter the LRU order as newest globally, not merely
    within their own namespace's shard."""
    return max((int(blob.get("seq", 0))
                for _name, blob in iter_index_payloads(backend)), default=0)


def import_store(backend: Backend, path: str) -> dict:
    """Merge an exported archive into ``backend``; returns a summary dict.

    Blobs are digest-verified on write (the backend re-hashes), so a
    corrupted archive cannot poison the store. Already-present blobs are
    skipped — counted separately so the summary shows real transfer work.
    Blobs land before refs: an index entry never appears ahead of the blob
    it names. An archive in the pre-sharding index layout is rejected
    with :class:`BackendError` before any ref is written.
    """
    added = skipped = refs_merged = 0
    blob_bytes = 0
    pending: dict[str, bytes] = {}
    index_payloads: dict[str, bytes] = {}  # dest shard ref -> payload
    other_refs: list[tuple[str, bytes]] = []

    def _flush_blobs() -> None:
        nonlocal added, skipped, blob_bytes
        if not pending:
            return
        present = backend.has_many(list(pending))
        to_put = {digest: data for digest, data in pending.items()
                  if not present.get(digest)}
        skipped += len(pending) - len(to_put)
        if to_put:
            backend.put_many(to_put)
            added += len(to_put)
            blob_bytes += sum(len(data) for data in to_put.values())
        pending.clear()

    with tarfile.open(path, "r:gz") as tar:
        for member in tar:
            if not member.isfile():
                continue
            fh = tar.extractfile(member)
            if fh is None:  # pragma: no cover - isfile() guarantees a reader
                continue
            data = fh.read()
            if member.name.startswith("objects/"):
                digest = "sha256:" + member.name[len("objects/"):]
                pending[digest] = data
                if len(pending) >= TRANSFER_BATCH:
                    _flush_blobs()
            elif member.name.startswith("refs/"):
                name = FileBackend._unescape_ref(member.name[len("refs/"):])
                if name == _PRE_SHARDING_INDEX_REF:
                    raise BackendError(
                        f"{path}: archive carries a bare {name!r} ref — the "
                        f"unsupported pre-sharding index layout (the index "
                        f"now lives in per-namespace {INDEX_REF_PREFIX}* "
                        f"refs); re-export it from a current store")
                if name.startswith(INDEX_REF_PREFIX):
                    index_payloads[name] = data
                else:
                    other_refs.append((name, data))
    _flush_blobs()
    # Index and pin merges retry against concurrent writers — import must
    # not last-writer-wins a live builder's index entry or pin any more
    # than the cache layer may.
    floor = _dest_index_seq_floor(backend)
    for name, data in sorted(index_payloads.items()):
        cas_merge_ref(backend, name, lambda existing:
                      _merge_index(existing, data, floor_seq=floor))
        refs_merged += 1
    for name, data in other_refs:
        if name == PINS_REF:
            cas_merge_ref(backend, name,
                          lambda existing: _merge_pins(existing, data))
        else:
            backend.set_ref(name, data)
        refs_merged += 1
    return {"blobs_added": added, "blobs_skipped": skipped,
            "refs_merged": refs_merged, "blob_bytes": blob_bytes, "path": path}
