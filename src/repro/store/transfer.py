"""Move a whole artifact store between machines as one archive.

``cache export`` packs every blob and ref of a store into a single
gzip-compressed tar (blobs under ``objects/``, refs under ``refs/``, plus a
small manifest); ``cache import`` merges such an archive into any backend.
Because blobs are content-addressed, import is idempotent and conflict-free
— and the archive's index entries need no merge logic of their own: import
*publishes* the ones the destination has not seen through a
:class:`repro.store.index.ArtifactIndex`, exactly as a builder would, so
the importing side keeps its own entries and adopts unseen ones as its
newest.

Blob movement is batched through the backend's ``get_many``/``has_many``/
``put_many`` (one round-trip per :data:`TRANSFER_BATCH` blobs against a
remote store instead of one per blob). The index publish and the pin
union land through the index's CAS merge, so importing into a store that
live builders are publishing to drops neither their writes nor the
archive's.

Index refs are per-namespace shards (``artifact-index/<namespace>``). An
archive carrying a bare ``artifact-index`` ref was written by a
pre-sharding exporter; no reader consults that layout any more, so
importing it would silently lose every entry — it is rejected instead.
"""

from __future__ import annotations

import io
import json
import tarfile

from repro.store.backend import (Backend, BackendError, BlobNotFound,
                                 FileBackend)
from repro.store.index import (INDEX_REF_PREFIX, PINS_REF,
                               PRE_SHARDING_INDEX_REF, ArtifactIndex,
                               parse_shard)

ARCHIVE_FORMAT = "xaas-store-archive-v1"

#: Blobs per batched backend call during export/import.
TRANSFER_BATCH = 64


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
    index_shards: list[bytes] = []
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
                if name == PRE_SHARDING_INDEX_REF:
                    raise BackendError(
                        f"{path}: archive carries a bare {name!r} ref — the "
                        f"unsupported pre-sharding index layout (the index "
                        f"now lives in per-namespace {INDEX_REF_PREFIX}* "
                        f"refs); re-export it from a current store")
                if name.startswith(INDEX_REF_PREFIX):
                    index_shards.append(data)
                else:
                    other_refs.append((name, data))
    _flush_blobs()
    # The archive's entries are published like any builder's: unseen keys
    # only, in the archive's own access order, stamped above every seq the
    # destination has seen on any shard (load) — they enter its LRU order
    # as newest without leapfrogging each other. The save is the CAS
    # merge, so import no more last-writer-wins a live builder's entry or
    # pin than the cache may.
    index = ArtifactIndex(backend)
    index.load()
    rows = [row for data in index_shards for row in parse_shard(data)[1]]
    for key, namespace, digest, _seq in sorted(rows, key=lambda row: row[3]):
        if index.get(key) is None:
            index.set(key, namespace, digest)
    index.save()
    refs_merged += len(index_shards)
    for name, data in other_refs:
        if name == PINS_REF:
            index.adopt_pins(data)
        else:
            backend.set_ref(name, data)
        refs_merged += 1
    return {"blobs_added": added, "blobs_skipped": skipped,
            "refs_merged": refs_merged, "blob_bytes": blob_bytes, "path": path}
