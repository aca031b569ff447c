"""Persistent shared artifact-store subsystem.

The paper's deployment story (Sec. 5.2) rests on content-addressed,
immutable artifacts; PR 1's :class:`~repro.containers.store.ArtifactCache`
keys preprocess/IR/lowered artifacts by input digests but lives and dies
with one process. This package supplies the missing persistence layer:

* :class:`~repro.store.backend.Backend` — the base class of every store:
  content-addressed blobs (``put``/``get``/``has``/``delete``) plus
  mutable named *refs* (git-style pointers). A subclass writes those
  primitives and inherits the batched, metadata and streaming operations.
* :class:`~repro.store.backend.MemoryBackend` — in-process dict
  semantics.
* :class:`~repro.store.backend.FileBackend` — blobs persisted under a
  sharded ``objects/ab/cdef...`` directory layout with atomic writes, so
  CI runs and fleet builders warm-start from disk.
* :class:`~repro.store.remote.RemoteBackend` /
  :class:`~repro.store.async_server.AsyncStoreServer` — a small
  push/pull/has wire protocol over a local socket, letting two processes
  share one store. The server is the store's command table on
  :class:`~repro.store.wire_server.WireServer`, the one ``selectors``
  event loop (hundreds of pooled sessions on one thread, streamed blob
  bodies, write-side backpressure) the build-farm coordinator runs on
  too; the client rides :class:`~repro.store.wire.SessionPool`.
* :class:`~repro.store.tiered.TieredBackend` — a fast local tier in
  front of a shared upstream: read-through promotion, single-flight miss
  de-duplication, batched write-back flush, refs always upstream — the
  ccache/sccache local-cache-per-builder topology.
* :class:`~repro.store.index.ArtifactIndex` — the cache's access-ordered
  key index and the pin set: :mod:`repro.store.index` alone names their
  refs, reads and writes their stored form and merges concurrent writers.
* :func:`~repro.store.gc.collect` — size accounting and LRU garbage
  collection over that index, honouring pinned manifests.
* :func:`~repro.store.transfer.export_store` /
  :func:`~repro.store.transfer.import_store` — move a whole store between
  machines as one archive; importing publishes through the index.

`repro.containers.store` layers :class:`BlobStore`/:class:`ArtifactCache`
on top of these backends without changing their call sites.
"""

from repro.store.backend import (
    Backend,
    BackendError,
    BlobNotFound,
    FileBackend,
    MemoryBackend,
)
from repro.store.index import (
    INDEX_REF_PREFIX,
    PINS_REF,
    ArtifactIndex,
    index_ref_name,
    index_ref_names,
)
from repro.store.async_server import AsyncStoreServer
from repro.store.gc import GCReport, collect
from repro.store.remote import (RemoteBackend, RemoteStoreError,
                                StoreUnavailable)
from repro.store.tiered import TierDegraded, TieredBackend
from repro.store.transfer import export_store, import_store
from repro.store.wire import SessionPool, WireSession

__all__ = [
    "Backend", "BackendError", "BlobNotFound", "FileBackend", "MemoryBackend",
    "INDEX_REF_PREFIX", "PINS_REF",
    "ArtifactIndex", "index_ref_name", "index_ref_names",
    "GCReport", "collect",
    "AsyncStoreServer", "RemoteBackend", "RemoteStoreError",
    "StoreUnavailable",
    "TierDegraded", "TieredBackend",
    "SessionPool", "WireSession",
    "export_store", "import_store",
]
