"""Blob-store backends: the :class:`Backend` base class and its local
implementations.

A backend stores two kinds of state, mirroring git's object model:

* **blobs** — immutable bytes addressed by their ``sha256:<hex>`` digest.
  The caller supplies the digest (computed by
  :func:`repro.util.hashing.content_digest`); backends verify it on write
  so a corrupted transfer can never poison a store.
* **refs** — small mutable named blobs (the cache's access-ordered index,
  the pin set). Refs are the only mutable state in a store; everything
  else is content-addressed and therefore immutable by construction, the
  property the paper's Sec. 5.2 deployment model leans on.

Because refs are mutable and shared, they are also where concurrent
writers can trample each other. Every backend therefore implements
:meth:`Backend.compare_and_set_ref` — an atomic compare-and-swap that
succeeds only if the ref still holds the bytes the caller last read —
and the one layer that rewrites shared refs
(:class:`repro.store.index.ArtifactIndex`, which owns what the index and
pin refs are called and hold) does it through the one read-merge-retry
loop, :func:`cas_merge_ref`, instead of blind ``set_ref`` overwrites.

Backends are thread-safe: the pipeline's parallel map publishes artifacts
concurrently, and the socket server serves several clients at once.
:class:`FileBackend` is additionally *process*-safe: blob writes are
atomic renames, and ref CAS is serialized through per-ref lock files.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import threading
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

from repro.util.hashing import content_digest, is_digest

try:  # POSIX: advisory file locks make ref CAS cheap and crash-safe.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback below
    fcntl = None  # type: ignore[assignment]


class BackendError(RuntimeError):
    pass


class BlobNotFound(KeyError):
    pass


class Backend(ABC):
    """The base class of every blob store.

    A new backend writes the **primitives** — single-blob
    ``put``/``get``/``has``/``delete``, enumeration (``digests``,
    ``__len__``, ``total_bytes``), the ref operations including the
    atomic :meth:`compare_and_set_ref`, and the ``persistent`` flag — and
    inherits every **derived** operation below, each written once over
    those primitives. A subclass overrides a derived operation only where
    it has a genuinely faster native path (``FileBackend.put_many``: one
    lock and one stamp for the batch; ``RemoteBackend``: one round-trip
    per batch). Callers call methods; nothing probes for them.
    """

    #: True when blobs outlive the creating process (file/remote stores).
    persistent: bool

    # -- primitives --------------------------------------------------------------

    @abstractmethod
    def put(self, digest: str, data: bytes) -> None:
        """Store ``data`` under ``digest``, verifying that it hashes to it."""

    @abstractmethod
    def get(self, digest: str) -> bytes:
        """The blob's bytes; :class:`BlobNotFound` when absent."""

    @abstractmethod
    def has(self, digest: str) -> bool: ...

    @abstractmethod
    def delete(self, digest: str) -> bool:
        """Remove one blob; True if it existed."""

    @abstractmethod
    def digests(self) -> list[str]: ...

    @abstractmethod
    def __len__(self) -> int: ...

    @property
    @abstractmethod
    def total_bytes(self) -> int: ...

    @abstractmethod
    def set_ref(self, name: str, data: bytes) -> None: ...

    @abstractmethod
    def get_ref(self, name: str) -> bytes | None: ...

    @abstractmethod
    def delete_ref(self, name: str) -> bool: ...

    @abstractmethod
    def refs(self) -> list[str]: ...

    @abstractmethod
    def compare_and_set_ref(self, name: str, expected: bytes | None,
                            data: bytes) -> bool:
        """Atomically set ``name`` to ``data`` iff it currently holds
        ``expected`` (``None`` meaning "does not exist"). Returns True on
        success, False if another writer got there first."""

    # -- derived: batched operations ---------------------------------------------
    # Hot-path amortization: a farm worker probing or transferring many
    # blobs should pay one round-trip, not N.

    def put_many(self, blobs: dict[str, bytes]) -> None:
        for digest, data in blobs.items():
            self.put(digest, data)

    def get_many(self, digests: Iterable[str]) -> dict[str, bytes]:
        """Fetch many blobs; missing digests are simply absent from the
        result (batched callers tolerate holes, per-blob callers use
        :meth:`get` and its exception)."""
        out: dict[str, bytes] = {}
        for digest in digests:
            try:
                out[digest] = self.get(digest)
            except BlobNotFound:
                continue
        return out

    def has_many(self, digests: Iterable[str]) -> dict[str, bool]:
        return {digest: self.has(digest) for digest in digests}

    # -- derived: metadata -------------------------------------------------------

    def blob_size(self, digest: str) -> int | None:
        """Byte size of one blob, None if absent. Backends with metadata
        (a file stat, a remote size op) answer without reading content."""
        try:
            return len(self.get(digest))
        except BlobNotFound:
            return None

    def blob_size_many(self, digests: Iterable[str]) -> "dict[str, int | None]":
        return {digest: self.blob_size(digest) for digest in digests}

    def blob_age_seconds(self, digest: str) -> float | None:
        """Seconds since the blob was stored; None when absent *or when
        the backend keeps no age data* — GC reads None as "assume young,
        never delete", so a backend without a clock expires nothing."""
        return None

    def stat(self) -> tuple[int, int]:
        """``(blob_count, total_bytes)`` in one operation — callers that
        need both (``cache stats``, GC reports) must not pay two
        round-trips or two counter syncs."""
        return len(self), self.total_bytes

    # -- derived: streaming blob I/O ---------------------------------------------
    # The wire layer moves multi-MB bodies as bounded chunks; these let a
    # server feed those chunks into (and out of) a backend. FileBackend
    # overrides both (incremental hash into a temp file; the object file
    # itself), staying O(chunk)-resident; the defaults buffer.

    def open_blob_writer(self, digest: str):
        """A chunk sink (``write``/``commit``/``abort``) that stores
        ``digest`` on commit."""
        return BufferedBlobWriter(self, digest)

    def open_blob(self, digest: str):
        """A readable binary file over the blob, for chunked reads."""
        return io.BytesIO(self.get(digest))


#: CAS retry ceiling. Each failed attempt means another writer succeeded
#: (the swap is lock-free), so hitting this means the backend is lying
#: about CAS semantics, not that the store is busy.
CAS_ATTEMPTS = 100


def cas_merge_ref(backend: Backend, name: str,
                  merge: "Callable[[bytes | None], bytes | None]",
                  on_retry: "Callable[[], None] | None" = None) -> bool:
    """Land ``merge(current)`` on ref ``name`` through the one
    read-merge-retry loop every shared ref is rewritten by.

    Each attempt re-reads the ref, hands its bytes (None when absent) to
    ``merge`` and compare-and-swaps the result back; a lost swap means
    another writer published in between, so ``on_retry`` is told and the
    loop re-reads — both writers' state survives, which a blind
    ``set_ref`` could never guarantee. ``merge`` returning None abandons
    the update (returns False); returning the bytes already there is a
    no-op that skips the swap. A module function rather than a method so
    a proxy over a backend still sees the ``get_ref`` and
    ``compare_and_set_ref`` calls.
    """
    for _ in range(CAS_ATTEMPTS):
        raw = backend.get_ref(name)
        payload = merge(raw)
        if payload is None:
            return False
        if raw == payload or backend.compare_and_set_ref(name, raw, payload):
            return True
        if on_retry is not None:
            on_retry()
    raise BackendError(
        f"ref {name!r} CAS did not converge after {CAS_ATTEMPTS} attempts")


class BufferedBlobWriter:
    """The default incremental writer: chunks accumulate in memory and
    land via one :meth:`Backend.put` on commit. Peak residency is O(blob)
    — exactly what a memory-backed store costs anyway."""

    buffered = True

    def __init__(self, backend, digest: str):
        if not is_digest(digest):
            raise ValueError(f"malformed digest {digest!r}")
        self.digest = digest
        self._backend = backend
        self._buf = bytearray()
        self.bytes_written = 0

    def write(self, chunk) -> None:
        self._buf += chunk
        self.bytes_written += len(chunk)

    def commit(self) -> None:
        data = bytes(self._buf)
        self._buf = bytearray()
        self._backend.put(self.digest, data)

    def abort(self) -> None:
        self._buf = bytearray()


class _FileBlobWriter:
    """Incremental put for :class:`FileBackend`: chunks stream into a
    temp file in the target shard directory and through a running sha256;
    commit verifies the digest and renames into place under the backend's
    mutation lock. Peak memory is one chunk, whatever the blob size."""

    buffered = False

    def __init__(self, backend: "FileBackend", digest: str):
        if not is_digest(digest):
            raise ValueError(f"malformed digest {digest!r}")
        self.digest = digest
        self._backend = backend
        path = backend._blob_path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, self._tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                         prefix=".tmp-")
        self._fh = os.fdopen(fd, "wb")
        self._hash = hashlib.sha256()
        self.bytes_written = 0

    def write(self, chunk) -> None:
        self._hash.update(chunk)
        self._fh.write(chunk)
        self.bytes_written += len(chunk)

    def commit(self) -> None:
        self._fh.close()
        actual = "sha256:" + self._hash.hexdigest()
        if actual != self.digest:
            self.abort()
            raise BackendError(f"integrity failure: blob addressed "
                               f"{self.digest} hashes to {actual}")
        self._backend._commit_blob_file(self.digest, self._tmp,
                                        self.bytes_written)

    def abort(self) -> None:
        try:
            self._fh.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        try:
            os.unlink(self._tmp)
        except OSError:
            pass


def _check_digest(digest: str, data: bytes) -> None:
    if not is_digest(digest):
        raise ValueError(f"malformed digest {digest!r}")
    actual = content_digest(data)
    if actual != digest:
        raise BackendError(
            f"integrity failure: blob addressed {digest} hashes to {actual}")


class MemoryBackend(Backend):
    """Plain in-process dict semantics — what :class:`BlobStore` always was.

    ``total_bytes`` is maintained incrementally (a counter updated on
    put/delete) rather than summed on demand, so size accounting stays O(1)
    however large the store grows.
    """

    persistent = False

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}
        self._refs: dict[str, bytes] = {}
        self._created: dict[str, float] = {}
        self._total = 0
        self._lock = threading.Lock()

    def put(self, digest: str, data: bytes) -> None:
        _check_digest(digest, data)
        with self._lock:
            if digest not in self._blobs:
                self._blobs[digest] = data
                self._created[digest] = time.time()
                self._total += len(data)

    def get(self, digest: str) -> bytes:
        try:
            return self._blobs[digest]
        except KeyError:
            raise BlobNotFound(digest) from None

    def has(self, digest: str) -> bool:
        return digest in self._blobs

    def delete(self, digest: str) -> bool:
        with self._lock:
            data = self._blobs.pop(digest, None)
            if data is None:
                return False
            self._created.pop(digest, None)
            self._total -= len(data)
            return True

    def blob_age_seconds(self, digest: str) -> float | None:
        """Seconds since the blob was stored; None if absent. GC's grace
        window uses this to spare blobs a racing publisher just wrote."""
        created = self._created.get(digest)
        if created is None:
            return None
        return max(0.0, time.time() - created)

    def digests(self) -> list[str]:
        return list(self._blobs)

    def __len__(self) -> int:
        return len(self._blobs)

    @property
    def total_bytes(self) -> int:
        return self._total

    def stat(self) -> tuple[int, int]:
        with self._lock:
            return len(self._blobs), self._total

    def set_ref(self, name: str, data: bytes) -> None:
        with self._lock:
            self._refs[name] = data

    def get_ref(self, name: str) -> bytes | None:
        return self._refs.get(name)

    def delete_ref(self, name: str) -> bool:
        with self._lock:
            return self._refs.pop(name, None) is not None

    def refs(self) -> list[str]:
        return list(self._refs)

    def compare_and_set_ref(self, name: str, expected: bytes | None,
                            data: bytes) -> bool:
        with self._lock:
            if self._refs.get(name) != expected:
                return False
            self._refs[name] = data
            return True


class FileBackend(Backend):
    """Blobs persisted on disk under a sharded ``objects/`` layout.

    Layout (the registry/git convention — two-hex-char fan-out keeps any
    single directory small)::

        <root>/objects/ab/cdef0123...   # blob, named by its digest hex
        <root>/objects/.stamp           # mutation stamp (drift detection)
        <root>/refs/<name>              # mutable refs (percent-escaped)
        <root>/locks/<name>.lock        # per-ref CAS lock files

    Writes are atomic: bytes land in a temp file in the same directory and
    are ``os.replace``d into place, so a concurrent reader (or a crashed
    writer) can never observe a half-written blob. Because blobs are
    content-addressed, concurrent writers racing on one digest are writing
    identical bytes — last rename wins and nothing is lost.

    Refs are the mutable exception, so ref mutation (``set_ref``,
    ``delete_ref``, ``compare_and_set_ref``) additionally serializes
    through a per-ref lock file, making CAS linearizable across
    *processes* sharing one store directory, not just across threads.

    Two handles on one directory also drift on size accounting: each
    successful blob put/delete rewrites ``objects/.stamp`` with a fresh
    token, and ``total_bytes``/``__len__`` recount from disk whenever the
    stamp no longer matches the last one this handle observed — so
    ``cache stats`` and GC budgets stay trustworthy with a second writer.
    """

    persistent = True

    #: How long to wait for a ref lock before declaring the store wedged.
    LOCK_TIMEOUT = 30.0

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = os.fspath(root)
        self._objects = os.path.join(self.root, "objects")
        self._refs_dir = os.path.join(self.root, "refs")
        self._locks_dir = os.path.join(self.root, "locks")
        os.makedirs(self._objects, exist_ok=True)
        os.makedirs(self._refs_dir, exist_ok=True)
        os.makedirs(self._locks_dir, exist_ok=True)
        self._stamp_path = os.path.join(self._objects, ".stamp")
        # Escaped ref names never start with '.', so this can't collide
        # with any ref's lock file.
        self._mutation_lock_path = os.path.join(self._locks_dir,
                                                ".blob-mutation.lock")
        self._lock = threading.Lock()
        self._total = 0
        self._count = 0
        self._stamp = b""
        self._adopt_stamp_locked(self._read_stamp())

    # -- blobs -----------------------------------------------------------------

    def _blob_path(self, digest: str) -> str:
        if not is_digest(digest):
            raise BlobNotFound(digest)
        hexpart = digest.split(":", 1)[1]
        return os.path.join(self._objects, hexpart[:2], hexpart[2:])

    def _iter_blob_paths(self) -> Iterable[str]:
        for shard in sorted(os.listdir(self._objects)):
            shard_dir = os.path.join(self._objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                # A crashed writer can leave a .tmp-* behind; it is not a
                # blob and must not pollute counts, digests() or exports.
                if name.startswith(".tmp-"):
                    continue
                yield os.path.join(shard_dir, name)

    @staticmethod
    def _atomic_write(path: str, data: bytes) -> None:
        dirname = os.path.dirname(path)
        try:
            fd, tmp = tempfile.mkstemp(dir=dirname, prefix=".tmp-")
        except FileNotFoundError:
            # First blob of this shard directory: create it, retry once.
            os.makedirs(dirname, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=dirname, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- drift detection -------------------------------------------------------

    def _read_stamp(self) -> bytes:
        try:
            with open(self._stamp_path, "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return b""

    def _bump_stamp_locked(self) -> None:
        """Record that this handle mutated the blob set, carrying the
        authoritative totals. Another handle's cached counters are
        invalidated by the token change; it adopts these totals instead
        of rescanning the object tree (the stamp is only ever written
        under the cross-process mutation lock, so they are exact)."""
        stamp = json.dumps({
            "token": os.urandom(8).hex(),
            "count": self._count,
            "bytes": self._total,
        }, sort_keys=True).encode("ascii")
        self._atomic_write(self._stamp_path, stamp)
        self._stamp = stamp

    def _recount_locked(self) -> None:
        self._total = 0
        self._count = 0
        for path in self._iter_blob_paths():
            try:
                self._total += os.path.getsize(path)
                self._count += 1
            except FileNotFoundError:  # raced a concurrent delete
                continue

    def _adopt_stamp_locked(self, stamp: bytes) -> None:
        self._stamp = stamp
        try:
            totals = json.loads(stamp.decode("ascii"))
            self._count = int(totals["count"])
            self._total = int(totals["bytes"])
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            # Missing or legacy stamp: count the slow, certain way.
            self._recount_locked()

    def _sync_counters_locked(self) -> None:
        stamp = self._read_stamp()
        if stamp != self._stamp:
            self._adopt_stamp_locked(stamp)

    def put(self, digest: str, data: bytes) -> None:
        _check_digest(digest, data)
        path = self._blob_path(digest)
        with self._lock, self._file_lock(self._mutation_lock_path):
            # Re-sync before mutating: incrementing on top of counters
            # another handle has since invalidated would bake the drift in
            # (our stamp write below would mask their token). The mutation
            # lock serializes the sync-mutate-stamp sequence across
            # processes, so no handle can ever observe a matching stamp
            # over counters another writer just outdated.
            self._sync_counters_locked()
            if os.path.exists(path):
                return
            self._atomic_write(path, data)
            self._total += len(data)
            self._count += 1
            self._bump_stamp_locked()

    def get(self, digest: str) -> bytes:
        try:
            with open(self._blob_path(digest), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            raise BlobNotFound(digest) from None

    # -- streaming blob I/O ----------------------------------------------------

    def open_blob_writer(self, digest: str) -> _FileBlobWriter:
        """Incremental put: write chunks, then ``commit()`` — the blob is
        hashed and landed atomically without ever being whole in memory."""
        return _FileBlobWriter(self, digest)

    def open_blob(self, digest: str):
        """The object file itself — disk reads of one chunk at a time on
        the streaming wire path."""
        try:
            return open(self._blob_path(digest), "rb")
        except FileNotFoundError:
            raise BlobNotFound(digest) from None

    def _commit_blob_file(self, digest: str, tmp_path: str, size: int) -> None:
        """Land a fully-written, digest-verified temp file as a blob,
        with the same counter/stamp discipline as :meth:`put`."""
        path = self._blob_path(digest)
        with self._lock, self._file_lock(self._mutation_lock_path):
            self._sync_counters_locked()
            if os.path.exists(path):
                os.unlink(tmp_path)  # racing writer landed identical bytes
                return
            os.replace(tmp_path, path)
            self._total += size
            self._count += 1
            self._bump_stamp_locked()

    def has(self, digest: str) -> bool:
        try:
            return os.path.exists(self._blob_path(digest))
        except BlobNotFound:
            return False

    def delete(self, digest: str) -> bool:
        try:
            path = self._blob_path(digest)
        except BlobNotFound:
            return False
        with self._lock, self._file_lock(self._mutation_lock_path):
            self._sync_counters_locked()
            try:
                size = os.path.getsize(path)
                os.unlink(path)
            except FileNotFoundError:
                return False
            self._total -= size
            self._count -= 1
            self._bump_stamp_locked()
            return True

    def blob_age_seconds(self, digest: str) -> float | None:
        """Seconds since the blob file was written; None if absent."""
        try:
            mtime = os.path.getmtime(self._blob_path(digest))
        except (BlobNotFound, FileNotFoundError):
            return None
        return max(0.0, time.time() - mtime)

    def blob_size(self, digest: str) -> int | None:
        """Byte size from a stat, no content read; None if absent."""
        try:
            return os.path.getsize(self._blob_path(digest))
        except (BlobNotFound, FileNotFoundError):
            return None

    def digests(self) -> list[str]:
        out = []
        for path in self._iter_blob_paths():
            shard_dir, rest = os.path.split(path)
            shard = os.path.basename(shard_dir)
            out.append(f"sha256:{shard}{rest}")
        return out

    def __len__(self) -> int:
        with self._lock:
            self._sync_counters_locked()
            return self._count

    @property
    def total_bytes(self) -> int:
        with self._lock:
            self._sync_counters_locked()
            return self._total

    def stat(self) -> tuple[int, int]:
        """Count and bytes from one counter sync, not two."""
        with self._lock:
            self._sync_counters_locked()
            return self._count, self._total

    def put_many(self, blobs: dict[str, bytes]) -> None:
        """Store many blobs under one mutation-lock acquisition.

        Besides the lock amortization, the whole batch produces *one*
        stamp rewrite instead of one per blob — the same O(n) -> O(1)
        economics the cache's batched index saves buy.
        """
        for digest, data in blobs.items():
            _check_digest(digest, data)
        with self._lock, self._file_lock(self._mutation_lock_path):
            self._sync_counters_locked()
            wrote = False
            for digest, data in blobs.items():
                path = self._blob_path(digest)
                if os.path.exists(path):
                    continue
                self._atomic_write(path, data)
                self._total += len(data)
                self._count += 1
                wrote = True
            if wrote:
                self._bump_stamp_locked()

    # -- refs ------------------------------------------------------------------

    @staticmethod
    def _escape_ref(name: str) -> str:
        # '%' first so the escapes themselves round-trip; a ref literally
        # named "a%2fb" must not collide with "a/b". A leading '.' is
        # escaped too, so ref names can never masquerade as .tmp-* residue.
        escaped = name.replace("%", "%25").replace("/", "%2f")
        if escaped.startswith("."):
            escaped = "%2e" + escaped[1:]
        return escaped

    @staticmethod
    def _unescape_ref(escaped: str) -> str:
        return (escaped.replace("%2e", ".").replace("%2f", "/")
                .replace("%25", "%"))

    def _ref_path(self, name: str) -> str:
        return os.path.join(self._refs_dir, self._escape_ref(name))

    @contextmanager
    def _ref_lock(self, name: str) -> Iterator[None]:
        """Cross-process mutual exclusion for one ref, via a lock file."""
        with self._file_lock(
                os.path.join(self._locks_dir, self._escape_ref(name) + ".lock")):
            yield

    @contextmanager
    def _file_lock(self, path: str) -> Iterator[None]:
        """Cross-process mutual exclusion via a lock file.

        With ``fcntl`` the lock is advisory and crash-safe (the kernel
        releases it when the holder dies); the fallback spins on an
        exclusive-create sentinel with a staleness timeout.
        """
        if fcntl is not None:
            fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
                yield
            finally:
                os.close(fd)  # closing the fd releases the flock
            return
        # Portable fallback: O_EXCL sentinel.  # pragma: no cover
        deadline = time.monotonic() + self.LOCK_TIMEOUT
        while True:
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                break
            except FileExistsError:
                if time.monotonic() > deadline:
                    raise BackendError(f"timed out waiting for ref lock {path}")
                time.sleep(0.005)
        try:
            yield
        finally:
            try:
                os.unlink(path)
            except OSError:
                pass

    def set_ref(self, name: str, data: bytes) -> None:
        with self._lock, self._ref_lock(name):
            self._atomic_write(self._ref_path(name), data)

    def get_ref(self, name: str) -> bytes | None:
        try:
            with open(self._ref_path(name), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return None

    def delete_ref(self, name: str) -> bool:
        with self._lock, self._ref_lock(name):
            try:
                os.unlink(self._ref_path(name))
            except FileNotFoundError:
                return False
            return True

    def refs(self) -> list[str]:
        return [self._unescape_ref(name)
                for name in sorted(os.listdir(self._refs_dir))
                if not name.startswith(".tmp-")]

    def compare_and_set_ref(self, name: str, expected: bytes | None,
                            data: bytes) -> bool:
        path = self._ref_path(name)
        with self._lock, self._ref_lock(name):
            try:
                with open(path, "rb") as fh:
                    current: bytes | None = fh.read()
            except FileNotFoundError:
                current = None
            if current != expected:
                return False
            self._atomic_write(path, data)
            return True
