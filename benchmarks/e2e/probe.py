"""Probes a traced sample puts around the program's public seams.

Nothing here runs in an untraced sample: end-to-end metrics are measured
with these off, and ``telemetry.trace_overhead_share`` sizes what they cost.

* :class:`TimedBackend` - a proxy over the ``repro.store.Backend`` protocol
  that counts, times and sizes every store operation;
* :func:`timed_cache` - an ``ArtifactCache`` subclass timing the public
  ``get``/``put``/``put_blob``, with the backend time beneath them subtracted
  for the cache layer's self time;
* :class:`CallCounter` - ``sys.setprofile`` call counts per ``repro`` package,
  the work count that repeats when wall time does not;
* :func:`summarize_spans` - per-layer numbers from the spans the program
  already emits plus the ``bench.*`` spans ops.py opens around each call.
"""

from __future__ import annotations

import os
import sys
import threading
import time

MIB = 1024 * 1024

#: Backend method -> the operation class it is reported under.
STORE_OPS = {
    "get": "get", "get_many": "get",
    "has": "has", "has_many": "has",
    "put": "put", "put_many": "put",
    "get_ref": "ref_read", "refs": "ref_read",
    "compare_and_set_ref": "cas", "set_ref": "cas",
    "delete": "other", "delete_ref": "other", "digests": "other",
    "stat": "other", "blob_size": "other", "blob_size_many": "other",
}


def _payload_bytes(value) -> int:
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, dict):
        return sum(_payload_bytes(v) for v in value.values())
    return 0


class TimedBackend:
    """Counts and times every ``Backend`` operation of the wrapped backend.

    Busy seconds are summed over threads (``deploy_batch`` lowers ISA groups
    on pool threads), so they can exceed the wall time they overlap.
    """

    def __init__(self, inner):
        self._inner = inner
        self._lock = threading.Lock()
        self._local = threading.local()
        self.ops: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.bytes: dict[str, int] = {}

    def thread_busy(self) -> float:
        """Seconds the calling thread has spent inside backend operations."""
        return getattr(self._local, "busy", 0.0)

    def __len__(self) -> int:
        return len(self._inner)

    def __getattr__(self, name: str):
        attr = getattr(self._inner, name)
        kind = STORE_OPS.get(name)
        if kind is None or not callable(attr):
            return attr

        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                result = attr(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self._local.busy = self.thread_busy() + elapsed
            # Reads return their payload; writes take it as the last
            # argument (after the digest, or the ref name and expected value).
            moved = _payload_bytes(result) + (
                _payload_bytes(args[-1]) if args else 0)
            with self._lock:
                self.ops[kind] = self.ops.get(kind, 0) + 1
                self.seconds[kind] = self.seconds.get(kind, 0.0) + elapsed
                self.bytes[kind] = self.bytes.get(kind, 0) + moved
            return result

        # Later lookups of this operation find the wrapper as an instance
        # attribute and skip __getattr__.
        setattr(self, name, timed)
        return timed

    def metrics(self) -> dict[str, float]:
        out = {"store.ops": sum(self.ops.values()),
               "store.busy_s": sum(self.seconds.values())}
        for kind in ("get", "has", "put", "ref_read", "cas"):
            out[f"store.{kind}_ops"] = self.ops.get(kind, 0)
            out[f"store.{kind}_s"] = self.seconds.get(kind, 0.0)
        for kind in ("put", "get", "cas"):
            out[f"store.{kind}_mb"] = self.bytes.get(kind, 0) / MIB
        return out


def timed_cache(base, backend: TimedBackend):
    """A subclass of ``base`` (``repro.containers.ArtifactCache``) whose
    public lookup/publish methods are timed; ``backend`` is the proxy under
    the cache's store, read for the backend seconds nested in each call."""

    class TimedCache(base):
        def __init__(self, *args, **kwargs):
            self.probe_lock = threading.Lock()
            self.probe_ops = 0
            self.probe_seconds = 0.0
            self.probe_backend_seconds = 0.0
            super().__init__(*args, **kwargs)

        def _timed(self, method, *args, **kwargs):
            nested = backend.thread_busy()
            started = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                nested = backend.thread_busy() - nested
                with self.probe_lock:
                    self.probe_ops += 1
                    self.probe_seconds += elapsed
                    self.probe_backend_seconds += nested

        def get(self, *args, **kwargs):
            return self._timed(super().get, *args, **kwargs)

        def put(self, *args, **kwargs):
            return self._timed(super().put, *args, **kwargs)

        def put_blob(self, *args, **kwargs):
            return self._timed(super().put_blob, *args, **kwargs)

        def metrics(self) -> dict[str, float]:
            return {"containers.cache_ops": self.probe_ops,
                    "containers.cache_s": self.probe_seconds,
                    "containers.cache_self_s":
                        self.probe_seconds - self.probe_backend_seconds}

    return TimedCache


#: The ``repro`` packages call counts are reported for; any other file
#: (``apps``, ``discovery``, ``perf``, ``cli``, the standard library, the
#: benchmark itself) is counted under ``other``.
CALL_PACKAGES = ("compiler", "pipeline", "core", "containers", "store",
                 "cluster", "telemetry", "buildsys", "util")


class CallCounter:
    """Python ``call`` and ``c_call`` events per package, on every thread.

    A C call is charged to the package of the Python frame that made it.
    Each thread counts into its own dict (merged by :meth:`metrics`), so no
    increment is lost to a thread switch and the counts repeat run to run.
    """

    def __init__(self, package_root: str):
        self._root = os.path.join(os.path.abspath(package_root), "")
        self._per_thread: list[dict[str, int]] = []
        self._lock = threading.Lock()

    def _package(self, filename: str) -> str:
        if filename.startswith(self._root):
            head = filename[len(self._root):].split(os.sep, 1)[0]
            if head in CALL_PACKAGES:
                return head
        return "other"

    def _bootstrap(self, frame, event, arg):
        counts: dict[str, int] = {}
        by_file: dict[str, str] = {}
        with self._lock:
            self._per_thread.append(counts)

        def profile(frame, event, arg):
            if event == "call" or event == "c_call":
                filename = frame.f_code.co_filename
                package = by_file.get(filename)
                if package is None:
                    package = by_file[filename] = self._package(filename)
                counts[package] = counts.get(package, 0) + 1

        sys.setprofile(profile)
        profile(frame, event, arg)

    def __enter__(self) -> "CallCounter":
        threading.setprofile(self._bootstrap)
        sys.setprofile(self._bootstrap)
        return self

    def __exit__(self, *exc_info) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def metrics(self) -> dict[str, float]:
        totals = dict.fromkeys(CALL_PACKAGES + ("other",), 0)
        with self._lock:
            for counts in self._per_thread:
                for package, count in counts.items():
                    totals[package] += count
        out = {f"calls.{package}_k": count / 1000.0
               for package, count in totals.items()}
        out["calls.total_k"] = sum(totals.values()) / 1000.0
        return out


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize_spans(spans, root_name: str, workers: int) -> dict[str, float]:
    """Per-layer numbers from one sample's spans (``repro.telemetry.Span``).

    ``telemetry.attributed_share`` is the part of the root ``bench.*`` span
    covered by spans the *program* emitted (any process, any thread), i.e.
    what a user's ``--trace`` export can attribute to a named layer.
    ``wire.client_s`` and ``cluster.worker_busy_s`` are busy seconds summed
    over threads and worker processes.
    """
    root = next(sp for sp in spans if sp.name == root_name)
    lo, hi = root.start, root.start + root.duration
    program = [(max(sp.start, lo), min(sp.start + sp.duration, hi))
               for sp in spans if not sp.name.startswith("bench.")]
    out = {
        "telemetry.spans": len(spans),
        "telemetry.attributed_share":
            _covered([iv for iv in program if iv[1] > iv[0]]) / root.duration,
        "wire.client_s": 0.0,
        "cluster.worker_busy_s": 0.0,
        "cluster.replay_s": 0.0,
    }
    for stage in ("configure", "preprocess", "ir-compile"):
        out[f"cluster.stage_runs.{stage}"] = 0
    for sp in spans:
        if sp.name.startswith("store.client."):
            out["wire.client_s"] += sp.duration
        elif sp.name.startswith("cluster.worker."):
            out["cluster.worker_busy_s"] += sp.duration
        elif sp.name == "cluster.build.replay":
            out["cluster.replay_s"] += sp.duration
        elif sp.name.startswith("pipeline.stage."):
            key = "cluster.stage_runs." + sp.name[len("pipeline.stage."):]
            if key in out:
                out[key] += 1
    build = next((sp.duration for sp in spans
                  if sp.name == "bench.cluster.build"), 0.0)
    out["cluster.idle_share"] = (
        1.0 - out["cluster.worker_busy_s"] / (workers * build)
        if build else 0.0)
    return out
