"""Cluster workers: pull jobs, run pipeline stages, publish via the store.

A worker owns one connection target (the coordinator) and one shared-store
handle (:class:`~repro.containers.store.BlobStore` over a file or remote
backend). Every artifact a job produces goes through the worker's own
:class:`~repro.containers.store.ArtifactCache`; job *results* are JSON
summaries (counts, keys, tags, digests, manifest rows) — the coordinator
never sees payload bytes.

Stage execution reuses the pipeline verbatim:

* an ``ir-compile`` job runs the build front
  (:func:`~repro.core.ir_container.run_front`) over one source share of
  every configuration — the front :func:`~repro.core.build_ir_container`
  runs over every source — so a sharded build produces byte-for-byte the
  same cache entries; its result carries the front's summary
  (:func:`~repro.pipeline.stages.front_summary`), from which the
  submitter assembles the image;
* a ``deploy`` job opens that image
  (:meth:`~repro.core.ir_container.IRContainerResult.load`) and runs
  :func:`~repro.core.deployment.deploy_group` over one ISA group's
  systems — the loop :func:`~repro.core.deployment.deploy_batch` runs per
  group — and its result carries the group's lowering counts and one row
  per deployment.
"""

from __future__ import annotations

import os
import re
import threading
import time
from collections import OrderedDict

from repro.cluster.coordinator import DEFAULT_LEASE_SECONDS, PARK_SECONDS
from repro.cluster.jobs import BuildSpec, ClusterError, Job
from repro.containers.store import BULK_FLUSH_EVERY, ArtifactCache, BlobStore
from repro.store.backend import FileBackend
from repro.store.tiered import TieredBackend
from repro.pipeline.stages import joint_stats
from repro.telemetry import events as _events
from repro.telemetry import flightrec as _flightrec
from repro.telemetry import trace as _trace
from repro.telemetry.registry import (
    MetricsRegistry,
    sample_process_gauges,
    snapshot_delta,
    sync_dropped_counter,
)

#: App models memoized per worker (keyed by app and scale). Two is
#: enough for one build plus a straggler from a previous one.
APP_MEMO_SIZE = 2

#: A worker exits after the coordinator has been unreachable for this
#: long — wall clock, not a strike count, so the tolerance is independent
#: of how fast calls fail. Long enough to ride out a coordinator restart;
#: short enough that an orphaned worker process terminates instead of
#: spinning forever. It is the deadline of the worker's client retry.
#: ``cluster worker --max-coordinator-downtime`` overrides it.
DEFAULT_MAX_COORDINATOR_DOWNTIME = 10.0


class ClusterWorker:
    """Executes jobs against a shared store; one instance per process.

    Each worker — ``cluster worker`` on any machine, or a child a
    :class:`~repro.cluster.client.LocalCluster` forked — opens its own
    :class:`ArtifactCache` over the persistent backend and converges with
    the others through the store's CAS index.
    """

    def __init__(self, client, store: BlobStore,
                 worker_id: str = "",
                 registry: MetricsRegistry | None = None,
                 local_tier_dir: str = "",
                 max_coordinator_downtime: float | None = None):
        self.client = client
        self.worker_id = worker_id or f"worker-{id(self):x}"
        self.max_coordinator_downtime = (
            DEFAULT_MAX_COORDINATOR_DOWNTIME
            if max_coordinator_downtime is None else max_coordinator_downtime)
        #: Per-worker metrics, shipped to the coordinator as heartbeat
        #: deltas. ``cluster worker`` shares this registry with its
        #: store backend so wire-client latencies ride along; LocalCluster
        #: workers own one each.
        self.registry = registry if registry is not None else MetricsRegistry()
        # The client counts its coordinator reconnects in this registry,
        # so they ride the heartbeats (`cluster status` shows who is
        # riding out a flaky coordinator link). Its retry is the one loop
        # that rides out an outage: the worker's budget is its deadline,
        # whatever bounds it came with.
        client.registry = self.registry
        client.retry = client.retry.lasting(self.max_coordinator_downtime)
        self.tier: TieredBackend | None = None
        if local_tier_dir:
            # The ccache topology: a worker-private FileBackend tier in
            # front of the (typically remote) shared store. The tier dir
            # is keyed by worker_tier_id, so restarting the same worker id
            # re-warms from its own disk while two workers sharing a
            # --local-tier root never collide. The tier's counters live in
            # this worker's registry — heartbeat deltas carry hit/miss
            # rates to the coordinator without extra wire traffic.
            local = FileBackend(
                os.path.join(local_tier_dir, self.worker_tier_id))
            self.tier = TieredBackend(local, store.backend,
                                      registry=self.registry)
            store = BlobStore(self.tier)
        self.store = store
        # Worker-owned caches batch their publishes at BULK_FLUSH_EVERY,
        # payload blobs and index entries alike: a thousand-publish job
        # costs one backend batch and O(n) index bytes instead of a
        # locked write per blob and O(n^2). Safe because a job publishes
        # before its completion is announced — no one reads a job's
        # artifacts before they are on the store — and the lease-renewal
        # heartbeat flushes mid-job.
        self.cache = ArtifactCache(store, flush_every=BULK_FLUSH_EVERY)
        self.recorder = _trace.TraceRecorder()
        #: Jobs this worker finished, by outcome.
        self.jobs_done = self.registry.counter("cluster.worker.jobs_done")
        self.jobs_failed = self.registry.counter("cluster.worker.jobs_failed")
        self._metrics_lock = threading.Lock()
        self._metrics_sent: dict = {}
        self._apps: OrderedDict[str, object] = OrderedDict()

    @property
    def worker_tier_id(self) -> str:
        """Stable, filesystem-safe identity for this worker's local tier
        directory: the worker id with anything outside ``[A-Za-z0-9._-]``
        replaced. Restarting ``--worker-id w1`` reuses ``w1``'s tier."""
        return re.sub(r"[^A-Za-z0-9._-]", "_", self.worker_id) or "worker"

    def _pop_metrics_delta(self) -> dict | None:
        """The registry delta since the last pop, or None when idle.

        Shared by the fetch loop and the lease-renewal heartbeat thread
        (hence the lock). The delta is committed when popped: if the send
        it rides on then fails, those increments are lost — acceptable,
        because a coordinator that is down loses far more than one
        heartbeat's telemetry.
        """
        with self._metrics_lock:
            # Resource gauges and the span-ring drop count ride every
            # heartbeat delta — the farm view stays current without a
            # dedicated telemetry channel.
            sample_process_gauges(self.registry)
            sync_dropped_counter(self.registry, "telemetry.spans_dropped",
                                 self.recorder.dropped)
            snap = self.registry.snapshot()
            delta = snapshot_delta(snap, self._metrics_sent)
            if not any(delta.values()):
                return None
            self._metrics_sent = snap
            return delta

    def _drain_spans(self) -> list[dict] | None:
        spans = self.recorder.drain()
        return [span.to_json() for span in spans] if spans else None

    # -- loop ------------------------------------------------------------------

    def run_one(self, park_seconds: float = 0.0) -> bool:
        """Fetch and execute one job; False when the queue had none
        (after blocking in the coordinator for up to ``park_seconds``)."""
        job = self.client.fetch(self.worker_id,
                                metrics=self._pop_metrics_delta(),
                                park_seconds=park_seconds)
        if job is None:
            return False
        stop_renewal = self._start_lease_renewal(job.job_id)
        try:
            result = self._execute_traced(job)
        except Exception as exc:
            self.jobs_failed.inc()
            stop_renewal()
            self.client.fail(job.job_id, self.worker_id, str(exc),
                             spans=self._drain_spans(),
                             metrics=self._pop_metrics_delta())
            return True
        stop_renewal()
        self.jobs_done.inc()
        self.client.complete(job.job_id, self.worker_id, result,
                             spans=self._drain_spans(),
                             metrics=self._pop_metrics_delta())
        return True

    def _execute_traced(self, job: Job):
        """Run :meth:`execute`, under a recorded span when the job carries
        a trace context — the span (and any the stages open) is pushed to
        the coordinator with the completion report."""
        if not job.trace:
            return self._execute_logged(job)
        with _trace.recording(self.recorder), \
                _trace.span(f"cluster.worker.{job.kind}", parent=job.trace,
                            attrs={"job_id": job.job_id,
                                   "worker": self.worker_id}):
            return self._execute_logged(job)

    def _execute_logged(self, job: Job):
        """Run :meth:`execute` and publish what it produced; any escape —
        handled failure or crash — leaves an error event behind. Emitted
        inside the still-active job span, so the event carries the failing
        execution's trace/span ids (what a crash dump cross-links against
        the Chrome export)."""
        try:
            result = self.execute(job)
            self._publish()
            return result
        except BaseException as exc:
            _events.emit("error", "job execution failed",
                         job_id=job.job_id, kind=job.kind,
                         worker=self.worker_id,
                         error=f"{type(exc).__name__}: {exc}")
            raise

    def _publish(self) -> None:
        """Publish-before-announce: once the completion report lands, the
        submitter's ``wait`` returns and it reads this job's IR texts from
        the store (and submits the jobs that read the rest), so every
        batched blob and index entry must be on the shared store first.
        Runs inside the job's span — a bulk cache lands a whole job's
        blobs here."""
        blobs, size = self.cache.pending_blobs
        with _trace.span("cluster.publish",
                         attrs={"blobs": blobs, "bytes": size}):
            if self.cache.persistent:
                self.cache.flush_index()

    def _start_lease_renewal(self, job_id: str):
        """Heartbeat the lease while a long job executes.

        Without this, any job outlasting the lease would be "expired" off
        a perfectly healthy worker and re-run elsewhere. Renewal failing
        (coordinator gone, or we *did* lose the lease to a real expiry)
        just stops the heartbeat — completion reporting handles the rest
        idempotently. Returns a stop function, which waits at most 5 s
        for a heartbeat still riding out an outage: the report that
        follows rides it out for the worker's whole budget anyway.
        """
        lease = self.client.lease_seconds or DEFAULT_LEASE_SECONDS
        interval = min(max(0.05, lease / 3.0), 15.0)
        stop = threading.Event()

        def _renew_loop() -> None:
            while not stop.wait(interval):
                try:
                    # The renewal heartbeat doubles as the mid-job
                    # telemetry channel — long jobs surface their counters
                    # in `cluster status` before they complete.
                    if not self.client.renew(job_id, self.worker_id,
                                             metrics=self._pop_metrics_delta()):
                        return
                except ClusterError:
                    return
                if self.cache.persistent:
                    # Piggyback an index flush on the heartbeat: batched
                    # entries become visible (and GC-protected) every
                    # interval, not only at job completion.
                    try:
                        self.cache.flush_index()
                    except Exception as exc:
                        # Survivable — the flush re-runs on the next beat
                        # and completion's flush is the backstop — but an
                        # operator watching events must see a store that
                        # is rejecting index writes, not silence.
                        _events.emit(
                            "warn", "heartbeat index flush failed; "
                            "retrying next beat", worker=self.worker_id,
                            job_id=job_id,
                            error=f"{type(exc).__name__}: {exc}")

        thread = threading.Thread(target=_renew_loop, daemon=True,
                                  name=f"lease-{self.worker_id}")
        thread.start()

        def _stop() -> None:
            stop.set()
            thread.join(timeout=5)

        return _stop

    def run(self, max_idle_seconds: float | None = None) -> None:
        """Pull until idle past ``max_idle_seconds``, or until the
        coordinator has been down too long.

        An idle worker blocks in ``fetch``: the coordinator parks the
        request and answers the moment a job is eligible, so nothing is
        polled. The idle cutoff is how ``cluster worker`` processes and
        forked LocalCluster children end; a service deployment runs
        without one and lives until the coordinator goes away (or the
        process is killed). Each call rides out an outage in the client's
        retry, whose deadline is ``max_coordinator_downtime``: a
        ``ClusterError`` out of :meth:`run_one` means that budget is
        spent, and the worker exits. (A restarted coordinator answers a
        report on a job it lost as stale, not as an error: that is no
        outage.) An outage ridden out is not idle time.
        """
        reconnects = self.registry.counter("cluster.reconnects")
        idle_since: float | None = None
        while True:
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            park = PARK_SECONDS
            if max_idle_seconds is not None:
                park = min(park, max_idle_seconds - (now - idle_since))
                if park <= 0:
                    break
            before = reconnects.value
            try:
                busy = self.run_one(park_seconds=park)
            except ClusterError as exc:
                _events.emit("error", "coordinator down too long; "
                             "worker exiting", worker=self.worker_id,
                             limit=self.max_coordinator_downtime,
                             error=str(exc))
                return
            if busy or reconnects.value != before:  # retried: an outage
                idle_since = None
        try:
            self.client.goodbye(self.worker_id)
        except ClusterError:  # pragma: no cover - coordinator already gone
            pass
        # Close pooled wire sessions — the coordinator client's, and a
        # RemoteBackend-backed store's warm connection pool; shared
        # backends just drop their idle sockets — the next user reconnects
        # lazily.
        for owner in (self.client, self.store.backend):
            close = getattr(owner, "close", None)
            if close is not None:
                close()

    # -- job execution ---------------------------------------------------------

    def execute(self, job: Job) -> dict:
        # Sync the in-memory index with the shared refs: the jobs of an
        # earlier wave, or of an earlier build, published before they
        # announced, so their entries resolve as hits instead of the work
        # being redone.
        self.cache.sync()
        handler = self.HANDLERS.get(job.kind)
        if handler is None:
            raise ClusterError(f"unknown job kind {job.kind!r}")
        return handler(self, job.spec)

    def _resolve_app(self, build: BuildSpec):
        """App models are deterministic per spec; build each once per worker
        (a GROMACS-sized synthetic tree is expensive to regenerate per job).
        Only the job handlers call this, on the thread running the job.
        """
        from repro.util.hashing import stable_hash
        key = stable_hash({"app": build.app, "scale": build.scale})
        if key in self._apps:
            self._apps.move_to_end(key)
            return self._apps[key]
        app = build.resolve_app()
        self._apps[key] = app
        while len(self._apps) > APP_MEMO_SIZE:
            self._apps.popitem(last=False)
        return app

    def _run_ir_compile(self, spec: dict) -> dict:
        """The joint build's front over one source share of every
        configuration; the submitter assembles the image from the results
        without running a stage."""
        from repro.core.ir_container import run_front
        from repro.perf.model import default_build_environment
        if "part" not in spec:
            raise ClusterError("ir-compile spec has no 'part' (its source "
                               "share, [index, count])")
        build = BuildSpec.from_json(spec["build"])
        front, *_built = run_front(
            self._resolve_app(build), [dict(c) for c in build.configs],
            default_build_environment(), self.cache, build.arch_family,
            part=tuple(spec["part"]))
        # Fold the build's pipeline counters into the worker registry so
        # the next heartbeat delta carries them farm-ward.
        joint_stats([front]).publish_to(self.registry)
        return front

    def _run_deploy(self, spec: dict) -> dict:
        """Open the image the stage wave built and deploy one ISA group
        of it."""
        from repro.core import IRContainerResult, deploy_group
        from repro.discovery import get_system
        build = BuildSpec.from_json(spec["build"])
        app = self._resolve_app(build)
        options = dict(spec["options"])
        result = IRContainerResult.load(spec["image"], self.store, options)
        deployed = deploy_group(result, app, options,
                                [get_system(name) for name in spec["systems"]],
                                self.store, cache=self.cache,
                                simd_override=spec.get("simd_override"))
        return {"family": spec["family"], "simd": spec["simd"],
                "lowerings_performed": sum(dep.lowerings_performed
                                           for dep in deployed),
                "lowerings_reused": sum(dep.lowerings_reused
                                        for dep in deployed),
                "deployments": [{"system": dep.system.name, "tag": dep.tag,
                                 "simd": dep.simd_name,
                                 "lowered_count": dep.lowered_count,
                                 "image_digest": dep.image.digest}
                                for dep in deployed]}

    #: What :meth:`execute` runs per job kind, on the job's spec.
    HANDLERS = {"ir-compile": _run_ir_compile, "deploy": _run_deploy}


# -- the worker entry ----------------------------------------------------------


def run_worker(client, store: BlobStore, worker_id: str = "",
               registry: MetricsRegistry | None = None,
               local_tier_dir: str = "",
               max_coordinator_downtime: float | None = None,
               max_idle_seconds: float | None = None) -> None:
    """One worker process from its first fetch to its goodbye: the body
    of the ``cluster worker`` command, and of each child a
    :class:`~repro.cluster.client.LocalCluster` forks.

    The process takes the worker's identity — its id labels every span
    and event — and whatever escapes the loop, an injected fault
    (``REPRO_FAULT_INJECT``) included, reaches the flight recorder, which
    dumps the worker's spans, events and registry. A ``registry`` shared
    with a served store's client puts its wire latencies on the
    heartbeat beside the job counters.
    """
    worker = ClusterWorker(
        client, store, worker_id=worker_id, registry=registry,
        local_tier_dir=local_tier_dir,
        max_coordinator_downtime=max_coordinator_downtime)
    _trace.set_service(worker.worker_id)
    _flightrec.install(recorder=worker.recorder, registry=worker.registry)
    fault = os.environ.get("REPRO_FAULT_INJECT", "")
    if fault:
        from repro.testing.faults import arm_fault_injection
        arm_fault_injection(worker, fault)
    worker.run(max_idle_seconds=max_idle_seconds)
    line = (f"worker {worker.worker_id}: {worker.jobs_done.value} jobs "
            f"done, {worker.jobs_failed.value} failed")
    if worker.tier is not None:
        line += (f", tier {worker.tier.tier_hits} hits / "
                 f"{worker.tier.tier_misses} misses")
    print(line, flush=True)
