"""Cluster workers: pull jobs, run pipeline stages, publish via the store.

A worker owns one connection target (the coordinator) and one shared-store
handle (:class:`~repro.containers.store.BlobStore` over a file or remote
backend — or an in-process store handed over by :class:`LocalCluster`).
Every artifact a job produces goes through the worker's
:class:`~repro.containers.store.ArtifactCache`; job *results* are small
JSON summaries (counts, tags, digests) — the coordinator never sees
payload bytes.

Stage execution reuses the pipeline verbatim:

* an ``ir-compile`` job runs the actual :mod:`repro.pipeline.stages`
  classes, configure through IR compile, over one configuration, so a
  sharded build produces byte-for-byte the same cache entries a monolithic
  :func:`~repro.core.build_ir_container` would;
* ``lower`` / ``deploy`` jobs rebuild the IR container *warm* (every
  stage resolves from the store; a worker-local memo keeps one live
  result per build spec) and then run
  :func:`~repro.core.deployment.lower_configuration` or
  :func:`~repro.core.deployment.deploy_ir_container` — the same lowering
  loop either way, whose own counts the job result carries.
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
from repro.pipeline.engine import Pipeline
from repro.pipeline.stages import (
    ConfigureStage,
    IRCompileStage,
    OpenMPStage,
    PreprocessStage,
    VectorizeStage,
)
from repro.pipeline.stats import PipelineStats
from repro.telemetry import events as _events
from repro.telemetry import flightrec as _flightrec
from repro.telemetry import trace as _trace
from repro.telemetry.registry import (
    MetricsRegistry,
    empty_snapshot,
    is_empty_snapshot,
    sample_process_gauges,
    snapshot_delta,
    sync_dropped_counter,
)
from repro.util.retry import RetryPolicy

#: Live IR-container results memoized per worker (keyed by build spec).
#: Two is enough for one build plus a straggler from a previous one.
RESULT_MEMO_SIZE = 2

#: A worker exits after the coordinator has been unreachable for this
#: long — wall clock, not a strike count, so the tolerance is independent
#: of how fast calls fail. Long enough to ride out a coordinator restart
#: plus ``cluster serve --resume``; short enough that an orphaned
#: worker process terminates instead of spinning forever.
#: ``cluster worker --max-coordinator-downtime`` overrides it.
DEFAULT_MAX_COORDINATOR_DOWNTIME = 10.0

#: Pauses between attempts to reach a coordinator that is down (on top
#: of each call's own retries): full jitter, so a fleet whose calls
#: failed together does not return in lockstep to a just-restarted one.
OUTAGE_BACKOFF = RetryPolicy(base_delay=0.02, max_delay=1.0)


class ClusterWorker:
    """Executes jobs against a shared store; one instance per process/thread.

    ``store``/``cache`` may be shared with other in-process workers (the
    :class:`ArtifactCache` is thread-safe). A worker with a process to
    itself — ``cluster worker`` on any machine, or a child a process-mode
    :class:`~repro.cluster.client.LocalCluster` forked — opens its own
    over the same persistent backend (:func:`run_worker`) and converges
    with the others through the store's CAS index instead.
    """

    #: Thread-pool width for per-TU loops *inside* a job: cluster
    #: parallelism comes from many workers, not nested pools.
    JOB_MAX_WORKERS = 1

    def __init__(self, client, store: BlobStore,
                 cache: ArtifactCache | None = None,
                 worker_id: str = "",
                 registry: MetricsRegistry | None = None,
                 local_tier_dir: str = "",
                 tier_flush_interval: float | None = None,
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
        # The client counts its coordinator reconnects; rebinding it onto
        # this registry puts them on the heartbeat channel (`cluster top`
        # shows who is riding out a flaky coordinator link).
        rebind = getattr(client, "bind_registry", None)
        if rebind is not None:
            rebind(self.registry)
        self.tier: TieredBackend | None = None
        if local_tier_dir:
            # The ccache topology: a worker-private FileBackend tier in
            # front of the (typically remote) shared store. The tier dir
            # is keyed by worker_tier_id, so restarting the same worker id
            # re-warms from its own disk while two workers sharing a
            # --local-tier root never collide. The tier's counters live in
            # this worker's registry — heartbeat deltas carry hit/miss/
            # flush rates to the coordinator without extra wire traffic.
            if cache is not None:
                raise ClusterError(
                    "local_tier_dir and an externally-built cache are "
                    "mutually exclusive: the cache must read through the "
                    "tier, not around it")
            local = FileBackend(
                os.path.join(local_tier_dir, self.worker_tier_id))
            self.tier = TieredBackend(
                local, store.backend,
                flush_interval=tier_flush_interval,
                registry=self.registry, tier_id=self.worker_tier_id)
            store = BlobStore(self.tier)
        self.store = store
        # Worker-owned caches batch their publishes at BULK_FLUSH_EVERY,
        # payload blobs and index entries alike: a thousand-publish job
        # costs one backend batch and O(n) index bytes instead of a
        # locked write per blob and O(n^2). Safe because a job publishes
        # before its completion is announced — no artifact key is
        # published before its artifacts — and the lease-renewal
        # heartbeat flushes mid-job.
        self.cache = cache if cache is not None \
            else ArtifactCache(store, flush_every=BULK_FLUSH_EVERY)
        self.jobs_done = 0
        self.jobs_failed = 0
        self.recorder = _trace.TraceRecorder()
        self._jobs_done = self.registry.counter("cluster.worker.jobs_done")
        self._jobs_failed = self.registry.counter("cluster.worker.jobs_failed")
        self._metrics_lock = threading.Lock()
        self._metrics_sent = empty_snapshot()
        self._memo: OrderedDict[str, object] = OrderedDict()
        self._apps: OrderedDict[str, object] = OrderedDict()
        self._memo_lock = threading.Lock()

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
            if is_empty_snapshot(delta):
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
        started = time.perf_counter()
        try:
            result = self._execute_traced(job)
        except Exception as exc:
            self.registry.histogram("cluster.worker.job_seconds",
                                    kind=job.kind).observe(
                time.perf_counter() - started)
            self.jobs_failed += 1
            self._jobs_failed.inc()
            stop_renewal()
            self.client.fail(job.job_id, self.worker_id, str(exc),
                             spans=self._drain_spans(),
                             metrics=self._pop_metrics_delta())
            return True
        self.registry.histogram("cluster.worker.job_seconds",
                                kind=job.kind).observe(
            time.perf_counter() - started)
        stop_renewal()
        self.jobs_done += 1
        self._jobs_done.inc()
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
        """Publish-before-announce: the completion report releases jobs
        that *require* this one's artifact keys, so every batched blob and
        index entry must be on the shared store first. Runs inside the
        job's span — a bulk cache lands a whole job's blobs here."""
        blobs, size = self.cache.pending_blobs
        with _trace.span("cluster.publish",
                         attrs={"blobs": blobs, "bytes": size}):
            if self.cache.persistent:
                self.cache.flush_index()
            if self.tier is not None:
                # And every blob behind those entries: an index save with
                # no dirty keys never touches a ref, so the tier's
                # ref-write flush hook cannot be relied on here.
                self.tier.flush()

    def _start_lease_renewal(self, job_id: str):
        """Heartbeat the lease while a long job executes.

        Without this, any job outlasting the lease would be "expired" off
        a perfectly healthy worker and re-run elsewhere. Renewal failing
        (coordinator gone, or we *did* lose the lease to a real expiry)
        just stops the heartbeat — completion reporting handles the rest
        idempotently. Returns a stop function.
        """
        lease = (getattr(self.client, "lease_seconds", None)
                 or DEFAULT_LEASE_SECONDS)
        interval = min(max(0.05, lease / 3.0), 15.0)
        stop = threading.Event()

        def _renew_loop() -> None:
            while not stop.wait(interval):
                try:
                    # The renewal heartbeat doubles as the mid-job
                    # telemetry channel — long jobs surface their counters
                    # in `cluster top` before they complete.
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
                        if self.tier is not None:
                            self.tier.flush()
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

    def run(self, stop: threading.Event | None = None,
            max_idle_seconds: float | None = None) -> None:
        """Pull until stopped (or idle past ``max_idle_seconds``).

        An idle worker blocks in ``fetch``: the coordinator parks the
        request and answers the moment a job is eligible, so nothing is
        polled. The idle cutoff is how ``cluster worker`` processes end
        in tests and CI; a service deployment runs without one and lives
        until the coordinator goes away.
        """
        if stop is None:
            stop = threading.Event()  # never set: the waits below just time out
        else:
            # A parked fetch cannot watch an event; setting it has the
            # coordinator answer the fetch at once.
            threading.Thread(target=self._release_on, args=(stop,),
                             name=f"release-{self.worker_id}",
                             daemon=True).start()
        idle_since: float | None = None
        down_since: float | None = None
        outage = 0
        while not stop.is_set():
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            park = PARK_SECONDS
            if max_idle_seconds is not None:
                park = min(park, max_idle_seconds - (now - idle_since))
                if park <= 0:
                    break
            try:
                busy = self.run_one(park_seconds=park)
                if down_since is not None:
                    _events.emit("info", "coordinator link restored",
                                 worker=self.worker_id,
                                 downtime=round(time.monotonic() - down_since,
                                                2))
                down_since = None
                outage = 0
            except ClusterError as exc:
                # Coordinator unreachable (restarting, or gone for good).
                # The client already retried each call with backoff; the
                # loop-level policy is *time-based*: keep trying until
                # the coordinator has been down max_coordinator_downtime
                # seconds — long enough for a restart + --resume — then
                # exit so an orphaned worker terminates instead of
                # spinning.
                now = time.monotonic()
                down_since = down_since if down_since is not None else now
                if now - down_since >= self.max_coordinator_downtime:
                    _events.emit("error", "coordinator down too long; "
                                 "worker exiting", worker=self.worker_id,
                                 downtime=round(now - down_since, 2),
                                 limit=self.max_coordinator_downtime,
                                 error=str(exc))
                    return
                outage += 1
                stop.wait(OUTAGE_BACKOFF.backoff(outage))
                continue
            if busy:
                idle_since = None
        try:
            self.client.goodbye(self.worker_id)
        except ClusterError:  # pragma: no cover - coordinator already gone
            pass
        # Release pooled wire sessions — the coordinator client's, and a
        # RemoteBackend-backed store's warm connection pool; shared
        # backends just drop their idle sockets — the next user reconnects
        # lazily.
        for owner in (self.client, self.store.backend):
            close = getattr(owner, "close", None)
            if close is not None:
                close()

    def _release_on(self, stop: threading.Event) -> None:
        stop.wait()
        try:
            self.client.release(self.worker_id)
        except ClusterError:  # coordinator already gone: nothing is parked
            pass

    # -- job execution ---------------------------------------------------------

    def execute(self, job: Job) -> dict:
        # Sync the in-memory index with the shared refs: this job was
        # scheduled because upstream jobs *announced* their artifact keys,
        # and the whole point of the gate is that we resolve their entries
        # as hits instead of redoing the work.
        self.cache.sync()
        if job.kind == "ir-compile":
            return self._run_ir_compile(job.spec)
        if job.kind == "lower":
            return self._run_lower(job.spec)
        if job.kind == "deploy":
            return self._run_deploy(job.spec)
        raise ClusterError(f"unknown job kind {job.kind!r}")

    def _resolve_app(self, build: BuildSpec):
        """App models are deterministic per spec; build each once per worker
        (a GROMACS-sized synthetic tree is expensive to regenerate per job).
        """
        from repro.util.hashing import stable_hash
        key = stable_hash({"app": build.app, "scale": build.scale})
        with self._memo_lock:
            if key in self._apps:
                self._apps.move_to_end(key)
                return self._apps[key]
        app = build.resolve_app()
        with self._memo_lock:
            self._apps[key] = app
            while len(self._apps) > RESULT_MEMO_SIZE:
                self._apps.popitem(last=False)
        return app

    def _run_ir_compile(self, spec: dict) -> dict:
        """One configuration through the build front, configure to IR
        compile — the stages of a monolithic build minus image assembly."""
        from repro.perf.model import default_build_environment
        build = BuildSpec.from_json(spec["build"])
        stats = PipelineStats(configurations=1)
        inputs = {
            "app": self._resolve_app(build), "configs": [dict(spec["config"])],
            "env": default_build_environment(),
            "arch_family": build.arch_family, "stats": stats,
            "cache": self.cache, "max_workers": self.JOB_MAX_WORKERS,
        }
        pipeline = Pipeline("cluster-job", inputs=tuple(inputs))
        for stage in (ConfigureStage(), PreprocessStage(), OpenMPStage(),
                      VectorizeStage(), IRCompileStage()):
            pipeline.register(stage)
        pipeline.run(inputs)
        # Fold the build's pipeline counters into the worker registry so
        # the next heartbeat delta carries them farm-ward.
        stats.publish_to(self.registry)
        return {"configure_ops": stats.configure_ops,
                "preprocess_ops": stats.preprocess_ops,
                "ir_compile_ops": stats.ir_compile_ops,
                "final_irs": stats.final_irs}

    def _build_result(self, build: BuildSpec):
        """The warm full build every lower/deploy job starts from.

        Every stage resolves through the shared store (the ir-compile
        jobs' configurations, preprocessed text and modules), so this costs
        deserialization, not compilation; the memo amortizes even that
        across the jobs of one batch.
        """
        from repro.core import build_ir_container
        from repro.util.hashing import stable_hash
        key = stable_hash(build.to_json())
        with self._memo_lock:
            if key in self._memo:
                self._memo.move_to_end(key)
                return self._memo[key]
        app = self._resolve_app(build)
        result = build_ir_container(app, [dict(c) for c in build.configs],
                                    store=self.store, cache=self.cache,
                                    arch_family=build.arch_family,
                                    max_workers=self.JOB_MAX_WORKERS)
        with self._memo_lock:
            self._memo[key] = (app, result)
            while len(self._memo) > RESULT_MEMO_SIZE:
                self._memo.popitem(last=False)
        return app, result

    def _run_lower(self, spec: dict) -> dict:
        from repro.core import lower_configuration
        build = BuildSpec.from_json(spec["build"])
        _app, result = self._build_result(build)
        lowered = lower_configuration(result, dict(spec["options"]),
                                      spec["simd"], cache=self.cache)
        return {"simd": spec["simd"], "family": spec.get("family", ""),
                "lowerings": lowered.performed + lowered.reused,
                "lowerings_performed": lowered.performed,
                "lowerings_reused": lowered.reused}

    def _run_deploy(self, spec: dict) -> dict:
        from repro.core import deploy_ir_container
        from repro.discovery import get_system
        build = BuildSpec.from_json(spec["build"])
        app, result = self._build_result(build)
        system = get_system(spec["system"])
        dep = deploy_ir_container(result, app, dict(spec["options"]), system,
                                  self.store,
                                  simd_override=spec.get("simd_override"),
                                  cache=self.cache)
        return {"system": system.name, "tag": dep.tag,
                "simd": dep.simd_name, "lowered_count": dep.lowered_count,
                "image_digest": dep.image.digest,
                "lowerings_performed": dep.lowerings_performed,
                "lowerings_reused": dep.lowerings_reused}


# -- the worker entry ----------------------------------------------------------


def run_worker(client, store: BlobStore, worker_id: str = "",
               registry: MetricsRegistry | None = None,
               local_tier_dir: str = "",
               tier_flush_interval: float | None = None,
               max_coordinator_downtime: float | None = None,
               max_idle_seconds: float | None = None) -> None:
    """One worker process from its first fetch to its goodbye: the body
    of the ``cluster worker`` command, and of each child a process-mode
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
        tier_flush_interval=tier_flush_interval,
        max_coordinator_downtime=max_coordinator_downtime)
    _trace.set_service(worker.worker_id)
    _flightrec.install(recorder=worker.recorder, registry=worker.registry)
    fault = os.environ.get("REPRO_FAULT_INJECT", "")
    if fault:
        from repro.testing.faults import arm_fault_injection
        arm_fault_injection(worker, fault)
    worker.run(max_idle_seconds=max_idle_seconds)
    line = (f"worker {worker.worker_id}: {worker.jobs_done} jobs done, "
            f"{worker.jobs_failed} failed")
    if worker.tier is not None:
        line += (f", tier {worker.tier.tier_hits} hits / "
                 f"{worker.tier.tier_misses} misses / "
                 f"{worker.tier.flushed_blobs} flushed")
    print(line, flush=True)
