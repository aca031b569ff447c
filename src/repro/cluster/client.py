"""Submitter side of the build farm: plan, submit, wait.

:func:`cluster_build` is the cluster analogue of
:func:`repro.core.deployment.deploy_batch`: it decomposes one
"build this app, deploy it to these systems" request into jobs
(:mod:`repro.cluster.jobs` — one stage job per source share, as many as
there are configurations, then one deploy job per ISA group, the unit
``deploy_batch`` deploys in), submits
them to a coordinator in two waves — the deploy wave only once the stage
wave is done, which is all that orders them — and aggregates the
results. Nothing is probed before the deploy wave: a group whose machine
modules are already in the shared store is a group job whose lookups all
hit, and the report lists it among ``warm_groups`` because it lowered
nothing.

:class:`LocalCluster` packages coordinator + N workers for tests, the
benchmarks and the self-hosted CLI farms (``deploy-batch --workers N``,
``cluster build``): worker processes forked from the caller, each with
its own handle on one file-backed store — real multi-core parallelism
without starting another interpreter. Workers on other machines are not
its business: they run ``repro.cli cluster worker`` against a ``cluster
serve`` coordinator.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
import uuid
from dataclasses import dataclass, field, replace

from repro.cluster.coordinator import PARK_SECONDS, Coordinator
from repro.cluster.jobs import (
    BuildSpec,
    ClusterError,
    Job,
    deploy_job,
    ir_compile_job,
)
from repro.cluster.worker import run_worker
from repro.containers.store import BULK_FLUSH_EVERY, ArtifactCache, BlobStore
from repro.store.backend import FileBackend
from repro.store.wire import SessionPool, WireError, fold_json_body, json_body
from repro.telemetry import events as _events
from repro.telemetry import trace as _trace
from repro.telemetry.registry import MetricsRegistry
from repro.util.retry import NO_RETRY, RetryPolicy


class CoordinatorUnreachable(ClusterError):
    """A wire-level failure reaching the coordinator (refused, reset,
    timeout, broken frame) — the retryable kind, unlike semantic errors
    the coordinator itself returned. Subclasses :class:`ClusterError` so
    every existing handler (a worker's exit, CLI messages) still fires."""


#: Coordinator ops ride the same backoff envelope as store ops, bounded
#: so a genuinely dead farm surfaces within the deadline. A caller that
#: owns a longer outage budget — a worker, a waiting submitter — keeps
#: this backoff and replaces the bounds (:meth:`RetryPolicy.lasting`).
DEFAULT_COORDINATOR_RETRY = RetryPolicy(max_attempts=6, base_delay=0.1,
                                        max_delay=2.0, deadline=30.0)


class CoordinatorClient:
    """One round-trip per operation against a coordinator server, over a
    pooled session (:class:`~repro.store.wire.SessionPool`): a worker
    blocked in ``fetch`` or a submitter blocked in ``wait`` holds one
    warm connection instead of connecting per request, and a socket a
    restarted coordinator dropped is detected and replaced transparently.

    Every operation the coordinator applies idempotently retries through
    ``retry`` on wire-level failures: reads trivially, ``renew`` (lease
    extension), ``complete``/``fail`` (duplicate terminal reports are
    acknowledged-and-ignored server-side), ``fetch`` (a lost response
    costs one lease expiry, never a lost job), and ``submit`` (a resend
    that hits "duplicate job id" proves the first send landed — treated
    as success). Two are sent once: ``goodbye``, the last word of a
    worker that is leaving anyway, and a ``telemetry`` read that drains
    the span buffer. ``retry`` is the only loop that rides out an
    outage; a worker sets its deadline to its downtime budget, and
    :meth:`wait` hands each call what is left of its stall deadline.
    Each retry bumps the ``cluster.reconnects`` counter in ``registry``
    — workers push it over heartbeats, so `cluster status` shows who is
    riding out a flaky coordinator link.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0,
                 retry: RetryPolicy | None = None,
                 registry: MetricsRegistry | None = None):
        self.retry = retry if retry is not None else DEFAULT_COORDINATOR_RETRY
        #: Where retries are counted; a worker points it at its own.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.registry.counter("cluster.reconnects")  # listed from the start
        # Connect failures are retried by `_call` with every other wire
        # failure (one policy, one counter), not inside the pool.
        self._pool = SessionPool(host, port, timeout=timeout)
        #: Lease length reported by the last successful fetch; workers
        #: pace their renewal heartbeat from it.
        self.lease_seconds: float | None = None

    def close(self) -> None:
        """Release the pooled connection(s); the client stays usable."""
        self._pool.close()

    #: Header fields bulky enough to overflow the one-line header frame
    #: (a traced job can push hundreds of spans, a stage job's result
    #: carries its configuration's manifest); they ride a JSON body.
    #: A field that is None is not sent at all.
    _BODY_FIELDS = ("spans", "metrics", "result")

    def _call(self, header: dict, retry: RetryPolicy | None = None,
              on_retry=None) -> dict:
        body = b""
        header = {key: value for key, value in header.items()
                  if value is not None}
        extra = {key: header.pop(key) for key in self._BODY_FIELDS
                 if key in header}
        if extra:
            header, body = json_body(header, extra)
        cmd = str(header.get("cmd", ""))

        def exchange() -> dict:
            try:
                resp, payload = self._pool.exchange(header, body)
            except (WireError, OSError) as exc:
                # OSError covers the pre-framing failures (connection
                # refused, reset, timeout) — they must hit the same
                # ClusterError paths (retry, CLI error message) as a
                # broken frame.
                raise CoordinatorUnreachable(
                    f"coordinator unreachable: {exc}") from exc
            # Bulk response fields (telemetry span drains) arrive as a
            # JSON body; fold them back into the response dict.
            fold_json_body(resp, payload)
            if not resp.get("ok"):
                raise ClusterError(resp.get("error", "coordinator error"))
            return resp

        retry = self.retry if retry is None else retry
        if not retry.enabled:
            return exchange()

        def note(attempt: int, delay: float, exc: Exception) -> None:
            self.registry.counter("cluster.reconnects").inc()
            _events.emit("warn", "coordinator op retry", op=cmd,
                         attempt=attempt, delay=round(delay, 3),
                         error=str(exc))
            if on_retry is not None:
                on_retry(attempt, delay, exc)

        return retry.call(exchange, retry_on=(CoordinatorUnreachable,),
                          on_retry=note)

    def ping(self) -> bool:
        return self._call({"cmd": "ping"}).get("server") == \
            "cluster-coordinator"

    def submit(self, jobs: list[Job]) -> int:
        resent = False

        def saw_resend(_attempt: int, _delay: float, _exc: Exception) -> None:
            nonlocal resent
            resent = True

        try:
            return int(self._call({
                "cmd": "submit", "jobs": [job.to_json() for job in jobs]},
                on_retry=saw_resend)["submitted"])
        except ClusterError as exc:
            # A retried submit answering "duplicate job id" means the
            # first send was applied and only its *response* was lost —
            # the batch is registered; report it as submitted.
            if resent and "duplicate job id" in str(exc):
                return len(jobs)
            raise

    def fetch(self, worker_id: str, metrics: dict | None = None,
              park_seconds: float = 0.0) -> Job | None:
        """Claim a job. With ``park_seconds`` the coordinator holds the
        request until a job is eligible for this worker or that long has
        passed (None then); 0 answers at once."""
        resp = self._call({"cmd": "fetch", "worker": worker_id,
                           "park_seconds": park_seconds or None,
                           "metrics": metrics})
        if resp.get("idle"):
            return None
        if resp.get("lease_seconds") is not None:
            self.lease_seconds = float(resp["lease_seconds"])
        return Job.from_json(resp["job"])

    def renew(self, job_id: str, worker_id: str,
              metrics: dict | None = None) -> bool:
        return bool(self._call({"cmd": "renew", "job_id": job_id,
                                "worker": worker_id,
                                "metrics": metrics})["renewed"])

    def complete(self, job_id: str, worker_id: str, result: dict,
                 spans: list | None = None,
                 metrics: dict | None = None) -> bool:
        return bool(self._call({"cmd": "complete", "job_id": job_id,
                                "worker": worker_id, "result": result,
                                "spans": spans,
                                "metrics": metrics})["applied"])

    def fail(self, job_id: str, worker_id: str, error: str,
             spans: list | None = None, metrics: dict | None = None) -> str:
        return str(self._call({"cmd": "fail", "job_id": job_id,
                               "worker": worker_id, "error": error,
                               "spans": spans, "metrics": metrics})["state"])

    def status(self, job_ids: list[str] | None = None) -> dict[str, dict]:
        return self._call({"cmd": "status", "job_ids": job_ids})["jobs"]

    def telemetry(self, drain_spans: bool = False) -> dict:
        """The coordinator's live farm snapshot (what `cluster status`
        prints): ``{"telemetry": {...}, "spans": [...]}``. Spans come
        back only with ``drain_spans``, which removes them from the
        coordinator's buffer (one-shot collection for trace export)."""
        header: dict = {"cmd": "telemetry"}
        if drain_spans:
            header["drain_spans"] = True
        # A drain is a destructive read — a resend after a lost response
        # would silently discard the first drain's spans.
        resp = self._call(header, retry=NO_RETRY if drain_spans else None)
        return {"telemetry": resp.get("telemetry", {}),
                "spans": resp.get("spans", [])}

    def goodbye(self, worker_id: str) -> int:
        # Sent once: the last word of a worker that is leaving anyway.
        return int(self._call({"cmd": "goodbye", "worker": worker_id},
                              retry=NO_RETRY)["requeued"])

    def wait(self, jobs: list[Job],
             timeout: float = 300.0) -> dict[str, dict]:
        """Block until every job is done; raise on any terminal failure.

        Each round trip names only the jobs not yet done and is parked by
        the coordinator until one of them is done or has failed — nothing
        is polled, and each finished record, result included, crosses the
        wire once. ``timeout`` is a
        *stall* timeout, not a wall-clock budget: the deadline resets
        every time another job completes, so an arbitrarily large healthy
        wave never trips it — only a wave in which nothing finishes for
        ``timeout`` seconds does.

        A coordinator outage mid-wait does not raise: each round trip
        rides it out through ``retry`` for what is left of the stall
        deadline, and raises ``CoordinatorUnreachable`` once that is
        spent. A restarted coordinator starts empty and answers ``unknown
        job`` for what it lost; the job named is resubmitted from its
        spec and the wait goes on, under the same deadline — what the
        first run published is cache hits for the second.
        """
        by_id = {job.job_id: job for job in jobs}
        deadline = time.monotonic() + timeout
        done: dict[str, dict] = {}
        lost: list[Job] = []
        while True:
            pending = [job_id for job_id in by_id if job_id not in done]
            try:
                if lost:
                    self.submit(lost)
                    lost = []
                left = deadline - time.monotonic()
                records = self._call({
                    "cmd": "wait", "job_ids": pending,
                    "park_seconds": max(0.0, min(PARK_SECONDS, left))},
                    retry=self.retry.lasting(left))["jobs"]
            except ClusterError as exc:
                lost = [by_id[job_id] for job_id in pending
                        if str(exc) == f"unknown job {job_id!r}"]
                if not lost or time.monotonic() > deadline:
                    raise
                _events.emit("warn", "coordinator lost a job; resubmitting",
                             job_id=lost[0].job_id)
                continue
            failed = {job_id: rec for job_id, rec in records.items()
                      if rec["state"] == "failed"}
            if failed:
                details = "; ".join(
                    f"{job_id}: {rec['error']}" for job_id, rec
                    in sorted(failed.items()))
                raise ClusterError(f"{len(failed)} job(s) failed: {details}")
            finished = {job_id: rec for job_id, rec in records.items()
                        if rec["state"] == "done"}
            if finished:
                done.update(finished)
                deadline = time.monotonic() + timeout
            if len(done) == len(by_id):
                return {job_id: done[job_id] for job_id in by_id}
            if time.monotonic() > deadline:
                stalled = sorted((job_id, rec) for job_id, rec
                                 in records.items() if rec["state"] != "done")
                details = "; ".join(
                    f"{job_id} [{rec['state']}"
                    + (f": {rec['error']}" if rec["error"] else "") + "]"
                    for job_id, rec in stalled[:5])
                raise ClusterError(
                    f"timed out waiting for {len(stalled)} job(s): {details}")


# -- cluster build -------------------------------------------------------------


@dataclass
class ClusterBuildReport:
    """Everything one ``cluster build`` produced, keys and counts only."""

    app: str
    plan_summary: str
    image_digest: str
    # One entry per deployed system, in the order the systems were requested.
    deployments: list[dict] = field(default_factory=list)
    # ISA groups as {"family", "simd", "systems"} dicts — the same shape
    # `deploy-batch --json` prints, so the farm path stays drop-in.
    plan_groups: list[dict] = field(default_factory=list)
    incompatible: dict[str, str] = field(default_factory=dict)
    # "<family>/<simd>" of the groups whose deploy job lowered nothing
    # (warm) and of those that lowered something (cold), in plan order.
    warm_groups: list[str] = field(default_factory=list)
    cold_groups: list[str] = field(default_factory=list)
    lowerings_performed: int = 0
    lowerings_reused: int = 0
    # Store-stats ledger: new ``lower`` index entries this run. Equal to
    # ``lowerings_performed`` exactly when no worker duplicated a lowering.
    lower_entries_created: int = 0
    build_stats: dict = field(default_factory=dict)
    jobs: dict[str, dict] = field(default_factory=dict)

    @property
    def duplicate_lowerings(self) -> int:
        return self.lowerings_performed - self.lower_entries_created

    @property
    def duplicate_ir_compiles(self) -> int:
        """IR compiles the jobs performed beyond one per distinct IR of
        the image. The ``ir-compile`` jobs build disjoint source shares,
        and every IR key holds its source, so this is 0 by construction;
        it stays on the report as the check."""
        compiled = sum(rec["result"].get("ir_compile_ops", 0)
                       for rec in self.jobs.values() if rec.get("result"))
        return max(0, compiled - self.build_stats.get("final_irs", 0))

    def to_json(self) -> dict:
        return {
            "app": self.app,
            # Same "plan" object shape as `deploy-batch --json` — scripts
            # reading plan.groups/plan.incompatible see one schema on the
            # classic and farm paths alike.
            "plan": {"summary": self.plan_summary,
                     "groups": self.plan_groups,
                     "incompatible": self.incompatible},
            "image_digest": self.image_digest,
            "deployments": self.deployments,
            "incompatible": self.incompatible,
            "warm_groups": self.warm_groups,
            "cold_groups": self.cold_groups,
            "lowerings_performed": self.lowerings_performed,
            "lowerings_reused": self.lowerings_reused,
            "lower_entries_created": self.lower_entries_created,
            "duplicate_lowerings": self.duplicate_lowerings,
            "duplicate_ir_compiles": self.duplicate_ir_compiles,
            "build_stats": self.build_stats,
            "jobs": self.jobs,
        }


def _lower_entry_count(index_entries: dict) -> int:
    return sum(1 for record in index_entries.values()
               if record.namespace == "lower")


def cluster_build(client: CoordinatorClient, app_name: str,
                  system_names: list[str], store: BlobStore,
                  cache: ArtifactCache | None = None,
                  configs: list[dict] | None = None,
                  options: dict[str, str] | None = None,
                  scale: float | None = None,
                  simd_override: str | None = None,
                  skip_incompatible: bool = False,
                  job_timeout: float = 300.0) -> ClusterBuildReport:
    """Build one IR container and deploy it to many systems via the farm.

    The client runs no pipeline stage itself: it submits one stage job
    per source share — as many shares as configurations, each job over
    every configuration — waits for them all, assembles the image from
    the summaries the jobs return
    (:meth:`~repro.core.ir_container.IRContainerResult.assemble`, over
    the IR blobs the jobs published), plans on it, and submits one deploy
    job per ISA group, each naming the image by digest. All artifacts flow
    through ``store``. The lowering totals are the sums of what each job's
    own lowering loop counted, so they are exact however many workers ran
    the jobs.
    """
    from repro.apps import default_ir_sweep
    from repro.core import IRContainerResult, plan_batch
    from repro.core.ir_container import check_distinct_configs
    from repro.discovery import get_system
    from repro.perf.model import default_build_environment
    from repro.pipeline.stages import configure_all

    if cache is None:
        cache = ArtifactCache(store)
    if not system_names:
        raise ClusterError("cluster build needs at least one system")
    if configs is None or options is None:
        default_configs, default_options = default_ir_sweep(app_name)
        configs = default_configs if configs is None else configs
        options = default_options if options is None else options
    check_distinct_configs(configs)
    build = BuildSpec(app=app_name, configs=tuple(configs), scale=scale)
    app = build.resolve_app()
    systems = [get_system(name) for name in system_names]

    # Job ids are namespaced per submission, so repeated builds against one
    # long-lived coordinator never collide.
    batch_id = uuid.uuid4().hex[:8]

    def _batched(jobs: list[Job]) -> list[Job]:
        # Captured at submission: when the caller opened a recorded span
        # (`cluster build --trace`), every job carries the trace context
        # and the whole farm's spans correlate under one trace id.
        ctx = _trace.current()
        return [replace(job, job_id=f"{batch_id}/{job.job_id}", trace=ctx)
                for job in jobs]

    # The client's wave barrier is what orders the jobs: every job is
    # claimable once submitted, and the deploy wave is submitted only after
    # the whole stage wave is done and the image is assembled.
    #
    # Phase 1+2: the build front (configure through ir-compile), one job
    # per source share of every configuration. A preprocessed text is
    # keyed by its source, headers and defines, an IR by its source,
    # preprocessed text and frontend flags: the jobs' artifacts are
    # disjoint, so none compiles, parses or republishes another's — the
    # report's duplicate_ir_compiles is 0.
    with _trace.span("cluster.build.stage_wave",
                     attrs={"app": app_name, "configs": len(configs)}):
        stage_jobs = _batched([ir_compile_job(build, index, len(configs))
                               for index in range(len(configs))])
        client.submit(stage_jobs)
        job_results = client.wait(stage_jobs, timeout=job_timeout)

    # The joint image from the jobs' disjoint fronts, nothing rebuilt: each
    # configuration's manifest gathers its rows from every front, each IR
    # layer is the `ir` payload blob a worker published (its digest is the
    # IR digest; nothing is read back), and entries() syncs the index
    # first, so the configurations the workers published are hits. (The
    # span keeps the name it had when this phase replayed the build.)
    with _trace.span("cluster.build.replay", attrs={"app": app_name}):
        lower_entries_before = _lower_entry_count(cache.entries())
        fronts = [job_results[job.job_id]["result"] for job in stage_jobs]
        env = default_build_environment()
        built = [cfg for cfg, _ in configure_all(app, configs, env, cache)]
        result = IRContainerResult.assemble(
            app, [dict(c) for c in configs], fronts,
            {cfg.name: cfg for cfg in built}, store, build.arch_family)
        plan = plan_batch(result, app, options, systems,
                          simd_override=simd_override,
                          skip_incompatible=skip_incompatible)
        # The image holds the summaries now; the report keeps the counts.
        for job in stage_jobs:
            del job_results[job.job_id]["result"]["summary"]

    # Phase 3: one deploy job per ISA group, the loop deploy_batch runs per
    # group, over the image just assembled. A group already lowered on the
    # store finds every machine module there and lowers nothing.
    with _trace.span("cluster.build.deploy_wave",
                     attrs={"app": app_name, "groups": len(plan.groups)}):
        deploy_wave = _batched([
            deploy_job(build, options, group.family, group.simd_name,
                       group.systems, result.image.digest,
                       simd_override=simd_override)
            for group in plan.groups])
        client.submit(deploy_wave)
        job_results.update(client.wait(deploy_wave, timeout=job_timeout))

    groups = [job_results[job.job_id]["result"] for job in deploy_wave]
    by_system = {row["system"]: row
                 for group in groups for row in group["deployments"]}
    # One row per system, in request order: plan_batch treats a repeated
    # name as one deployment.
    deployments = [by_system[name] for name in dict.fromkeys(system_names)
                   if name in by_system]

    return ClusterBuildReport(
        app=app_name,
        plan_summary=plan.summary(),
        image_digest=result.image.digest,
        deployments=deployments,
        plan_groups=[{"family": g.family, "simd": g.simd_name,
                      "systems": list(g.systems)} for g in plan.groups],
        incompatible=dict(plan.incompatible),
        warm_groups=[f"{g['family']}/{g['simd']}" for g in groups
                     if g["lowerings_performed"] == 0],
        cold_groups=[f"{g['family']}/{g['simd']}" for g in groups
                     if g["lowerings_performed"] > 0],
        lowerings_performed=sum(g["lowerings_performed"] for g in groups),
        lowerings_reused=sum(g["lowerings_reused"] for g in groups),
        lower_entries_created=(_lower_entry_count(cache.entries())
                               - lower_entries_before),
        build_stats=result.stats.to_json(),
        jobs={job_id: {key: rec[key] for key in (
                  "state", "worker", "attempts", "result",
                  "queued_s", "run_s")}
              for job_id, rec in job_results.items()},
    )


# -- local cluster -------------------------------------------------------------


class LocalCluster:
    """A coordinator plus N forked workers, self-hosted for one process's
    benefit: the CLI's self-hosted farms, the cluster benchmark, tests.

    The workers are forked from the calling process — real multi-core
    parallelism for the price of a ``fork()``: a child holds every module
    the caller imported, where a launched interpreter compiles and imports
    the program again. A fork shares no live store, so ``store_dir`` is
    required (``ClusterError`` without it); ``store``/``cache`` are the
    caller's handles on that directory, and ``mode`` accepts
    ``"process"`` only.
    :meth:`start` forks before the coordinator's loop thread exists, so
    the cluster never forks with a thread of its own alive. A child
    shares nothing live with the caller: it closes its copies of the
    coordinator's sockets and selector (an orphaned worker's
    ``max_coordinator_downtime`` waits for a *refused* connection), sends
    stdout/stderr to ``/dev/null``, takes default signal handlers and
    fresh process-global telemetry, opens its own ``FileBackend`` on
    ``store_dir`` (and tier under ``local_tier_dir``) and runs
    :func:`~repro.cluster.worker.run_worker`. It leaves only through
    ``os._exit``: the caller's ``finally`` blocks, ``atexit`` handlers
    and buffered output are the caller's and must not run twice.
    ``worker_pids`` lists the children; :meth:`stop` kills and reaps them.
    """

    def __init__(self, workers: int = 2, mode: str = "process",
                 store: BlobStore | None = None,
                 cache: ArtifactCache | None = None,
                 store_dir: str = "",
                 lease_seconds: float = 60.0,
                 local_tier_dir: str = ""):
        if mode != "process":
            raise ClusterError(f"unknown LocalCluster mode {mode!r} (its "
                               "workers are forked processes)")
        if not store_dir:
            raise ClusterError("LocalCluster needs store_dir (each forked "
                               "worker opens its own FileBackend)")
        if store is None:
            store = BlobStore(FileBackend(store_dir))
        self.n_workers = max(1, workers)
        self.local_tier_dir = local_tier_dir
        self.store = store
        self.cache = cache if cache is not None else ArtifactCache(
            store, flush_every=BULK_FLUSH_EVERY)
        self.store_dir = store_dir
        # A fixed fleet size lets the scheduler treat "excluded by every
        # worker" as terminal.
        self.coordinator = Coordinator(
            lease_seconds=lease_seconds, expected_workers=self.n_workers)
        self.client: CoordinatorClient | None = None
        #: The forked workers, in ``proc-<i>`` order.
        self.worker_pids: list[int] = []

    def _fork_worker(self, host: str, port: int, worker_id: str) -> int:
        """Fork one worker; returns its pid to the caller.
        The child never returns: see the class docstring for what it
        drops, and why ``os._exit`` is its only way out."""
        pid = os.fork()
        if pid:
            return pid
        status = 1
        try:
            self.coordinator.server.abandon()
            devnull = os.open(os.devnull, os.O_RDWR)
            os.dup2(devnull, 1)
            os.dup2(devnull, 2)
            # New objects, not just new descriptors: the caller's may be
            # a capture buffer, hold unflushed text, or be locked by a
            # thread that did not survive the fork.
            sys.stdout = sys.stderr = open(devnull, "w")
            # Handlers and profilers the caller installed serve the caller.
            for signum in signal.valid_signals():
                if callable(signal.getsignal(signum)):
                    signal.signal(signum, signal.SIG_DFL)
            sys.setprofile(None)
            threading.setprofile(None)
            run_worker(CoordinatorClient(host, port),
                       BlobStore(FileBackend(self.store_dir)),
                       worker_id=worker_id,
                       local_tier_dir=self.local_tier_dir)
            status = 0
        except BaseException:
            # What the interpreter would do on the way down — the flight
            # recorder run_worker installed hangs off this hook.
            sys.excepthook(*sys.exc_info())
        finally:
            os._exit(status)

    def start(self) -> "LocalCluster":
        with _trace.span("cluster.local.start",
                         attrs={"workers": self.n_workers}):
            # The server has been bound and listening since __init__: the
            # address exists, and its backlog holds a worker's connection
            # until the loop runs.
            host, port = self.coordinator.address
            # Before the loop thread exists: a fork copies only the
            # calling thread, and this way none of ours is lost.
            for i in range(self.n_workers):
                self.worker_pids.append(
                    self._fork_worker(host, port, f"proc-{i}"))
            self.coordinator.start()
            self.client = CoordinatorClient(host, port)
        return self

    def build(self, app_name: str, system_names: list[str],
              **kwargs) -> ClusterBuildReport:
        assert self.client is not None, "LocalCluster not started"
        return cluster_build(self.client, app_name, system_names,
                             self.store, cache=self.cache, **kwargs)

    def drain_spans(self) -> list:
        """Collect (and clear) every span the farm recorded: coordinator
        job-lifecycle spans and the worker-pushed spans absorbed there."""
        return self.coordinator.queue.recorder.drain()

    def stop(self) -> None:
        with _trace.span("cluster.local.stop"):
            # SIGKILL, not SIGTERM: a worker has nothing to tidy (what it
            # announced is published, what it holds re-queues), and this
            # one no inherited handler can swallow, so the wait returns.
            pids, self.worker_pids = self.worker_pids, []
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            for pid in pids:
                os.waitpid(pid, 0)
            if self.client is not None:
                self.client.close()
            self.coordinator.stop()

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
