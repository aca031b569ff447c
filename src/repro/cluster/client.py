"""Submitter side of the build farm: plan, probe the store, submit, wait.

:func:`cluster_build` is the cluster analogue of
:func:`repro.core.deployment.deploy_batch`: it decomposes one
"build this app, deploy it to these systems" request into jobs
(:mod:`repro.cluster.jobs` — one stage job per configuration, one lower
job per cold ISA, one deploy job per system), submits them to a
coordinator, and aggregates the results. Scheduling is **store-aware**:
before planning the deployment phase, the client probes the shared
store's ``lower`` index
(:func:`repro.core.deployment.lowering_cache_keys`); ISA groups whose
machine modules are already present get *no* lower job — their artifact
key is declared done at submit, their systems' deploy jobs are ready
immediately and run at the front, overlapping with the cold ISAs' compiles.

:class:`LocalCluster` packages coordinator + N workers for tests, the
benchmarks and the self-hosted CLI farms (``deploy-batch --workers N``,
``cluster build``): worker processes forked from the caller, each with
its own handle on one file-backed store — real multi-core parallelism
without starting another interpreter — when the store is a directory,
worker threads sharing the caller's in-process store otherwise. Workers on
other machines are not its business: they run ``repro.cli cluster
worker`` against a ``cluster serve`` coordinator.
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
    lower_job,
    lower_key,
)
from repro.cluster.worker import ClusterWorker, run_worker
from repro.containers.store import BULK_FLUSH_EVERY, ArtifactCache, BlobStore
from repro.store.backend import FileBackend
from repro.store.wire import SessionPool, WireError, fold_json_body, json_body
from repro.telemetry import events as _events
from repro.telemetry import trace as _trace
from repro.telemetry.registry import MetricsRegistry
from repro.util.retry import RetryPolicy


class CoordinatorUnreachable(ClusterError):
    """A wire-level failure reaching the coordinator (refused, reset,
    timeout, broken frame) — the retryable kind, unlike semantic errors
    the coordinator itself returned. Subclasses :class:`ClusterError` so
    every existing handler (worker backoff, CLI messages) still fires."""


#: Coordinator ops ride the same backoff envelope as store ops: enough
#: attempts to span a coordinator restart, bounded so a genuinely dead
#: farm surfaces within the deadline.
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
    as success). Only the destructive telemetry drain never retries.
    Each retry bumps the ``cluster.reconnects`` counter in ``registry``
    — workers push it over heartbeats, so `cluster top` shows who is
    riding out a flaky coordinator link.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0,
                 retry: RetryPolicy | None = None,
                 registry: MetricsRegistry | None = None):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry if retry is not None else DEFAULT_COORDINATOR_RETRY
        self.registry = registry if registry is not None else MetricsRegistry()
        self._reconnects = self.registry.counter("cluster.reconnects")
        # Connect failures are retried by `_call` with every other wire
        # failure (one policy, one counter), not inside the pool.
        self._pool = SessionPool(host, port, timeout=timeout)
        #: Lease length reported by the last successful fetch; workers
        #: pace their renewal heartbeat from it.
        self.lease_seconds: float | None = None

    def close(self) -> None:
        """Release the pooled connection(s); the client stays usable."""
        self._pool.close()

    def bind_registry(self, registry: MetricsRegistry) -> None:
        """Adopt the caller's registry. Workers call this so the
        reconnect counter rides their heartbeat deltas farm-ward instead
        of sitting in a private registry nobody scrapes."""
        self.registry = registry
        self._reconnects = registry.counter("cluster.reconnects")

    #: Header fields bulky enough to overflow the one-line header frame
    #: (a traced job can push hundreds of spans); they ride a JSON body.
    _BODY_FIELDS = ("spans", "metrics")

    def _call(self, header: dict, retryable: bool = False,
              on_retry=None) -> dict:
        body = b""
        extra = {key: header[key] for key in self._BODY_FIELDS
                 if header.get(key) is not None}
        if extra:
            header, body = json_body(
                {key: value for key, value in header.items()
                 if key not in extra}, extra)
        cmd = str(header.get("cmd", ""))

        def exchange() -> dict:
            try:
                resp, payload = self._pool.exchange(header, body)
            except (WireError, OSError) as exc:
                # OSError covers the pre-framing failures (connection
                # refused, reset, timeout) — they must hit the same
                # ClusterError paths (worker backoff, CLI error message)
                # as a broken frame.
                raise CoordinatorUnreachable(
                    f"coordinator unreachable: {exc}") from exc
            # Bulk response fields (telemetry span drains) arrive as a
            # JSON body; fold them back into the response dict.
            fold_json_body(resp, payload)
            if not resp.get("ok"):
                raise ClusterError(resp.get("error", "coordinator error"))
            return resp

        if not (retryable and self.retry.enabled):
            return exchange()

        def note(attempt: int, delay: float, exc: Exception) -> None:
            self._reconnects.inc()
            _events.emit("warn", "coordinator op retry", op=cmd,
                         attempt=attempt, delay=round(delay, 3),
                         error=str(exc))
            if on_retry is not None:
                on_retry(attempt, delay, exc)

        return self.retry.call(exchange, retry_on=(CoordinatorUnreachable,),
                               on_retry=note)

    def ping(self) -> bool:
        return self._call({"cmd": "ping"}, retryable=True).get("server") == \
            "cluster-coordinator"

    def submit(self, jobs: list[Job], done_keys: tuple[str, ...] = ()) -> int:
        resent = False

        def saw_resend(_attempt: int, _delay: float, _exc: Exception) -> None:
            nonlocal resent
            resent = True

        try:
            return int(self._call({
                "cmd": "submit", "jobs": [job.to_json() for job in jobs],
                "done_keys": list(done_keys)},
                retryable=True, on_retry=saw_resend)["submitted"])
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
        header: dict = {"cmd": "fetch", "worker": worker_id}
        if park_seconds > 0:
            header["park_seconds"] = park_seconds
        if metrics:
            header["metrics"] = metrics
        resp = self._call(header, retryable=True)
        if resp.get("idle"):
            return None
        if resp.get("lease_seconds") is not None:
            self.lease_seconds = float(resp["lease_seconds"])
        return Job.from_json(resp["job"])

    def renew(self, job_id: str, worker_id: str,
              metrics: dict | None = None) -> bool:
        header: dict = {"cmd": "renew", "job_id": job_id, "worker": worker_id}
        if metrics:
            header["metrics"] = metrics
        return bool(self._call(header, retryable=True)["renewed"])

    def complete(self, job_id: str, worker_id: str, result: dict,
                 spans: list | None = None,
                 metrics: dict | None = None) -> bool:
        header: dict = {"cmd": "complete", "job_id": job_id,
                        "worker": worker_id, "result": result}
        if spans:
            header["spans"] = spans
        if metrics:
            header["metrics"] = metrics
        return bool(self._call(header, retryable=True)["applied"])

    def fail(self, job_id: str, worker_id: str, error: str,
             spans: list | None = None, metrics: dict | None = None) -> str:
        header: dict = {"cmd": "fail", "job_id": job_id,
                        "worker": worker_id, "error": error}
        if spans:
            header["spans"] = spans
        if metrics:
            header["metrics"] = metrics
        return str(self._call(header, retryable=True)["state"])

    def status(self, job_ids: list[str] | None = None) -> dict[str, dict]:
        header: dict = {"cmd": "status"}
        if job_ids is not None:
            header["job_ids"] = list(job_ids)
        return self._call(header, retryable=True)["jobs"]

    def stats(self) -> dict:
        return self._call({"cmd": "stats"}, retryable=True)["stats"]

    def telemetry(self, drain_spans: bool = False) -> dict:
        """The coordinator's live farm aggregates (the `cluster top`
        payload): ``{"telemetry": {...}, "spans": [...], "history":
        {...}}``. With ``drain_spans`` the returned spans are removed
        from the coordinator's buffer (one-shot collection for trace
        export); ``history`` is the heartbeat-fed farm metric history."""
        header: dict = {"cmd": "telemetry"}
        if drain_spans:
            header["drain_spans"] = True
        # A drain is a destructive read — a resend after a lost response
        # would silently discard the first drain's spans.
        resp = self._call(header, retryable=not drain_spans)
        return {"telemetry": resp.get("telemetry", {}),
                "spans": resp.get("spans", []),
                "history": resp.get("history", {})}

    def goodbye(self, worker_id: str) -> int:
        return int(self._call({"cmd": "goodbye",
                               "worker": worker_id})["requeued"])

    def release(self, worker_id: str) -> None:
        """Have ``worker_id``'s parked (or next) fetch answered idle. Not
        retried: a coordinator that cannot be reached holds no park."""
        self._call({"cmd": "release", "worker": worker_id})

    def wait(self, job_ids: list[str],
             timeout: float = 300.0) -> dict[str, dict]:
        """Block until every job is done; raise on any terminal failure.

        Each round trip is parked by the coordinator until another job
        is done or one has failed — nothing is polled. ``timeout`` is a
        *stall* timeout, not a wall-clock budget: the deadline resets
        every time another job completes, so an arbitrarily large healthy
        wave never trips it — only a wave in which nothing finishes for
        ``timeout`` seconds does.

        A coordinator outage mid-wait does not raise: the call keeps
        reconnecting with backoff (on top of each call's own retries)
        until the stall deadline — a restarted-and-resumed coordinator
        picks the build back up transparently.
        """
        job_ids = list(job_ids)
        deadline = time.monotonic() + timeout
        done_count = 0
        outage = 0
        while True:
            try:
                jobs = self._call({
                    "cmd": "wait", "job_ids": job_ids,
                    "seen_done": done_count,
                    "park_seconds": max(0.0, min(
                        PARK_SECONDS, deadline - time.monotonic()))},
                    retryable=True)["jobs"]
                outage = 0
            except CoordinatorUnreachable as exc:
                if time.monotonic() > deadline:
                    raise ClusterError(
                        f"coordinator unreachable for {timeout:.0f}s "
                        f"while waiting on {len(job_ids)} job(s): {exc}"
                    ) from exc
                self._reconnects.inc()
                outage += 1
                delay = self.retry.backoff(outage)
                _events.emit("warn", "coordinator unreachable; "
                             "waiting to reconnect", error=str(exc),
                             retry_in=round(delay, 3))
                self.retry.sleep(delay)
                continue
            failed = {job_id: rec for job_id, rec in jobs.items()
                      if rec["state"] == "failed"}
            if failed:
                details = "; ".join(
                    f"{job_id}: {rec['error']}" for job_id, rec
                    in sorted(failed.items()))
                raise ClusterError(f"{len(failed)} job(s) failed: {details}")
            if all(rec["state"] == "done" for rec in jobs.values()):
                return jobs
            now_done = sum(rec["state"] == "done" for rec in jobs.values())
            if now_done > done_count:
                done_count = now_done
                deadline = time.monotonic() + timeout
            if time.monotonic() > deadline:
                pending = sorted((job_id, rec) for job_id, rec in jobs.items()
                                 if rec["state"] != "done")
                details = "; ".join(
                    f"{job_id} [{rec['state']}"
                    + (f": {rec['error']}" if rec["error"] else "") + "]"
                    for job_id, rec in pending[:5])
                raise ClusterError(
                    f"timed out waiting for {len(pending)} job(s): {details}")


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
        the image: per-configuration ``ir-compile`` jobs that run side by
        side each compile the identities they share before either has
        published them. 0 when every IR was already on the store."""
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

    The client performs no compilation itself: it submits one stage job
    per configuration, then *replays* the warm build from the shared store
    (deserialization only) to obtain the manifests it needs for deployment
    planning, probes the ``lower`` index for warm ISAs, and submits the
    lower/deploy wave. All artifacts flow through ``store``. The lowering
    totals are the sums of what each job's own lowering loop counted, so
    they are exact whether the workers share ``cache`` or not.
    """
    from repro.apps import default_ir_sweep
    from repro.core import build_ir_container, lowering_cache_keys, plan_batch
    from repro.discovery import get_system

    if cache is None:
        cache = ArtifactCache(store)
    if not system_names:
        raise ClusterError("cluster build needs at least one system")
    if configs is None or options is None:
        default_configs, default_options = default_ir_sweep(app_name)
        configs = default_configs if configs is None else configs
        options = default_options if options is None else options
    build = BuildSpec(app=app_name, configs=tuple(configs), scale=scale)
    app = build.resolve_app()
    systems = [get_system(name) for name in system_names]

    # Job ids AND artifact keys are namespaced per submission. Ids so that
    # repeated builds against one long-lived coordinator never collide;
    # keys because the coordinator's published-key set is *memory of this
    # batch's sequencing*, not of store contents — the store is probed
    # fresh each build (a key published last week says nothing once GC has
    # evicted the artifacts behind it), so a stale unscoped key would let
    # gated deploys run before their lower job.
    batch_id = uuid.uuid4().hex[:8]

    def _batched(jobs: list[Job]) -> list[Job]:
        # Captured at submission: when the caller opened a recorded span
        # (`cluster build --trace`), every job carries the trace context
        # and the whole farm's spans correlate under one trace id.
        ctx = _trace.current()
        return [replace(job, job_id=f"{batch_id}/{job.job_id}",
                        requires=tuple(f"{batch_id}/{key}"
                                       for key in job.requires),
                        produces=tuple(f"{batch_id}/{key}"
                                       for key in job.produces),
                        trace=ctx)
                for job in jobs]

    # Phase 1+2: the build front (configure through ir-compile), one job
    # per configuration. The shared store dedups cross-config work between
    # jobs that run one after the other: whatever an earlier job published
    # (a preprocessed text by source, headers and defines; an IR by
    # preprocessed text and frontend flags) is a hit. Jobs running side
    # by side publish only when they finish, so each compiles what they
    # share — the report's duplicate_ir_compiles.
    with _trace.span("cluster.build.stage_wave",
                     attrs={"app": app_name, "configs": len(configs)}):
        stage_jobs = _batched([ir_compile_job(build, cfg) for cfg in configs])
        client.submit(stage_jobs)
        job_results = client.wait([job.job_id for job in stage_jobs],
                                  timeout=job_timeout)

    # Replay the warm build locally: every artifact now resolves from the
    # store, so this is deserialization, not compilation. Sync the index
    # with the shared ref first — the workers published through their own
    # cache handles, and without the merge this client would miss every
    # entry and silently redo the fan-out's work serially.
    with _trace.span("cluster.build.replay", attrs={"app": app_name}):
        cache.sync()
        result = build_ir_container(app, [dict(c) for c in configs],
                                    store=store, cache=cache)
        plan = plan_batch(result, app, options, systems,
                          simd_override=simd_override,
                          skip_incompatible=skip_incompatible)

    # Phase 3: store-aware scheduling. Probe the lower index per ISA
    # group; warm groups' deploy jobs are born ready (their lower key is
    # declared done), cold groups get one lower job each and their deploys
    # gate on it — cold compiles overlap with warm deploys.
    with _trace.span("cluster.build.probe",
                     attrs={"app": app_name, "groups": len(plan.groups)}):
        index_entries = cache.entries()
        index_keys = set(index_entries)
        needed_by_group = [
            (group,
             lowering_cache_keys(result, options, group.simd_name, cache))
            for group in plan.groups]
        # One batched existence probe covers every digest warm routing
        # relies on (N per-key `has` round-trips become one `has_many`):
        # an index entry whose blob a GC since removed must route its
        # group cold, not fail mid-deploy.
        present = store.has_many(sorted({
            index_entries[key].digest for _, needed in needed_by_group
            for key in needed if key in index_entries}))
    warm_groups: list[str] = []
    cold_groups: list[str] = []
    done_keys: list[str] = []
    lower_jobs: list[Job] = []
    warm_deploys: list[Job] = []
    cold_deploys: list[Job] = []
    for group, needed in needed_by_group:
        token = f"{group.family}/{group.simd_name}"
        warm = needed <= index_keys and all(
            present.get(index_entries[key].digest, False) for key in needed)
        (warm_groups if warm else cold_groups).append(token)
        if warm:
            done_keys.append(f"{batch_id}/" + lower_key(
                build, options, group.family, group.simd_name))
        else:
            lower_jobs.append(lower_job(build, options, group.family,
                                        group.simd_name))
        bucket = warm_deploys if warm else cold_deploys
        for name in group.systems:
            bucket.append(deploy_job(build, options, name, group.family,
                                     group.simd_name,
                                     simd_override=simd_override))

    lower_entries_before = _lower_entry_count(index_entries)
    # Submission order is queue order: cold lowers first (the long poles
    # start immediately), then the warm deploys they overlap with.
    with _trace.span("cluster.build.deploy_wave",
                     attrs={"app": app_name, "warm": len(warm_groups),
                            "cold": len(cold_groups)}):
        lower_jobs = _batched(lower_jobs)
        warm_deploys = _batched(warm_deploys)
        cold_deploys = _batched(cold_deploys)
        deploy_wave = lower_jobs + warm_deploys + cold_deploys
        client.submit(deploy_wave, done_keys=tuple(done_keys))
        job_results.update(client.wait([job.job_id for job in deploy_wave],
                                       timeout=job_timeout))

    results = [rec["result"] for rec in job_results.values()
               if rec.get("result")]
    by_system = {}
    for job in warm_deploys + cold_deploys:
        rec = job_results[job.job_id]
        if rec.get("result"):
            by_system[rec["result"]["system"]] = rec["result"]
    deployments = [by_system[name] for name in
                   [s.name for s in systems] if name in by_system]

    return ClusterBuildReport(
        app=app_name,
        plan_summary=plan.summary(),
        image_digest=result.image.digest,
        deployments=deployments,
        plan_groups=[{"family": g.family, "simd": g.simd_name,
                      "systems": list(g.systems)} for g in plan.groups],
        incompatible=dict(plan.incompatible),
        warm_groups=warm_groups,
        cold_groups=cold_groups,
        lowerings_performed=sum(r.get("lowerings_performed", 0)
                                for r in results),
        lowerings_reused=sum(r.get("lowerings_reused", 0) for r in results),
        lower_entries_created=(_lower_entry_count(cache.entries())
                               - lower_entries_before),
        build_stats=result.stats.to_json(),
        jobs={job_id: {key: rec[key] for key in (
                  "state", "worker", "attempts", "result",
                  "blocked_s", "queued_s", "run_s")}
              for job_id, rec in job_results.items()},
    )


# -- local cluster -------------------------------------------------------------


def autoscale_decision(ready_depth: int, running: int, live_workers: int,
                       min_workers: int, max_workers: int,
                       scale_threshold: float,
                       drained_seconds: float,
                       cooldown_seconds: float) -> str | None:
    """The elastic policy, as a pure function (unit-testable without a
    farm): ``"up"`` when the backlog per live worker exceeds the
    threshold and the fleet has headroom, ``"down"`` when the farm has
    been fully drained (nothing ready, nothing running) past the cooldown
    and the fleet is above its floor, ``None`` otherwise.

    ``ready_depth`` counts claimable jobs (shared queue plus every
    per-worker deque); blocked jobs are deliberately excluded — they
    cannot be executed yet, so spawning workers for them buys nothing.
    """
    if live_workers < max_workers and live_workers > 0 \
            and ready_depth / live_workers > scale_threshold:
        return "up"
    if live_workers > min_workers and ready_depth == 0 and running == 0 \
            and drained_seconds >= cooldown_seconds:
        return "down"
    return None


class LocalCluster:
    """A coordinator plus N workers, self-hosted for one process's benefit.

    ``mode="thread"`` spawns worker threads sharing one in-process
    store/cache — the default, what tests use and what the CLI runs over a
    memory-backed or served store (any :class:`BlobStore` works).
    ``mode="process"`` forks the workers from the calling process — real
    multi-core parallelism (the CLI over ``--store DIR``, the cluster
    benchmark, CI) for the price of a ``fork()``: a child holds every
    module the caller imported, where a launched interpreter compiles and
    imports the program again.
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

    ``elastic=True`` (thread mode) starts ``min_workers`` and lets a
    monitor thread drive the fleet against coordinator queue depth: scale
    *up* one worker whenever the claimable backlog per live worker
    exceeds ``scale_threshold``, scale *down* one idle worker after the
    farm has been drained for ``scale_cooldown_seconds`` — never below
    ``min_workers``, never above ``max_workers``. Retiring is a clean
    lease handoff: the worker's own stop event ends its loop, and its
    ``goodbye`` re-queues anything it still owned. Decisions are recorded
    in :attr:`scale_events`.
    """

    def __init__(self, workers: int = 2, mode: str = "thread",
                 store: BlobStore | None = None,
                 cache: ArtifactCache | None = None,
                 store_dir: str = "",
                 lease_seconds: float = 60.0,
                 elastic: bool = False,
                 min_workers: int = 1,
                 max_workers: int | None = None,
                 scale_threshold: float = 2.0,
                 scale_poll_seconds: float = 0.1,
                 scale_cooldown_seconds: float = 2.0,
                 local_tier_dir: str = ""):
        if mode not in ("thread", "process"):
            raise ClusterError(f"unknown LocalCluster mode {mode!r}")
        if mode == "process" and not store_dir:
            raise ClusterError("process-mode LocalCluster needs store_dir "
                               "(workers open their own FileBackend)")
        if elastic and mode != "thread":
            raise ClusterError("elastic scaling drives in-process worker "
                               "threads; process-mode fleets are fixed-size")
        if local_tier_dir and mode != "process":
            raise ClusterError("local_tier_dir applies to process-mode "
                               "workers (thread-mode workers share one "
                               "in-process cache; a private tier per worker "
                               "would sit behind it unused)")
        if store is None:
            if store_dir:
                store = BlobStore(FileBackend(store_dir))
            else:
                store = BlobStore()
        self.mode = mode
        self.n_workers = max(1, workers)
        self.elastic = elastic
        self.min_workers = max(1, min_workers)
        self.max_workers = max(self.min_workers,
                               max_workers if max_workers is not None
                               else self.n_workers)
        self.scale_threshold = scale_threshold
        self.scale_poll_seconds = scale_poll_seconds
        self.scale_cooldown_seconds = scale_cooldown_seconds
        self.local_tier_dir = local_tier_dir
        #: [{"action": "up"|"down", "workers": fleet size after}] in
        #: decision order — what the elastic tests (and curious callers)
        #: assert against.
        self.scale_events: list[dict] = []
        self.store = store
        self.cache = cache if cache is not None else ArtifactCache(
            store, flush_every=BULK_FLUSH_EVERY)
        self.store_dir = store_dir
        # A fixed fleet size lets the scheduler treat "excluded by every
        # worker" as terminal; an elastic fleet keeps that open — workers
        # may yet join.
        self.coordinator = Coordinator(
            lease_seconds=lease_seconds,
            expected_workers=None if elastic else self.n_workers)
        self.client: CoordinatorClient | None = None
        self.workers: list[ClusterWorker] = []
        self._threads: list[threading.Thread] = []
        #: Process mode: the forked workers, in ``proc-<i>`` order.
        self.worker_pids: list[int] = []
        self._stop = threading.Event()
        # Per-worker stop events (global stop sets them all) — what lets
        # the autoscaler retire exactly one worker.
        self._worker_stops: dict[str, threading.Event] = {}
        self._spawn_lock = threading.Lock()
        self._next_worker = 0
        self._scaler: threading.Thread | None = None

    def _spawn_worker(self, host: str, port: int) -> ClusterWorker:
        with self._spawn_lock:
            index = self._next_worker
            self._next_worker += 1
            worker = ClusterWorker(
                CoordinatorClient(host, port), self.store,
                cache=self.cache, worker_id=f"local-{index}")
            worker_stop = threading.Event()
            self._worker_stops[worker.worker_id] = worker_stop
            self.workers.append(worker)
            thread = threading.Thread(
                target=worker.run, kwargs={"stop": worker_stop},
                name=f"cluster-{worker.worker_id}", daemon=True)
            thread.start()
            self._threads.append(thread)
            return worker

    def _live_worker_ids(self) -> list[str]:
        return [worker.worker_id
                for worker, thread in zip(self.workers, self._threads)
                if thread.is_alive()
                and not self._worker_stops[worker.worker_id].is_set()]

    def _autoscale_loop(self, host: str, port: int) -> None:
        drained_since: float | None = None
        while not self._stop.wait(self.scale_poll_seconds):
            summary = self.coordinator.queue.telemetry_summary()
            states = summary["jobs"]["states"]
            ready = summary["shared_queue_depth"] + sum(
                entry.get("queue_depth", 0)
                for entry in summary["workers"].values())
            running = states.get("running", 0)
            now = time.monotonic()
            if ready == 0 and running == 0:
                drained_since = drained_since if drained_since is not None \
                    else now
            else:
                drained_since = None
            live = self._live_worker_ids()
            action = autoscale_decision(
                ready, running, len(live),
                self.min_workers, self.max_workers, self.scale_threshold,
                now - drained_since if drained_since is not None else 0.0,
                self.scale_cooldown_seconds)
            if action == "up":
                self._spawn_worker(host, port)
                self.scale_events.append(
                    {"action": "up", "workers": len(live) + 1})
                _events.emit("info", "autoscale up",
                             workers=len(live) + 1, ready_depth=ready,
                             running=running)
            elif action == "down":
                # Retire an *idle* worker: per-worker stop ends its loop;
                # its goodbye returns any owned queue entries. Prefer the
                # newest — the oldest tiers/caches are the warmest.
                idle = [wid for wid in live
                        if summary["workers"]
                        .get(wid, {}).get("running", 0) == 0]
                if idle:
                    self._worker_stops[idle[-1]].set()
                    drained_since = now  # one retirement per cooldown
                    self.scale_events.append(
                        {"action": "down", "workers": len(live) - 1})
                    _events.emit("info", "autoscale down",
                                 workers=len(live) - 1, retired=idle[-1])

    def _fork_worker(self, host: str, port: int, worker_id: str) -> int:
        """Fork one process-mode worker; returns its pid to the caller.
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
                         attrs={"mode": self.mode, "workers": self.n_workers}):
            # The server has been bound and listening since __init__: the
            # address exists, and its backlog holds a worker's connection
            # until the loop runs.
            host, port = self.coordinator.address
            if self.mode == "process":
                # Before the loop thread exists: a fork copies only the
                # calling thread, and this way none of ours is lost.
                for i in range(self.n_workers):
                    self.worker_pids.append(
                        self._fork_worker(host, port, f"proc-{i}"))
            self.coordinator.start()
            self.client = CoordinatorClient(host, port)
            if self.mode == "thread":
                initial = self.min_workers if self.elastic else self.n_workers
                for _ in range(initial):
                    self._spawn_worker(host, port)
                if self.elastic:
                    self._scaler = threading.Thread(
                        target=self._autoscale_loop, args=(host, port),
                        name="cluster-autoscaler", daemon=True)
                    self._scaler.start()
        return self

    def build(self, app_name: str, system_names: list[str],
              **kwargs) -> ClusterBuildReport:
        assert self.client is not None, "LocalCluster not started"
        return cluster_build(self.client, app_name, system_names,
                             self.store, cache=self.cache, **kwargs)

    def drain_spans(self) -> list:
        """Collect (and clear) every span the farm recorded: coordinator
        job-lifecycle spans, worker-pushed spans already absorbed there,
        and any thread-mode worker spans a failed push left behind."""
        spans = self.coordinator.queue.telemetry.recorder.drain()
        for worker in self.workers:
            spans.extend(worker.recorder.drain())
        return spans

    def stop(self) -> None:
        with _trace.span("cluster.local.stop"):
            self._stop.set()
            # Quiesce the autoscaler before signalling workers: it can be
            # mid-decision, and a worker spawned after this loop would never
            # see its stop event.
            if self._scaler is not None:
                self._scaler.join(timeout=10)
            for event in self._worker_stops.values():
                event.set()
            for thread in self._threads:
                thread.join(timeout=10)
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
