"""The build-farm coordinator: job queue, leases, and the wire server.

The scheduler is a work-stealing queue over artifact-key dependencies:

* A job is **blocked** until every key in ``requires`` has been published
  (by a completed job, or up front via ``done_keys`` when the submitter's
  store probe found the artifacts already present — that probe is what
  makes scheduling store-aware).
* Ready jobs land on a per-worker deque when their affinity token already
  has an owner (the worker whose in-process cache holds the live objects),
  otherwise on the shared deque. An idle worker drains its own deque
  first, then the shared one, then **steals** from the back of the longest
  other deque — affinity is a hint, saturation wins.
* A fetched job is **leased**: if the worker neither completes nor fails
  it before the lease expires (crash, hang, dropped connection), it is
  re-queued with the dead worker excluded, so a poisoned worker cannot
  re-claim the job it just lost. Expiry is timer-driven: the nearest
  lease deadline is a wake-up of every parked request.
* ``fetch`` and ``wait`` **block**: an idle worker's ``fetch`` is parked
  on the wire loop until a job is eligible for it, a submitter's ``wait``
  until another of its jobs is done or one has failed. Every transition
  that can make a job claimable or terminal fires
  :attr:`JobQueue.on_change`, which wakes them — nobody polls.
* Completions are **idempotent**: a lease-expired worker that comes back
  and reports a result the coordinator already has is acknowledged and
  ignored — artifact publishes went through the content-addressed store,
  so the duplicate's work was a no-op by construction.

The coordinator never touches artifact bytes. Workers publish through the
shared store backend; the wire protocol — a command table on the same
:class:`~repro.store.wire_server.WireServer` loop the store server runs
on — carries job specs, artifact keys, and small JSON results only.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from repro.cluster.jobs import ClusterError, Job
from repro.cluster.journal import JOURNAL_VERSION, Journal
from repro.store.wire import fold_json_body, json_body
from repro.store.wire_server import Command, WireServer, size_field
from repro.telemetry import events as _events
from repro.telemetry.farm import FarmTelemetry
from repro.telemetry.trace import Span, new_span_id, service_name

#: A worker that missed its lease by this much is presumed dead.
DEFAULT_LEASE_SECONDS = 60.0
#: A job is abandoned after failing on this many distinct attempts.
DEFAULT_MAX_ATTEMPTS = 3
#: How long a blocking ``fetch`` or ``wait`` asks to be parked before it
#: is answered empty-handed and asked again. The requester sends it in
#: the request (``park_seconds``), clipped to whatever budget of its own
#: is shorter; it sits below the client's socket timeouts, so a park is
#: never mistaken for a dead coordinator.
PARK_SECONDS = 20.0

BLOCKED, READY, RUNNING, DONE, FAILED = \
    "blocked", "ready", "running", "done", "failed"


@dataclass
class JobRecord:
    job: Job
    state: str = BLOCKED
    attempts: int = 0
    excluded: set = field(default_factory=set)   # worker ids
    worker: str = ""
    lease_deadline: float = 0.0
    result: dict | None = None
    error: str = ""
    finished_at: float = 0.0  # monotonic time of reaching DONE/FAILED
    # Telemetry stamps (epoch seconds — comparable across processes) and
    # the span id the coordinator minted for the current execution; the
    # lifecycle spans are recorded when the job reaches a terminal state.
    # ``ready_at``/``started_at``/``ended_at`` are the latest attempt's.
    submitted_at: float = 0.0
    ready_at: float = 0.0
    started_at: float = 0.0
    ended_at: float = 0.0
    #: Submission to first READY: waiting on ``requires``, when nothing
    #: could have claimed the job — not the scheduler's doing.
    blocked_s: float = 0.0
    run_span_id: str = ""

    def to_json(self) -> dict:
        return {"state": self.state, "attempts": self.attempts,
                "worker": self.worker, "result": self.result,
                "error": self.error,
                "excluded": sorted(self.excluded),
                "blocked_s": round(self.blocked_s, 6),
                # READY to claimed: the scheduler's own latency.
                "queued_s": round(max(0.0, self.started_at - self.ready_at)
                                  if self.started_at else 0.0, 6),
                "run_s": round(max(0.0, self.ended_at - self.started_at)
                               if self.ended_at else 0.0, 6)}


@dataclass
class _WorkerInfo:
    last_seen: float = 0.0
    queue: deque = field(default_factory=deque)  # job ids with affinity here
    leaving: bool = False  # its next (or parked) fetch is answered idle


class JobQueue:
    """Thread-safe scheduler state; the server is a thin wire veneer over it.

    Also usable directly in-process — :class:`LocalCluster` threads and the
    scheduler unit tests drive it without a socket in between.
    """

    def __init__(self, lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 expected_workers: int | None = None):
        self.lease_seconds = lease_seconds
        self.max_attempts = max_attempts
        #: Fixed fleet size, when known (LocalCluster): once this many
        #: workers have registered, "excluded by every worker" is
        #: terminal — nobody else is coming. None = open cluster; new
        #: workers may join, so single-worker exclusion keeps waiting.
        self.expected_workers = expected_workers
        self._lock = threading.Lock()
        self._records: dict[str, JobRecord] = {}
        self._published: set[str] = set()
        self._workers: dict[str, _WorkerInfo] = {}
        self._shared: deque = deque()            # job ids without a bound owner
        self._affinity_owner: dict[str, str] = {}
        #: Optional :class:`~repro.cluster.journal.Journal` — when set,
        #: submissions checkpoint synchronously and terminal transitions
        #: mark it dirty for the write-behind autosave. Assigned by the
        #: coordinator *after* any restore, so replaying old state never
        #: re-checkpoints itself mid-restore.
        self.journal: Journal | None = None
        #: Called with no arguments — outside the lock, on whichever
        #: thread made the change — after every transition that can make
        #: a job claimable or terminal (submit, complete, fail, requeue,
        #: goodbye, lease expiry) and after :meth:`release`. The
        #: coordinator points it at :meth:`WireServer.wake`, so parked
        #: ``fetch``/``wait`` requests look again exactly then.
        self.on_change = None
        self._transitioned = False  # under the lock: on_change is owed
        #: Farm-wide aggregates: worker heartbeat metric deltas, pushed
        #: spans, job durations/throughput. Fed by the request handlers,
        #: read by the ``telemetry`` wire op (`repro cluster top`).
        self.telemetry = FarmTelemetry()

    @contextmanager
    def _transition(self):
        """Hold the lock; once it is released, fire :attr:`on_change` if
        anything inside turned a job READY or terminal."""
        owed = False
        try:
            with self._lock:
                try:
                    yield
                finally:
                    owed, self._transitioned = self._transitioned, False
        finally:
            if owed and self.on_change is not None:
                self.on_change()

    # -- submission ------------------------------------------------------------

    #: A long-lived coordinator prunes finished records past this many
    #: (down to half), so serving months of batches stays bounded. Far
    #: above any one batch's job count. Never pruned: non-terminal
    #: records, records whose batch (the ``<id>/`` job-id prefix) still
    #: has non-terminal siblings, and records finished more recently than
    #: the grace window — a submitter that just saw its last job finish
    #: must still be able to collect the result.
    PRUNE_THRESHOLD = 4096
    PRUNE_GRACE_SECONDS = 600.0

    def submit(self, jobs: list[Job], done_keys: tuple[str, ...] = ()) -> int:
        """Register jobs; ``done_keys`` marks artifacts already in the store."""
        now_epoch = time.time()
        with self._transition():
            self._prune_finished_locked()
            self._published.update(done_keys)
            for job in jobs:
                if job.job_id in self._records:
                    raise ClusterError(f"duplicate job id {job.job_id!r}")
                record = JobRecord(job=job, submitted_at=now_epoch)
                self._records[job.job_id] = record
                self._maybe_ready_locked(record)
            count = len(jobs)
        # Outside the lock (the checkpoint snapshot re-acquires it):
        # synchronous, so the specs are durable before submit returns.
        if self.journal is not None:
            self.journal.save_now()
        return count

    @staticmethod
    def _batch_of(job_id: str) -> str:
        return job_id.split("/", 1)[0]

    def _prune_finished_locked(self) -> None:
        if len(self._records) <= self.PRUNE_THRESHOLD:
            return
        now = time.monotonic()
        still_needed: set = set()
        active_batches: set = set()
        for job_id, record in self._records.items():
            if record.state not in (DONE, FAILED):
                still_needed.update(record.job.requires)
                active_batches.add(self._batch_of(job_id))
        for job_id in list(self._records):  # insertion order: oldest first
            if len(self._records) <= self.PRUNE_THRESHOLD // 2:
                break
            record = self._records[job_id]
            if record.state not in (DONE, FAILED):
                continue
            if self._batch_of(job_id) in active_batches:
                continue  # a sibling is in flight; its submitter waits on us
            if now - record.finished_at < self.PRUNE_GRACE_SECONDS:
                continue  # its submitter may not have seen the result yet
            for key in record.job.produces:
                if key not in still_needed:
                    self._published.discard(key)
            del self._records[job_id]
        # Keys no surviving record references — e.g. warm-group done_keys
        # from pruned batches, which no record ever *produced* — go too;
        # keys are batch-scoped, so nothing future can want them back.
        referenced: set = set()
        affinities: set = set()
        for record in self._records.values():
            referenced.update(record.job.requires)
            referenced.update(record.job.produces)
            if record.job.affinity:
                affinities.add(record.job.affinity)
        self._published &= referenced
        # Affinity claims age out with their batches too: keep tokens a
        # surviving record still carries or whose (scoped) key a survivor
        # references; months-old locality hints for pruned batches only
        # pin worker ids for nothing. A rerun re-claims on completion.
        live = referenced | {self._unscoped_key(k) for k in referenced} \
            | affinities
        for token in [t for t in self._affinity_owner if t not in live]:
            del self._affinity_owner[token]

    def _maybe_ready_locked(self, record: JobRecord) -> None:
        if record.state != BLOCKED:
            return
        if all(key in self._published for key in record.job.requires):
            record.state = READY
            record.ready_at = time.time()
            record.blocked_s = max(0.0, record.ready_at - record.submitted_at)
            self._enqueue_locked(record)
            self._transitioned = True

    def _enqueue_locked(self, record: JobRecord) -> None:
        owner = self._affinity_owner.get(record.job.affinity, "")
        if owner and owner in self._workers:
            self._workers[owner].queue.append(record.job.job_id)
        else:
            self._shared.append(record.job.job_id)

    # -- fetching (pull-based; any request doubles as a heartbeat) -------------

    def fetch(self, worker_id: str, now: float | None = None) -> Job | None:
        now = time.monotonic() if now is None else now
        with self._transition():
            info = self._touch_locked(worker_id, now)
            self._expire_leases_locked(now)
            job_id = (self._pop_eligible_locked(info.queue, worker_id)
                      or self._pop_eligible_locked(self._shared, worker_id)
                      or self._steal_locked(worker_id))
            if job_id is None:
                return None
            record = self._records[job_id]
            record.state = RUNNING
            record.worker = worker_id
            record.lease_deadline = now + self.lease_seconds
            record.started_at = time.time()
            affinity = record.job.affinity
            if affinity and affinity not in self._affinity_owner:
                self._affinity_owner[affinity] = worker_id
            if record.job.trace and record.job.trace.get("trace_id"):
                # Re-parent the job's trace context onto a span id minted
                # for *this* execution: the worker's spans nest under the
                # coordinator's ``cluster.job.run`` span (recorded when
                # the job finishes), which itself parents to the
                # submitter's request span.
                record.run_span_id = new_span_id()
                return replace(record.job, trace={
                    "trace_id": record.job.trace["trace_id"],
                    "parent_span_id": record.run_span_id})
            return record.job

    def _touch_locked(self, worker_id: str, now: float) -> _WorkerInfo:
        info = self._workers.setdefault(worker_id, _WorkerInfo())
        info.last_seen = now
        return info

    def _pop_eligible_locked(self, queue: deque, worker_id: str) -> str | None:
        """Pop the first job this worker may run; keep the rest in order."""
        for _ in range(len(queue)):
            job_id = queue.popleft()
            record = self._records.get(job_id)
            if record is None or record.state != READY:
                continue  # completed or re-queued elsewhere; drop stale entry
            if worker_id in record.excluded:
                queue.append(job_id)  # someone else's; rotate it to the back
                continue
            return job_id
        return None

    def _steal_locked(self, worker_id: str) -> str | None:
        victims = sorted(
            ((len(info.queue), wid) for wid, info in self._workers.items()
             if wid != worker_id and info.queue),
            reverse=True)
        for _count, victim in victims:
            job_id = self._pop_eligible_locked(
                self._workers[victim].queue, worker_id)
            if job_id is not None:
                return job_id
        return None

    # -- completion / failure --------------------------------------------------

    def complete(self, job_id: str, worker_id: str, result: dict) -> bool:
        """Record a result; returns False for a duplicate (already done).

        A duplicate completion is *acknowledged*, not an error: the job was
        re-queued past a dead lease, both executions published the same
        content-addressed artifacts, and only the first result is kept.
        """
        with self._transition():
            self._touch_locked(worker_id, time.monotonic())
            record = self._require_locked(job_id)
            if record.state in (DONE, FAILED):
                # DONE: classic duplicate. FAILED: a zombie finishing a
                # job the queue already gave up on — accepting it would
                # resurrect a terminal failure the submitter has acted
                # on (publishing keys, unblocking dependents) with no one
                # left to collect the results.
                return False
            record.state = DONE
            record.worker = worker_id
            record.result = result
            record.error = ""
            record.finished_at = time.monotonic()
            self._note_finished_locked(record, failed=False)
            self._published.update(record.job.produces)
            self._transitioned = True
            if self.journal is not None:
                self.journal.mark_dirty()  # folded in by autosave
            # Locality claim: the worker that just *published* these keys
            # is where jobs whose affinity token names them should run —
            # its local store tier holds the bytes before anyone else's.
            # Authoritative (not setdefault): the producer supersedes a
            # claim left by whoever first fetched a same-token job.
            # Affinity tokens are unscoped artifact keys while produces
            # are batch-prefixed, so claim the unscoped form too.
            for key in record.job.produces:
                self._affinity_owner[key] = worker_id
                unscoped = self._unscoped_key(key)
                if unscoped != key:
                    self._affinity_owner[unscoped] = worker_id
            for other in self._records.values():
                self._maybe_ready_locked(other)
            return True

    @staticmethod
    def _unscoped_key(key: str) -> str:
        """Strip the ``<batch_id>/`` prefix the submitting client scopes
        artifact keys with. Batch ids are short hex — no ``:`` — while
        every artifact key starts with a ``stage:...`` segment, so a
        colon-free first path segment can only be a batch prefix."""
        head, sep, rest = key.partition("/")
        if sep and ":" not in head:
            return rest
        return key

    def _note_finished_locked(self, record: JobRecord, failed: bool) -> None:
        """Feed one terminal job into the farm aggregates and — when the
        job carried a trace — record its lifecycle spans (queue wait and
        execution) into the telemetry recorder."""
        now = record.ended_at = time.time()
        duration = max(0.0, now - record.started_at) \
            if record.started_at else 0.0
        self.telemetry.note_job(duration, failed=failed,
                                kind=record.job.kind)
        trace_ctx = record.job.trace
        if not trace_ctx or not trace_ctx.get("trace_id"):
            return
        trace_id = trace_ctx["trace_id"]
        parent = trace_ctx.get("parent_span_id")
        attrs = {"job_id": record.job.job_id, "kind": record.job.kind,
                 "worker": record.worker, "state": record.state}
        recorder = self.telemetry.recorder
        if record.ready_at and record.started_at:
            # From READY, not from submission: time spent blocked on
            # ``requires`` is not queue wait (``blocked_s`` carries it).
            recorder.record(Span(
                name="cluster.job.queued", trace_id=trace_id,
                span_id=new_span_id(), parent_id=parent,
                start=record.ready_at,
                duration=max(0.0, record.started_at - record.ready_at),
                process=service_name() or "coordinator", pid=os.getpid(),
                attrs=attrs))
        if record.started_at:
            recorder.record(Span(
                name="cluster.job.run", trace_id=trace_id,
                # The span id handed to the worker as its parent — the
                # worker-side spans pushed with the result nest under it.
                span_id=record.run_span_id or new_span_id(),
                parent_id=parent, start=record.started_at,
                duration=duration,
                process=service_name() or "coordinator", pid=os.getpid(),
                attrs=attrs))

    def fail(self, job_id: str, worker_id: str, error: str) -> str:
        """A worker reported failure; re-queue without it, or give up."""
        with self._transition():
            self._touch_locked(worker_id, time.monotonic())
            record = self._require_locked(job_id)
            if record.state != RUNNING or record.worker != worker_id:
                return record.state  # stale report from a lost lease
            state = self._requeue_locked(record, worker_id, error)
            # An execution failure on every live worker is terminal even
            # below max_attempts: a fully-excluded READY job would rotate
            # in the queues unclaimable forever, hanging the submitter on
            # a timeout instead of surfacing the real error. The whole
            # fleet must be known-registered first: 2+ workers seen, or
            # the full expected fleet of a fixed-size cluster (covers
            # ``--workers 1``) — with fewer, peers may simply not have
            # asked yet, and the job must wait for them.
            fleet_known = len(self._workers) >= 2 or (
                self.expected_workers is not None
                and len(self._workers) >= self.expected_workers)
            if state == READY and fleet_known and \
                    all(w in record.excluded for w in self._workers):
                record.state = FAILED
                record.finished_at = time.monotonic()
                self._note_finished_locked(record, failed=True)
                state = FAILED
            if self.journal is not None:
                self.journal.mark_dirty()
            return state

    def _requeue_locked(self, record: JobRecord, worker_id: str,
                        error: str) -> str:
        record.excluded.add(worker_id)
        record.attempts += 1
        record.error = error
        record.worker = ""
        self._transitioned = True  # READY again, or terminally FAILED
        if self._affinity_owner.get(record.job.affinity) == worker_id:
            del self._affinity_owner[record.job.affinity]  # let another adopt
        if record.attempts >= self.max_attempts:
            record.state = FAILED
            record.finished_at = time.monotonic()
            self._note_finished_locked(record, failed=True)
            _events.emit("error", "job failed permanently",
                         job_id=record.job.job_id, worker=worker_id,
                         attempts=record.attempts, error=error)
        else:
            record.state = READY
            record.ready_at = time.time()
            self._enqueue_locked(record)
            _events.emit("warn", "job requeued",
                         job_id=record.job.job_id, worker=worker_id,
                         attempts=record.attempts, error=error)
        return record.state

    def _expire_leases_locked(self, now: float) -> None:
        for record in self._records.values():
            if record.state == RUNNING and record.lease_deadline <= now:
                _events.emit("warn", "lease expired",
                             job_id=record.job.job_id, worker=record.worker,
                             attempts=record.attempts,
                             lease_seconds=self.lease_seconds)
                self._requeue_locked(record, record.worker,
                                     f"lease expired on {record.worker!r}")

    def renew(self, job_id: str, worker_id: str,
              now: float | None = None) -> bool:
        """Extend a running job's lease — the heartbeat for long jobs.

        Only the current assignee can renew; a zombie whose lease already
        expired (and whose job was re-queued or re-leased) gets False and
        should stop working on it.
        """
        now = time.monotonic() if now is None else now
        with self._lock:
            self._touch_locked(worker_id, now)
            record = self._require_locked(job_id)
            if record.state != RUNNING or record.worker != worker_id:
                return False
            record.lease_deadline = now + self.lease_seconds
            return True

    def goodbye(self, worker_id: str) -> int:
        """A worker is leaving: re-queue its running jobs immediately."""
        with self._transition():
            requeued = 0
            for record in self._records.values():
                if record.state == RUNNING and record.worker == worker_id:
                    self._requeue_locked(record, worker_id,
                                         f"worker {worker_id!r} disconnected")
                    requeued += 1
            info = self._workers.pop(worker_id, None)
            if info is not None and info.queue:
                self._shared.extend(info.queue)
                self._transitioned = True
            for affinity in [a for a, w in self._affinity_owner.items()
                             if w == worker_id]:
                del self._affinity_owner[affinity]
            if requeued and self.journal is not None:
                self.journal.mark_dirty()
            return requeued

    def release(self, worker_id: str) -> None:
        """The worker is about to leave (its stop event was set): its
        parked fetch — or, should the two cross on the wire, its next
        one — is answered ``idle`` instead of waiting out the park.
        Unlike :meth:`goodbye` this touches no job: a worker released
        mid-job finishes it."""
        with self._transition():
            self._workers.setdefault(worker_id, _WorkerInfo()).leaving = True
            self._transitioned = True

    def take_release(self, worker_id: str) -> bool:
        """Whether ``worker_id`` was released; asking clears it."""
        with self._lock:
            info = self._workers.get(worker_id)
            leaving = info is not None and info.leaving
            if leaving:
                info.leaving = False
            return leaving

    # -- introspection ---------------------------------------------------------

    def _require_locked(self, job_id: str) -> JobRecord:
        try:
            return self._records[job_id]
        except KeyError:
            raise ClusterError(f"unknown job {job_id!r}") from None

    def status(self, job_ids: list[str] | None = None,
               now: float | None = None) -> dict[str, dict]:
        """Job states. Like every request it expires overdue leases
        first — a parked ``wait`` looks again at the nearest lease
        deadline (:meth:`lease_wait`), so a dead worker's jobs are
        re-queued on time even when no worker is asking."""
        with self._transition():
            self._expire_leases_locked(time.monotonic() if now is None
                                       else now)
            ids = list(self._records) if job_ids is None else job_ids
            return {job_id: self._require_locked(job_id).to_json()
                    for job_id in ids}

    def lease_wait(self, now: float | None = None) -> float | None:
        """Seconds until the nearest lease deadline — when a parked
        request must look again although nothing else changed — or None
        while nothing is running."""
        now = time.monotonic() if now is None else now
        with self._lock:
            deadlines = [record.lease_deadline
                         for record in self._records.values()
                         if record.state == RUNNING]
        return max(0.0, min(deadlines) - now) if deadlines else None

    def stats(self) -> dict:
        with self._lock:
            counts: dict[str, int] = {}
            for record in self._records.values():
                counts[record.state] = counts.get(record.state, 0) + 1
            return {
                "jobs": len(self._records),
                "states": counts,
                "workers": sorted(self._workers),
                "published_keys": len(self._published),
                "affinity_owners": dict(sorted(self._affinity_owner.items())),
            }

    def telemetry_summary(self, include_worker_metrics: bool = False) -> dict:
        """The live farm view behind the ``telemetry`` wire op: per-worker
        queue depth / running count / liveness from the scheduler joined
        with the heartbeat-fed :class:`FarmTelemetry` aggregates."""
        now = time.monotonic()
        with self._transition():
            self._expire_leases_locked(now)
            workers = {
                worker_id: {
                    "queue_depth": len(info.queue),
                    "running": 0,
                    "last_seen_seconds": round(max(0.0, now - info.last_seen),
                                               3),
                } for worker_id, info in self._workers.items()}
            counts: dict[str, int] = {}
            for record in self._records.values():
                counts[record.state] = counts.get(record.state, 0) + 1
                if record.state == RUNNING and record.worker in workers:
                    workers[record.worker]["running"] += 1
            shared_depth = len(self._shared)
            total = len(self._records)
        out = self.telemetry.summary(
            workers=workers, include_worker_metrics=include_worker_metrics)
        out["shared_queue_depth"] = shared_depth
        out["jobs"] = {"total": total, "states": counts}
        return out

    # -- checkpoint / restore (coordinator durability) -------------------------

    def checkpoint_state(self) -> dict:
        """A JSON-safe snapshot of everything a restarted coordinator
        needs: job specs, scheduler states, terminal results, the
        published-key set, and affinity claims. Deliberately *not*
        persisted: leases (monotonic deadlines die with the process —
        running jobs are re-queued on restore instead) and worker
        registrations (workers re-register by reconnecting)."""
        with self._lock:
            return {
                "version": JOURNAL_VERSION,
                "published": sorted(self._published),
                "affinity_owner": dict(self._affinity_owner),
                "records": [{
                    "job": record.job.to_json(),
                    "state": record.state,
                    "attempts": record.attempts,
                    "excluded": sorted(record.excluded),
                    "worker": record.worker,
                    "result": record.result,
                    "error": record.error,
                    "submitted_at": record.submitted_at,
                } for record in self._records.values()],
            }

    def restore(self, state: dict) -> dict:
        """Rebuild scheduler state from a :meth:`checkpoint_state` snapshot.

        Terminal jobs come back with their results so waiting submitters
        can still collect them. Non-terminal jobs — including ones that
        were *running* when the old process died — re-enter as blocked and
        are promoted through the normal readiness check, so a mid-crash
        job is simply re-queued lease-free. Records already present (a
        submitter re-submitted before we restored) are kept, not
        overwritten. Returns counts for the restore event."""
        counts = {"jobs": 0, "done": 0, "failed": 0, "requeued": 0,
                  "pending": 0}
        now = time.monotonic()
        with self._transition():
            self._published.update(state.get("published", ()))
            for token, owner in dict(state.get("affinity_owner",
                                               {})).items():
                self._affinity_owner.setdefault(token, owner)
            for blob in state.get("records", ()):
                job = Job.from_json(blob["job"])
                if job.job_id in self._records:
                    continue
                record = JobRecord(
                    job=job,
                    attempts=int(blob.get("attempts", 0)),
                    excluded=set(blob.get("excluded", ())),
                    result=blob.get("result"),
                    error=str(blob.get("error", "")),
                    submitted_at=float(blob.get("submitted_at") or 0.0))
                saved = blob.get("state", BLOCKED)
                counts["jobs"] += 1
                if saved in (DONE, FAILED):
                    record.state = saved
                    record.worker = str(blob.get("worker", ""))
                    # finished_at is monotonic (prune bookkeeping only);
                    # restamp so the grace window restarts from now.
                    record.finished_at = now
                    counts["done" if saved == DONE else "failed"] += 1
                else:
                    # BLOCKED, READY and RUNNING all come back as
                    # schedulable work: the lease died with the old
                    # process, and readiness is recomputed below.
                    record.state = BLOCKED
                    record.worker = ""
                    counts["requeued" if saved == RUNNING
                           else "pending"] += 1
                self._records[job.job_id] = record
            for record in self._records.values():
                self._maybe_ready_locked(record)
        return counts


# -- wire server ---------------------------------------------------------------


#: Reject request bodies larger than this — the coordinator protocol
#: carries job specs, metric deltas, and span batches, never blobs.
MAX_REQUEST_BODY_BYTES = 16 * 1024 * 1024


def _json_command(handler, timeout=None) -> Command:
    """Every coordinator command declares its body the same way: bulk
    optional fields (worker span batches, metric deltas) ride a JSON body
    declared by ``size`` + ``body_json`` so a chatty traced job can never
    overflow the one-line header frame; the decoded object extends the
    header before ``handler(req) -> (header, payload)`` sees it. With a
    ``timeout(req)`` the row may park (see :class:`Command`)."""
    return Command(
        lambda req, body: handler(fold_json_body(req, body)), size_field,
        timeout=timeout and (lambda req, body: timeout(req)))


def coordinator_commands(queue: JobQueue) -> "dict[str, Command]":
    """The coordinator's command table over ``queue``."""
    telemetry = queue.telemetry

    def absorb(req) -> None:
        # Heartbeats double as the telemetry channel: ``metrics`` carries
        # the worker's registry delta since its last successful send (see
        # repro.telemetry.farm), ``spans`` its finished job's trace.
        # Popped: a parked fetch runs again and must not count twice.
        telemetry.absorb_metrics(req.get("worker", ""),
                                 req.pop("metrics", None))
        telemetry.absorb_spans(req.pop("spans", None))

    def ping(req):
        return {"ok": True, "server": "cluster-coordinator"}, b""

    def submit(req):
        jobs = [Job.from_json(blob) for blob in req.get("jobs", ())]
        return {"ok": True, "submitted": queue.submit(
            jobs, tuple(req.get("done_keys", ())))}, b""

    def idle(req):
        return {"ok": True, "idle": True}, b""

    def fetch(req):
        """Parks until a job is eligible for this worker. The claim
        happens here, on the loop thread, in the step that buffers the
        answer on a connection known to be open — a worker that died
        while parked was dropped from the park table and owns nothing."""
        absorb(req)
        if queue.take_release(req["worker"]):
            return idle(req)
        job = queue.fetch(req["worker"])
        if job is None:
            return queue.lease_wait()
        # lease_seconds rides along so the worker can pace its renewal
        # heartbeat without a config channel.
        return {"ok": True, "job": job.to_json(),
                "lease_seconds": queue.lease_seconds}, b""

    def renew(req):
        absorb(req)
        return {"ok": True,
                "renewed": queue.renew(req["job_id"], req["worker"])}, b""

    def complete(req):
        absorb(req)
        return {"ok": True, "applied": queue.complete(
            req["job_id"], req["worker"], req.get("result") or {})}, b""

    def fail(req):
        absorb(req)
        return {"ok": True, "state": queue.fail(
            req["job_id"], req["worker"], req.get("error", ""))}, b""

    def status(req):
        return {"ok": True, "jobs": queue.status(req.get("job_ids"))}, b""

    def wait(req):
        """Parks until more of ``job_ids`` are done than the ``seen_done``
        the caller already knows of, or one has failed."""
        jobs = queue.status(list(req.get("job_ids") or ()))
        done = sum(rec["state"] == DONE for rec in jobs.values())
        if done == len(jobs) or done > int(req.get("seen_done") or 0) \
                or any(rec["state"] == FAILED for rec in jobs.values()):
            return {"ok": True, "jobs": jobs}, b""
        return queue.lease_wait()

    def release(req):
        queue.release(req["worker"])
        return {"ok": True}, b""

    def stats(req):
        return {"ok": True, "stats": queue.stats()}, b""

    def farm_telemetry(req):
        spans = (telemetry.recorder.drain() if req.get("drain_spans")
                 else telemetry.recorder.spans())
        # Spans and the farm metric history go in the response body — a
        # farm-wide drain can hold far more than one header line may
        # carry.
        return json_body(
            {"ok": True, "telemetry": queue.telemetry_summary(
                include_worker_metrics=bool(req.get("worker_metrics")))},
            {"spans": [span.to_json() for span in spans],
             "history": telemetry.history.to_json()})

    def goodbye(req):
        return {"ok": True, "requeued": queue.goodbye(req["worker"])}, b""

    handlers = {"ping": ping, "submit": submit,
                "renew": renew, "complete": complete, "fail": fail,
                "status": status, "stats": stats, "release": release,
                "telemetry": farm_telemetry, "goodbye": goodbye}
    table = {name: _json_command(handler)
             for name, handler in handlers.items()}
    # The two blocking calls: what they answer when the park runs out.
    table["fetch"] = _json_command(fetch, timeout=idle)
    table["wait"] = _json_command(wait, timeout=status)
    return table


class Coordinator:
    """Serve a :class:`JobQueue` to workers and submitters over TCP.

    Same lifecycle as :class:`~repro.store.async_server.AsyncStoreServer`:
    ``start()`` returns the bound address (port 0 lets the OS pick),
    ``stop()`` shuts the serve loop down, and the instance doubles as a
    context manager. Handlers run on the loop's executor exactly when a
    journal is attached (a submit then blocks on a store checkpoint);
    inline otherwise — the scheduler ops are microseconds. The two rows
    that park (``fetch``, ``wait``) touch only the queue and always run
    on the loop thread; :attr:`JobQueue.on_change` wakes them.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 expected_workers: int | None = None,
                 journal: Journal | None = None, resume: bool = False):
        self.queue = JobQueue(lease_seconds=lease_seconds,
                              max_attempts=max_attempts,
                              expected_workers=expected_workers)
        self.journal = journal
        if journal is not None:
            journal.source = self.queue.checkpoint_state
            if resume:
                state = journal.load()
                if state is not None:
                    counts = self.queue.restore(state)
                    _events.emit("info", "coordinator state restored",
                                 ref=journal.ref_name, **counts)
            # Attach only after any restore: replaying the checkpoint
            # must not itself trigger checkpoints.
            self.queue.journal = journal
            journal.start()
        #: The wire loop; its spans land next to the job-lifecycle spans
        #: the ``telemetry`` command drains.
        self.server = WireServer(
            coordinator_commands(self.queue), host=host, port=port,
            name="cluster.server", max_body_bytes=MAX_REQUEST_BODY_BYTES,
            executor_workers=4 if journal is not None else 0,
            recorder=self.queue.telemetry.recorder)
        self.queue.on_change = self.server.wake

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    def start(self) -> tuple[str, int]:
        return self.server.start()

    def stop(self) -> None:
        self.server.stop()  # answers what is parked: idle / current status
        if self.journal is not None:
            self.journal.stop()  # final zero-lag checkpoint

    def __enter__(self) -> "Coordinator":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
