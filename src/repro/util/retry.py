"""Unified retry/backoff/deadline policy for wire-facing clients.

Every remote surface in the substrate (the store client, the cluster
coordinator client and its session pool) faces the same failure
shape: a transient wire error that a short wait cures. This module owns
the one policy they all share — capped exponential backoff with *full
jitter* (each delay drawn uniformly from ``[0, min(cap, base * 2**n)]``,
the decorrelation that keeps a thundering herd of workers from
re-synchronizing on a restarted server) bounded by both an attempt count
and a deadline on how long the failures have lasted. It is the one loop
that rides out an outage: a caller that owns a longer budget (a worker's
``--max-coordinator-downtime``, a submitter's stall timeout) hands it
over with :meth:`RetryPolicy.lasting` instead of looping around the call.

The policy is mechanism only: *which* errors are retryable and *what* to
do between attempts (emit an event, bump a counter) stay with the
caller, because idempotency is a property of the operation, not of the
wire. A ``get`` can always be resent; a ``cas_ref`` must re-read and
verify instead (see :meth:`RemoteBackend.compare_and_set_ref`).

Deliberately stdlib-only — no telemetry imports — so the wire layer can
depend on it without cycles.
"""

from __future__ import annotations

import math
import random
import sys
import time

__all__ = ["RetryPolicy", "NO_RETRY"]


class RetryPolicy:
    """Capped exponential backoff, full jitter, an outage deadline.

    ``max_attempts`` counts total tries (1 = no retries). ``deadline``
    is how long the failures may last: its clock starts at the first
    failed attempt — an attempt that hangs before it fails spends none
    of it — and a pause that would outlast it is cut to what is left, so
    the last attempt lands at the deadline. A call gives up only once its
    failures have lasted ``deadline`` (or its attempts are spent): the
    caller's worst case is the time to the first failure, ``deadline``,
    and one attempt's own timeout — never an unbounded retry storm.
    """

    def __init__(self, max_attempts: int = 4, base_delay: float = 0.05,
                 max_delay: float = 2.0, deadline: float | None = 30.0,
                 rng: "random.Random | None" = None,
                 sleep=time.sleep):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.deadline = deadline
        self._rng = rng if rng is not None else random
        #: The sleeper (injectable, so tests can record the pauses).
        self.sleep = sleep

    @property
    def enabled(self) -> bool:
        return self.max_attempts > 1

    def backoff(self, attempt: int) -> float:
        """Full-jitter delay before retry number ``attempt`` (1-based)."""
        cap = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        return self._rng.uniform(0.0, cap)

    def call(self, fn, *, retry_on: tuple = (), on_retry=None):
        """Run ``fn()`` under this policy.

        ``retry_on`` is the exception tuple worth resending on (the
        caller's idempotency judgement). ``on_retry(attempt, delay,
        exc)`` fires before each backoff sleep — the hook where callers
        emit telemetry. The final failure always propagates unchanged.
        """
        if not retry_on or not self.enabled:
            return fn()
        first_failure = None
        attempt = 1
        while True:
            try:
                return fn()
            except retry_on as exc:
                now = time.monotonic()
                first_failure = now if first_failure is None else first_failure
                left = math.inf if self.deadline is None else \
                    self.deadline - (now - first_failure)
                if attempt >= self.max_attempts or left <= 0:
                    raise
                delay = min(self.backoff(attempt), left)
                if on_retry is not None:
                    on_retry(attempt, delay, exc)
                self.sleep(delay)
                attempt += 1

    def lasting(self, seconds: float) -> "RetryPolicy":
        """This backoff bounded by time alone: retry until the failures
        have lasted ``seconds``, however many attempts that takes."""
        return RetryPolicy(max_attempts=sys.maxsize,
                           base_delay=self.base_delay,
                           max_delay=self.max_delay, deadline=seconds,
                           rng=self._rng, sleep=self.sleep)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RetryPolicy(max_attempts={self.max_attempts}, "
                f"base_delay={self.base_delay}, max_delay={self.max_delay}, "
                f"deadline={self.deadline})")


#: The do-nothing policy: one attempt, zero added branches on the hot
#: path beyond a single ``enabled`` check. Benchmarks pin the retry
#: layer's fault-free overhead against this baseline.
NO_RETRY = RetryPolicy(max_attempts=1, deadline=None)
