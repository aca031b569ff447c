"""Unified retry/backoff/deadline policy for wire-facing clients.

Every remote surface in the substrate (store clients, the cluster
coordinator client, the tiered write-back path) faces the same failure
shape: a transient wire error that a short wait cures. This module owns
the one policy they all share — capped exponential backoff with *full
jitter* (each delay drawn uniformly from ``[0, min(cap, base * 2**n)]``,
the decorrelation that keeps a thundering herd of workers from
re-synchronizing on a restarted server) bounded by both an attempt count
and a per-operation deadline budget.

The policy is mechanism only: *which* errors are retryable and *what* to
do between attempts (emit an event, bump a counter) stay with the
caller, because idempotency is a property of the operation, not of the
wire. A ``get`` can always be resent; a ``cas_ref`` must re-read and
verify instead (see :meth:`RemoteBackend.compare_and_set_ref`).

Deliberately stdlib-only — no telemetry imports — so the wire layer can
depend on it without cycles.
"""

from __future__ import annotations

import random
import time

__all__ = ["RetryPolicy", "NO_RETRY"]


class RetryPolicy:
    """Capped exponential backoff, full jitter, per-op deadline budget.

    ``max_attempts`` counts total tries (1 = no retries). ``deadline``
    bounds the whole operation including sleeps: a retry is only
    scheduled while ``elapsed + next_delay`` fits the budget, so a
    caller's worst case is ``deadline`` plus one attempt's own timeout —
    never an unbounded retry storm.
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
        #: The sleeper (injectable). Callers whose retry loop is not a
        #: single :meth:`call` — riding out an outage across many calls —
        #: pause with ``policy.sleep(policy.backoff(n))``.
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
        start = time.monotonic()
        attempt = 1
        while True:
            try:
                return fn()
            except retry_on as exc:
                if attempt >= self.max_attempts:
                    raise
                delay = self.backoff(attempt)
                if (self.deadline is not None
                        and time.monotonic() - start + delay > self.deadline):
                    raise
                if on_retry is not None:
                    on_retry(attempt, delay, exc)
                self.sleep(delay)
                attempt += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RetryPolicy(max_attempts={self.max_attempts}, "
                f"base_delay={self.base_delay}, max_delay={self.max_delay}, "
                f"deadline={self.deadline})")


#: The do-nothing policy: one attempt, zero added branches on the hot
#: path beyond a single ``enabled`` check. Benchmarks pin the retry
#: layer's fault-free overhead against this baseline.
NO_RETRY = RetryPolicy(max_attempts=1, deadline=None)
