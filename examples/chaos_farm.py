"""Chaos farm: a build that survives the failures it will meet in
production — flaky links, a store-server bounce, and a coordinator
crash resumed from its journal.

Walks what the fault-tolerance ISSUE adds:

1. **Retry policy up close** — full-jitter capped-exponential backoff
   with a wall-clock deadline, and the `store.retries` counters that
   make absorbed failures visible.
2. **Flaky link** — a `FlakyProxy` refusing every third connection sits
   between a client and a healthy store server; the retried client
   finishes the workload anyway, and the counters show what it rode out.
3. **Coordinator crash + resume** — a farm build loses its coordinator
   mid-batch; a new coordinator resumes from the journal ref in the
   shared store, the running job is re-queued, nothing is lost, and the
   blocked submitter's `wait()` reconnects on its own.

Run:  PYTHONPATH=src python examples/chaos_farm.py
"""

import threading
import time

from repro.cluster import Coordinator, CoordinatorClient, Journal
from repro.cluster.jobs import Job
from repro.store import AsyncStoreServer, MemoryBackend, RemoteBackend
from repro.telemetry import MetricsRegistry
from repro.testing import FlakyProxy
from repro.util.hashing import content_digest
from repro.util.retry import RetryPolicy


def retry_policy_mechanics() -> None:
    print("== RetryPolicy mechanics ==")
    policy = RetryPolicy(max_attempts=5, base_delay=0.1, max_delay=2.0,
                         deadline=30.0)
    envelope = [min(policy.max_delay, policy.base_delay * 2 ** (a - 1))
                for a in range(1, policy.max_attempts)]
    print(f"backoff envelope (jitter draws uniformly under it): {envelope}")

    calls = {"n": 0}

    def flaky_operation():
        calls["n"] += 1
        if calls["n"] < 3:
            raise ConnectionError("transient blip")
        return "ok"

    result = policy.call(flaky_operation, retry_on=(ConnectionError,),
                         on_retry=lambda attempt, delay, exc: print(
                             f"  attempt {attempt} failed ({exc}); "
                             f"retrying in {delay * 1000:.0f} ms"))
    print(f"succeeded on attempt {calls['n']}: {result!r}")


def flaky_link() -> None:
    print("\n== flaky link: refuse every 3rd connection ==")
    registry = MetricsRegistry()
    with AsyncStoreServer(MemoryBackend()) as server:
        proxy = FlakyProxy(*server.address, refuse_every=3)
        host, port = proxy.start()
        try:
            for i in range(12):
                # A fresh client per put: every operation must connect.
                backend = RemoteBackend(
                    host, port, registry=registry,
                    retry=RetryPolicy(max_attempts=5, base_delay=0.02))
                payload = f"artifact-{i}".encode()
                backend.put(content_digest(payload), payload)
                backend.close()
            print(f"12 puts finished; proxy refused "
                  f"{proxy.refused} of {proxy.connections} connections")
            retries = {key: value for key, value in
                       registry.snapshot()["counters"].items()
                       if key.startswith("store.retries")}
            print(f"absorbed failures, by op: {retries}")
        finally:
            proxy.stop()


def job(job_id: str, requires=(), produces=()) -> Job:
    return Job(job_id=job_id, kind="test", spec={},
               requires=tuple(requires), produces=tuple(produces))


def coordinator_crash_and_resume() -> None:
    print("\n== coordinator crash + journal resume ==")
    store = MemoryBackend()  # the journal lives next to the artifacts
    retry = RetryPolicy(max_attempts=30, base_delay=0.05, max_delay=0.3,
                        deadline=30.0)

    coordinator = Coordinator(journal=Journal(store, autosave_interval=0.05))
    coordinator.start()
    host, port = coordinator.address
    submitter = CoordinatorClient(host, port, retry=retry)
    worker = CoordinatorClient(host, port, retry=retry)

    submitter.submit([job("compile", produces=["obj"]),
                      job("link", requires=["obj"])])
    claimed = worker.fetch("w1")
    print(f"worker w1 is running {claimed.job_id!r}")

    results: dict = {}
    waiter = threading.Thread(
        target=lambda: results.update(
            submitter.wait(["compile", "link"], timeout=30)),
        daemon=True)
    waiter.start()
    time.sleep(0.2)  # let the autosaver checkpoint the in-flight state

    # Crash: kill the serve loop without any graceful journal flush.
    coordinator.server.stop()
    print("coordinator crashed mid-batch (no graceful shutdown)")

    resumed = Coordinator(port=port, resume=True,
                          journal=Journal(store, autosave_interval=0.05))
    resumed.start()
    try:
        print("new coordinator resumed from the journal on the same port")
        fresh = CoordinatorClient(host, port, retry=retry)
        requeued = fresh.fetch("w2")
        print(f"the crashed lease came back: w2 claimed "
              f"{requeued.job_id!r}")
        fresh.complete("compile", "w2", {"obj": "…"})
        final = fresh.fetch("w2")
        fresh.complete(final.job_id, "w2", {})

        waiter.join(timeout=30)
        states = {name: record["state"] for name, record in results.items()}
        print(f"submitter's wait() rode the outage out: {states}")
        reconnects = submitter.registry.snapshot()["counters"].get(
            "cluster.reconnects", 0)
        print(f"submitter reconnect attempts absorbed: {reconnects}")

        # The pre-crash worker's late report changes nothing.
        applied = worker.complete("compile", "w1", {"obj": "stale"})
        print(f"zombie completion from w1 applied: {applied} "
              "(first result wins)")
    finally:
        resumed.stop()


def main() -> None:
    retry_policy_mechanics()
    flaky_link()
    coordinator_crash_and_resume()


if __name__ == "__main__":
    main()
