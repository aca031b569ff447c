"""Retry layer overhead on the fault-free path.

The ISSUE-10 acceptance benchmark: wrapping every store round-trip in
:class:`repro.util.retry.RetryPolicy` must cost nothing measurable when
nothing fails. The same farm-shaped publish/probe/pull workload as the
store I/O benchmark runs through a client with retries pinned off and
through the default retried client against a healthy server; the retried
run must land within 5% of the bare run (a noise floor absorbs the
sub-millisecond cells), and its retry counters must read zero — proof
the fast path never entered the backoff machinery.

Results land in ``benchmarks/BENCH_retry_overhead.json``.
"""

import threading
import time

from repro.store import AsyncStoreServer, MemoryBackend, RemoteBackend
from repro.store.remote import DEFAULT_STORE_RETRY
from repro.telemetry import MetricsRegistry
from repro.util.hashing import content_digest
from repro.util.retry import NO_RETRY

from conftest import print_table

CLIENTS = 4
PUTS = 50          # artifacts published per client
PROBES = 80        # existence probes per client
GETS = 12          # peer-blob pulls per client
TRIALS = 5         # best-of, to shave scheduler noise off both modes

#: The acceptance bar, plus an absolute floor so a 2 ms jitter on a
#: 40 ms run cannot fail a policy that provably adds zero wire work.
MAX_OVERHEAD_RATIO = 1.05
NOISE_FLOOR_SECONDS = 0.05


def _farm_workload(host: str, port: int, retry, registry) -> float:
    """CLIENTS concurrent builders publish/probe/pull; returns seconds."""
    barrier = threading.Barrier(CLIENTS)
    errors: list[Exception] = []

    def builder(idx: int) -> None:
        backend = RemoteBackend(host, port, retry=retry, registry=registry)
        try:
            barrier.wait()
            digests = []
            for i in range(PUTS):
                payload = f"client-{idx} artifact-{i} ".encode() * 8
                digest = content_digest(payload)
                backend.put(digest, payload)
                digests.append(digest)
            backend.has_many(digests)
            for i in range(PROBES):
                backend.has(digests[i % len(digests)])
            for i in range(GETS):
                backend.get(digests[i % len(digests)])
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
        finally:
            backend.close()

    start = time.perf_counter()
    threads = [threading.Thread(target=builder, args=(i,))
               for i in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    seconds = time.perf_counter() - start
    assert not errors, errors
    return seconds


def test_retry_layer_is_free_when_nothing_fails(bench_json):
    """DEFAULT_STORE_RETRY vs NO_RETRY on identical healthy-server runs:
    within 5% (best-of-5), and zero retries actually taken."""
    results = {}
    registries = {"no_retry": MetricsRegistry(),
                  "retried": MetricsRegistry()}
    for mode, retry in (("no_retry", NO_RETRY),
                        ("retried", DEFAULT_STORE_RETRY)):
        trials = []
        for _ in range(TRIALS):
            with AsyncStoreServer(MemoryBackend()) as server:
                host, port = server.address
                trials.append(_farm_workload(host, port, retry,
                                             registries[mode]))
        results[mode] = {"best": min(trials), "trials": trials}

    retries_taken = sum(
        value for key, value in
        registries["retried"].snapshot()["counters"].items()
        if key.startswith("store.retries"))
    ratio = results["retried"]["best"] / results["no_retry"]["best"]

    print_table(
        "Retry layer overhead: fault-free farm workload "
        f"({CLIENTS} clients, best of {TRIALS})",
        ("mode", "best seconds", "trials"),
        [(mode, f"{run['best']:.3f}",
          " ".join(f"{s:.3f}" for s in run["trials"]))
         for mode, run in results.items()]
        + [("ratio", f"{ratio:.3f}x", f"retries taken: {retries_taken}")])
    bench_json("retry_overhead", {
        "clients": CLIENTS,
        "ops_per_client": PUTS + PROBES + 1 + GETS,
        "trials": TRIALS,
        "no_retry": results["no_retry"],
        "retried": results["retried"],
        "overhead_ratio": ratio,
        "retries_taken": retries_taken,
    })

    # The policy must never fire on a healthy link...
    assert retries_taken == 0
    # ...and must be invisible on the clock: within 5%, or within the
    # absolute noise floor when the whole run is a few dozen ms.
    slack = max(results["no_retry"]["best"] * (MAX_OVERHEAD_RATIO - 1),
                NOISE_FLOOR_SECONDS)
    assert results["retried"]["best"] <= results["no_retry"]["best"] + slack, \
        results
