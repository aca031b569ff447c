"""Retry layer overhead on the fault-free path.

The ISSUE-10 acceptance benchmark: wrapping every store round-trip in
:class:`repro.util.retry.RetryPolicy` must cost nothing measurable when
nothing fails. The same farm-shaped publish/probe/pull workload as the
store I/O benchmark runs through a client with retries pinned off and
through the default retried client against a healthy server; the retried
run must land within 5% of the bare run (a noise floor absorbs the
sub-millisecond cells), and its retry counters must read zero — proof
the fast path never entered the backoff machinery.

The two modes run as back-to-back pairs, alternating which goes first,
and the verdict is the median of the per-pair differences: this machine
switches between a fast and a 2.5x slower phase for seconds at a time
(benchmarks/e2e/README.md, "Noise rules"), and a phase that covers the
trials of one mode only must not read as the retry layer's cost.

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
TRIALS = 5         # back-to-back pairs; odd, so the median is a pair

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
    within 5% (median of 5 paired differences), and zero retries
    actually taken."""
    modes = (("no_retry", NO_RETRY), ("retried", DEFAULT_STORE_RETRY))
    registries = {mode: MetricsRegistry() for mode, _ in modes}
    trials = {mode: [] for mode, _ in modes}
    for trial in range(TRIALS):
        for mode, retry in (modes if trial % 2 == 0 else modes[::-1]):
            with AsyncStoreServer(MemoryBackend()) as server:
                host, port = server.address
                trials[mode].append(_farm_workload(host, port, retry,
                                                   registries[mode]))
    results = {mode: {"best": min(runs), "trials": runs}
               for mode, runs in trials.items()}
    pair_overheads = sorted(retried - bare for bare, retried
                            in zip(trials["no_retry"], trials["retried"]))
    median_overhead = pair_overheads[TRIALS // 2]

    retries_taken = sum(
        value for key, value in
        registries["retried"].snapshot()["counters"].items()
        if key.startswith("store.retries"))
    ratio = results["retried"]["best"] / results["no_retry"]["best"]

    print_table(
        "Retry layer overhead: fault-free farm workload "
        f"({CLIENTS} clients, {TRIALS} alternated pairs)",
        ("mode", "best seconds", "trials"),
        [(mode, f"{run['best']:.3f}",
          " ".join(f"{s:.3f}" for s in run["trials"]))
         for mode, run in results.items()]
        + [("ratio", f"{ratio:.3f}x", f"retries taken: {retries_taken}"),
           ("median pair overhead", f"{median_overhead:.3f}", "")])
    bench_json("retry_overhead", {
        "clients": CLIENTS,
        "ops_per_client": PUTS + PROBES + 1 + GETS,
        "trials": TRIALS,
        "no_retry": results["no_retry"],
        "retried": results["retried"],
        "overhead_ratio": ratio,
        "median_pair_overhead_seconds": median_overhead,
        "retries_taken": retries_taken,
    })

    # The policy must never fire on a healthy link...
    assert retries_taken == 0
    # ...and must be invisible on the clock: within 5%, or within the
    # absolute noise floor when the whole run is a few dozen ms.
    slack = max(results["no_retry"]["best"] * (MAX_OVERHEAD_RATIO - 1),
                NOISE_FLOOR_SECONDS)
    assert median_overhead <= slack, results
