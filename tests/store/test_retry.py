"""The retry/backoff layer: policy mechanics, and clients riding out a
flaky or bouncing store server.

tests/store/test_remote.py pins what happens with retries *off* (fail
loudly on the first wire fault); this file pins what the default-on
retry discipline buys: pooled clients reconnect through a server
bounce, interrupted streamed puts are re-sent whole, a late-starting
server is ridden out by the connect retry, and ``cas_ref`` recovers by
read-verify instead of a blind (and unsound) resend.
"""

import socket
import threading
import time

import pytest

from repro.store import AsyncStoreServer, MemoryBackend, RemoteBackend
from repro.store.remote import StoreUnavailable
from repro.telemetry import MetricsRegistry
from repro.testing import FlakyProxy
from repro.util.hashing import content_digest
from repro.util.retry import NO_RETRY, RetryPolicy


class _FixedRng:
    """rng stub: uniform(0, cap) returns cap — makes backoff deterministic
    and equal to the jitter envelope's upper bound."""

    def uniform(self, low, high):
        return high


def _retries_recorded(registry) -> int:
    """Sum of all store.retries counters across labels."""
    counters = registry.snapshot()["counters"]
    return sum(value for key, value in counters.items()
               if key.startswith("store.retries"))


class TestRetryPolicy:
    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(max_attempts=8, base_delay=0.1, max_delay=1.0,
                             rng=_FixedRng())
        # Envelope doubles per attempt until pinned at max_delay.
        assert [policy.backoff(n) for n in range(1, 6)] == \
            [0.1, 0.2, 0.4, 0.8, 1.0]

    def test_backoff_jitter_stays_in_envelope(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.1, max_delay=1.0)
        for attempt in (1, 2, 3, 10):
            cap = min(1.0, 0.1 * 2 ** (attempt - 1))
            for _ in range(50):
                assert 0.0 <= policy.backoff(attempt) <= cap

    def test_call_retries_then_succeeds(self):
        sleeps = []
        policy = RetryPolicy(max_attempts=4, base_delay=0.01,
                             sleep=sleeps.append)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ConnectionError("transient")
            return "ok"

        assert policy.call(flaky, retry_on=(ConnectionError,)) == "ok"
        assert len(attempts) == 3
        assert len(sleeps) == 2  # one backoff per retry, none after success

    def test_exhausted_attempts_propagate_final_error(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.001,
                             sleep=lambda _d: None)
        calls = []

        def always_fails():
            calls.append(1)
            raise ConnectionError("still down")

        with pytest.raises(ConnectionError, match="still down"):
            policy.call(always_fails, retry_on=(ConnectionError,))
        assert len(calls) == 3

    def test_unlisted_exception_is_never_retried(self):
        policy = RetryPolicy(max_attempts=5, sleep=lambda _d: None)
        calls = []

        def wrong_kind():
            calls.append(1)
            raise ValueError("semantic, not wire")

        with pytest.raises(ValueError):
            policy.call(wrong_kind, retry_on=(ConnectionError,))
        assert len(calls) == 1

    def test_deadline_bounds_total_retry_budget(self):
        """No retry is scheduled once elapsed + next delay would bust the
        deadline — a dead server fails in bounded time."""
        policy = RetryPolicy(max_attempts=100, base_delay=10.0,
                             max_delay=10.0, deadline=0.5,
                             rng=_FixedRng(), sleep=lambda _d: None)
        calls = []

        def always_fails():
            calls.append(1)
            raise ConnectionError("down")

        with pytest.raises(ConnectionError):
            policy.call(always_fails, retry_on=(ConnectionError,))
        # First attempt's 10s backoff already exceeds the 0.5s budget.
        assert len(calls) == 1

    def test_on_retry_hook_sees_attempt_delay_and_error(self):
        seen = []
        policy = RetryPolicy(max_attempts=3, base_delay=0.01,
                             rng=_FixedRng(), sleep=lambda _d: None)

        def flaky():
            if len(seen) < 2:
                raise ConnectionError("blip")
            return 42

        assert policy.call(flaky, retry_on=(ConnectionError,),
                           on_retry=lambda a, d, e: seen.append((a, d,
                                                                 str(e)))) \
            == 42
        assert seen == [(1, 0.01, "blip"), (2, 0.02, "blip")]

    def test_no_retry_sentinel_is_disabled(self):
        assert not NO_RETRY.enabled
        calls = []

        def fails():
            calls.append(1)
            raise ConnectionError("down")

        with pytest.raises(ConnectionError):
            NO_RETRY.call(fails, retry_on=(ConnectionError,))
        assert len(calls) == 1

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestConnectRetry:
    def test_client_rides_out_late_starting_server(self):
        """Ops issued before the store server is up succeed once it
        arrives — the pool's connect retry absorbs ECONNREFUSED — and
        every absorbed refusal is visible in store.retries."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            host, port = probe.getsockname()
        backend = RemoteBackend(host, port,
                                retry=RetryPolicy(max_attempts=20,
                                                  base_delay=0.05,
                                                  max_delay=0.2,
                                                  deadline=10.0))
        server_box = {}

        def start_later():
            time.sleep(0.4)
            server = AsyncStoreServer(MemoryBackend(), host=host, port=port)
            server.start()
            server_box["server"] = server

        thread = threading.Thread(target=start_later, daemon=True)
        thread.start()
        try:
            digest = content_digest(b"early bird")
            backend.put(digest, b"early bird")  # issued while nothing listens
            assert backend.get(digest) == b"early bird"
            assert _retries_recorded(backend.registry) > 0
        finally:
            thread.join()
            backend.close()
            server_box["server"].stop()

    def test_dead_server_still_fails_in_bounded_time(self):
        """Retry must not turn 'server is gone' into 'hang forever'."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            host, port = probe.getsockname()
        backend = RemoteBackend(host, port,
                                retry=RetryPolicy(max_attempts=3,
                                                  base_delay=0.01,
                                                  deadline=2.0))
        started = time.monotonic()
        with pytest.raises(OSError):
            backend.get_ref("r")
        assert time.monotonic() - started < 10.0


class TestFaultFreePath:
    def test_default_policy_takes_no_retry_on_a_healthy_server(self):
        """Concurrent builders publish, probe and pull through the default
        retried client: nothing fails and the backoff machinery is never
        entered."""
        clients, puts = 4, 20
        registry = MetricsRegistry()
        errors: list[Exception] = []
        barrier = threading.Barrier(clients)

        def builder(idx: int, host: str, port: int) -> None:
            backend = RemoteBackend(host, port, registry=registry)
            try:
                barrier.wait()
                digests = []
                for i in range(puts):
                    payload = f"client-{idx} artifact-{i} ".encode() * 8
                    digests.append(content_digest(payload))
                    backend.put(digests[-1], payload)
                assert all(backend.has_many(digests).values())
                for digest in digests:
                    assert backend.has(digest)
                    assert content_digest(backend.get(digest)) == digest
            except Exception as exc:  # surfaced below
                errors.append(exc)
            finally:
                backend.close()

        with AsyncStoreServer(MemoryBackend()) as server:
            threads = [threading.Thread(target=builder,
                                        args=(i, *server.address))
                       for i in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors, errors
        assert _retries_recorded(registry) == 0


class TestServerBounce:
    """The satellite scenarios: a store server dying and coming back,
    seen through a stable address (the proxy plays the stable :port)."""

    def test_pool_drops_stale_sockets_and_reconnects_after_bounce(self):
        """Warm pooled sockets killed by a server bounce are detected on
        reuse and replaced; the op completes against the restarted
        server without the caller seeing an error."""
        store = MemoryBackend()  # survives the bounce, like a FileBackend
        first = AsyncStoreServer(store)
        host, port = first.start()
        proxy = FlakyProxy(host, port)
        phost, pport = proxy.start()
        backend = RemoteBackend(phost, pport)
        try:
            digest = content_digest(b"before the bounce")
            backend.put(digest, b"before the bounce")
            opened = backend.connections_opened
            assert backend.pool_stats()["idle"] >= 1  # warm socket parked

            first.stop()  # bounce...
            # ...and a dead process takes its established sockets with it
            # (in-process handler threads would linger, so sever by hand).
            for session in list(backend._pool._idle):
                session.sock.shutdown(socket.SHUT_RDWR)
            second = AsyncStoreServer(store)
            proxy.upstream = second.start()
            try:
                assert backend.get(digest) == b"before the bounce"
                # The stale socket was discarded, not handed to the caller.
                assert backend.connections_opened > opened
            finally:
                second.stop()
        finally:
            backend.close()
            proxy.stop()

    def test_interrupted_streamed_put_resent_whole(self):
        """A chunked put severed mid-stream is retried as a complete
        resend; the stored blob is byte-identical and the retry is
        counted."""
        store = MemoryBackend()
        server = AsyncStoreServer(store)
        host, port = server.start()
        proxy = FlakyProxy(host, port)
        phost, pport = proxy.start()

        def healing_sleep(delay):
            # The outage window closes while the client backs off.
            proxy.drop_after_bytes = None
            time.sleep(min(delay, 0.05))

        backend = RemoteBackend(phost, pport, stream_threshold=1024,
                                retry=RetryPolicy(max_attempts=6,
                                                  base_delay=0.02,
                                                  max_delay=0.1,
                                                  deadline=10.0,
                                                  sleep=healing_sleep))
        try:
            blob = bytes(range(256)) * 1024  # 256 KiB: several wire chunks
            digest = content_digest(blob)
            # A proxy connection's byte budget is fixed at accept: the
            # put's fresh connection is the armed one.
            proxy.drop_after_bytes = 40_000
            backend.put(digest, blob)
            assert store.get(digest) == blob
            assert proxy.dropped >= 1  # the fault really fired
            assert _retries_recorded(backend.registry) > 0
        finally:
            backend.close()
            proxy.stop()
            server.stop()

    def test_mid_stream_get_interruption_retried(self):
        """A chunked get whose response dies mid-body never surfaces
        truncated bytes: the client retries and returns the whole blob."""
        store = MemoryBackend()
        server = AsyncStoreServer(store)
        host, port = server.start()
        blob = bytes(range(256)) * 1024
        digest = content_digest(blob)
        store.put(digest, blob)
        proxy = FlakyProxy(host, port)
        phost, pport = proxy.start()

        def healing_sleep(delay):
            proxy.drop_after_bytes = None
            time.sleep(min(delay, 0.05))

        backend = RemoteBackend(phost, pport, stream_threshold=1024,
                                retry=RetryPolicy(max_attempts=6,
                                                  base_delay=0.02,
                                                  max_delay=0.1,
                                                  deadline=10.0,
                                                  sleep=healing_sleep))
        try:
            proxy.drop_after_bytes = 40_000
            assert backend.get(digest) == blob
            assert proxy.dropped >= 1
        finally:
            backend.close()
            proxy.stop()
            server.stop()


class TestCasReadVerify:
    """compare_and_set_ref after a wire failure: the swap may or may not
    have applied, so recovery re-reads instead of blindly resending."""

    @pytest.fixture
    def served(self):
        with AsyncStoreServer(MemoryBackend()) as server:
            host, port = server.address
            backend = RemoteBackend(host, port)
            yield backend, server.backend
            backend.close()

    def _fail_first_cas(self, backend, monkeypatch):
        """First _cas_round_trip raises as if the response was lost; any
        later one runs for real."""
        real = backend._cas_round_trip
        state = {"failed": False}

        def flaky(name, expected, data):
            if not state["failed"]:
                state["failed"] = True
                raise StoreUnavailable("connection died mid-cas")
            return real(name, expected, data)

        monkeypatch.setattr(backend, "_cas_round_trip", flaky)
        return state

    def test_swap_landed_before_failure_reports_success(self, served,
                                                        monkeypatch):
        backend, store = served
        store.set_ref("idx", b"new")  # the lost response WAS a success
        self._fail_first_cas(backend, monkeypatch)
        assert backend.compare_and_set_ref("idx", b"old", b"new")
        assert store.get_ref("idx") == b"new"

    def test_swap_never_applied_resends(self, served, monkeypatch):
        backend, store = served
        store.set_ref("idx", b"old")  # the request never reached the server
        state = self._fail_first_cas(backend, monkeypatch)
        assert backend.compare_and_set_ref("idx", b"old", b"new")
        assert state["failed"]
        assert store.get_ref("idx") == b"new"

    def test_third_party_write_is_a_genuine_conflict(self, served,
                                                     monkeypatch):
        backend, store = served
        store.set_ref("idx", b"theirs")  # someone else won meanwhile
        self._fail_first_cas(backend, monkeypatch)
        assert not backend.compare_and_set_ref("idx", b"old", b"new")
        assert store.get_ref("idx") == b"theirs"

    def test_no_retry_propagates_the_wire_failure(self, served, monkeypatch):
        backend, store = served
        backend.retry = NO_RETRY
        self._fail_first_cas(backend, monkeypatch)
        with pytest.raises(StoreUnavailable):
            backend.compare_and_set_ref("idx", None, b"v")
