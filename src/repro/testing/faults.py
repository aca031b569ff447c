"""Composable, deterministic fault injection.

Three layers, matching the three places a farm actually breaks:

* **Process level** — :func:`arm_fault_injection` implements the
  ``REPRO_FAULT_INJECT`` environment directive (``crash[:kind][@id]``):
  a worker dies mid-job with an :class:`_InjectedFault`, which is a
  ``BaseException`` so it escapes the per-job ``except Exception``
  failure reporting and reaches the installed flight recorder exactly
  like a real interpreter-level fault.
* **Backend level** — :class:`FaultyBackend` proxies any
  :class:`~repro.store.backend.Backend` and injects faults by rule:
  error every Kth call, fixed latency per op, ENOSPC once a write-byte
  budget is exhausted. Rules are per-op-name filterable and the
  schedule is a pure function of the call sequence — a failing chaos
  test replays identically.
* **Wire level** — :class:`FlakyProxy` sits as a TCP hop in front of a
  real server and misbehaves on the socket itself: refuse every Kth
  connection, drop a connection after N forwarded bytes, delay every
  forwarded chunk.
  This is the layer that exercises the retry/reconnect machinery the
  backend proxy cannot reach (half-written frames, mid-stream resets).

Everything here is test-facing; nothing in :mod:`repro` production code
depends on it.
"""

from __future__ import annotations

import errno
import os
import socket
import threading
import time

__all__ = ["FaultyBackend", "FlakyProxy", "InjectedFault",
           "arm_fault_injection"]


class _InjectedFault(BaseException):
    """An induced crash. Deliberately a ``BaseException``: it must escape
    ``except Exception`` failure handling and kill the process the way a
    real fault would. The class name is part of the crash-dump contract —
    CI asserts ``dump["exception"]["type"] == "_InjectedFault"``."""


#: Public alias; the underscored name is kept because flight-recorder
#: dumps record the class *name*.
InjectedFault = _InjectedFault


def arm_fault_injection(worker, spec: str) -> None:
    """Apply a ``REPRO_FAULT_INJECT`` directive to a cluster worker.

    ``crash[:kind][@worker-id]`` makes the worker die mid-job on the
    first matching execution; ``@worker-id`` targets one worker of a
    fleet sharing an environment, ``:kind`` one job kind.
    """
    directive, _, target = spec.partition("@")
    if target and target != worker.worker_id:
        return
    action, _, kind = directive.partition(":")
    if action != "crash":
        raise SystemExit(f"unknown REPRO_FAULT_INJECT directive {spec!r}")
    real_execute = worker.execute

    def _faulting_execute(job):
        if not kind or job.kind == kind:
            raise _InjectedFault(
                f"injected crash on {job.job_id} ({job.kind})")
        return real_execute(job)

    worker.execute = _faulting_execute


# -- backend-level faults ------------------------------------------------------


class _Rule:
    """One fault rule: fires on matching ops per its own call counter."""

    def __init__(self, ops, every: int, action, skip: int = 0):
        self.ops = frozenset(ops) if ops else None  # None = every op
        self.every = max(1, int(every))
        self.action = action
        self.skip = skip          # let this many matching calls through first
        self.count = 0

    def matches(self, op: str) -> bool:
        return self.ops is None or op in self.ops

    def tick(self, op: str) -> None:
        if not self.matches(op):
            return
        self.count += 1
        if self.count <= self.skip:
            return
        if (self.count - self.skip) % self.every == 0:
            self.action(op)


class FaultyBackend:
    """A :class:`Backend` proxy that injects faults by composable rule.

    Wraps any backend; every public method passes through its rule chain
    first. Rules are added fluently::

        flaky = (FaultyBackend(inner)
                 .fail_every(3, ops=("get",))        # every 3rd get dies
                 .add_latency(0.01)                  # 10ms on every op
                 .enospc_after(1 << 20))             # writes die past 1MiB

    Determinism: rule counters advance only on matching calls, so the
    fault schedule is a pure function of the operation sequence.
    ``injected`` counts faults raised, per op name.
    """

    def __init__(self, inner):
        # Underscored attributes dodge __getattr__'s delegation.
        self._inner = inner
        self._rules: list[_Rule] = []
        self._lock = threading.Lock()
        self._written = 0
        self.calls: dict[str, int] = {}
        self.injected: dict[str, int] = {}

    # -- rule construction (fluent) -------------------------------------------

    def fail_every(self, every: int, ops=None, exc=ConnectionError,
                   skip: int = 0) -> "FaultyBackend":
        """Raise ``exc`` on every ``every``-th matching call (after
        letting ``skip`` matching calls through untouched)."""

        def action(op: str) -> None:
            self._note_injected(op)
            raise exc(f"injected fault on {op!r} "
                      f"(every {every}, skip {skip})")

        self._rules.append(_Rule(ops, every, action, skip=skip))
        return self

    def add_latency(self, seconds: float, ops=None) -> "FaultyBackend":
        """Sleep ``seconds`` before every matching call — the slow-disk /
        congested-link simulant for timeout and overlap testing."""
        self._rules.append(_Rule(ops, 1, lambda _op: time.sleep(seconds)))
        return self

    def enospc_after(self, max_bytes: int) -> "FaultyBackend":
        """Writes fail with ``ENOSPC`` once the cumulative bytes put
        through this proxy exceed ``max_bytes`` — the full-disk scenario
        for write-path degradation tests."""
        self._enospc_limit = max_bytes
        return self

    _enospc_limit: int | None = None

    # -- proxying --------------------------------------------------------------

    _WRITE_OPS = frozenset(("put", "put_many"))

    def _note_injected(self, op: str) -> None:
        self.injected[op] = self.injected.get(op, 0) + 1

    def _before(self, op: str, args, kwargs) -> None:
        with self._lock:
            self.calls[op] = self.calls.get(op, 0) + 1
            if op in self._WRITE_OPS and self._enospc_limit is not None:
                size = sum(len(a) for a in args
                           if isinstance(a, (bytes, bytearray)))
                size += sum(len(b) for a in args if isinstance(a, (list,
                                                                   tuple))
                            for b in a if isinstance(b, (bytes, bytearray)))
                self._written += size
                if self._written > self._enospc_limit:
                    self._note_injected(op)
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC),
                                  f"injected ENOSPC on {op!r}")
        for rule in self._rules:
            rule.tick(op)

    def __getattr__(self, name: str):
        attr = getattr(self._inner, name)
        if name.startswith("_") or not callable(attr):
            return attr

        def wrapped(*args, **kwargs):
            self._before(name, args, kwargs)
            return attr(*args, **kwargs)

        wrapped.__name__ = name
        return wrapped


# -- wire-level faults ---------------------------------------------------------


class FlakyProxy:
    """A misbehaving TCP hop in front of a real server.

    Forwards ``127.0.0.1:<listen port>`` to ``(upstream_host,
    upstream_port)``, injecting socket-level faults the backend proxy
    cannot express: connections refused outright, connections dropped
    mid-stream after a byte budget, per-chunk forwarding delay. This is
    what half-written frames and mid-exchange resets look like to a
    pooled wire client — the exact surface the retry layer must survive.

    ``refuse_every=k`` closes every k-th *accepted* connection before any
    bytes flow (k=1 refuses everything). ``drop_after_bytes=n`` severs a
    connection once n bytes have been forwarded across both directions.
    ``latency`` sleeps before each forwarded chunk. All three are
    mutable at runtime (``proxy.refuse_every = 0`` heals the link), so a
    test can script an outage window.
    """

    def __init__(self, upstream_host: str, upstream_port: int,
                 refuse_every: int = 0, drop_after_bytes: int | None = None,
                 latency: float = 0.0):
        self.upstream = (upstream_host, upstream_port)
        self.refuse_every = refuse_every
        self.drop_after_bytes = drop_after_bytes
        self.latency = latency
        self.connections = 0
        self.refused = 0
        self.dropped = 0
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()

    def start(self) -> tuple[str, int]:
        self._listener = socket.socket()
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(64)
        thread = threading.Thread(target=self._accept_loop,
                                  name="flaky-proxy", daemon=True)
        thread.start()
        self._threads.append(thread)
        host, port = self._listener.getsockname()[:2]
        return str(host), int(port)

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stop.is_set():
            try:
                client, _addr = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            self.connections += 1
            if self.refuse_every and \
                    self.connections % self.refuse_every == 0:
                self.refused += 1
                client.close()
                continue
            try:
                server = socket.create_connection(self.upstream, timeout=10)
            except OSError:
                client.close()
                continue
            # Both directions share one byte budget and a close refcount:
            # the budget makes drop_after_bytes count total traffic, the
            # refcount keeps a clean half-close (a client that SHUT_WRs
            # after its request) from tearing down the response path.
            link = {"left": self.drop_after_bytes, "pumps": 2,
                    "lock": threading.Lock()}
            for src, dst in ((client, server), (server, client)):
                thread = threading.Thread(
                    target=self._pump, args=(src, dst, link),
                    daemon=True)
                thread.start()
                self._threads.append(thread)

    def _pump(self, src: socket.socket, dst: socket.socket,
              link: dict) -> None:
        severed = False
        try:
            while not self._stop.is_set():
                data = src.recv(65536)
                if not data:
                    break
                if self.latency:
                    time.sleep(self.latency)
                if link["left"] is not None:
                    link["left"] -= len(data)
                    if link["left"] < 0:
                        self.dropped += 1
                        severed = True
                        break  # sever mid-stream: partial frame delivered
                dst.sendall(data)
        except OSError:
            severed = True
        finally:
            if severed:
                # An injected drop (or a dead peer) kills the whole
                # connection — that is the fault being modeled.
                for sock in (src, dst):
                    try:
                        sock.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass
                    sock.close()
            else:
                # Clean EOF: forward the half-close and let the opposite
                # pump keep relaying; the last pump out closes both.
                try:
                    dst.shutdown(socket.SHUT_WR)
                except OSError:
                    pass
                with link["lock"]:
                    link["pumps"] -= 1
                    last = link["pumps"] == 0
                if last:
                    src.close()
                    dst.close()

    def stop(self) -> None:
        self._stop.set()
        if self._listener is not None:
            self._listener.close()
        for thread in self._threads:
            thread.join(timeout=2)

    def __enter__(self) -> "FlakyProxy":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
