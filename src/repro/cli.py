"""xaas-deploy — the command-line deployment tool (paper Sec. 5.2).

"We introduce a new deployment tool customized for HPC specialization, but
all other steps of container management ... are conducted with standard and
existing container tools." This module is that tool for the simulated world.
Every command is one row of :data:`COMMANDS`; ``build_parser()`` is a loop
over that table::

    discover            detect a system's features (Fig. 4b)
    analyze             extract an app's specialization points (Fig. 4a)
    intersect           intersect app x system (Fig. 4c)
    ir-build            run the IR-container pipeline (Fig. 7)
    deploy              deploy a source or IR container to one system
    deploy-batch        deploy one IR container to many systems at once
    bench               build natively and predict a workload run
    cluster serve       run the build-farm job coordinator
    cluster worker      run one build worker
    cluster build       build + deploy a batch through the farm
    cluster status      one snapshot of the farm: jobs, duration, workers
    cache stats         store size and index statistics
    cache serve         serve a store directory to other processes
    cache gc            bound the store (TTL and/or byte budget)
    cache export        pack the store into one archive
    cache import        merge an exported archive into the store
    telemetry report    render a flight-recorder crash dump

**The one store rule.** Every command that opens an artifact store takes
the same mutually exclusive pair, ``--store DIR`` (a sharded file backend
in DIR) or ``--store-server HOST:PORT`` (a store served by ``cache
serve``), and opens it in one place (:func:`_open_backend`). Build
commands may omit both and work in memory; ``cluster worker`` and the
``cache`` commands need one; ``cache serve`` serves a directory, so it
takes ``--store DIR`` only; ``cluster serve`` opens none. With a
persistent store, repeated builds — including in fresh processes —
replay preprocessed text, IR modules and lowered machine modules instead
of recomputing them, and the images a command produces are pinned
against garbage collection::

    python -m repro.cli ir-build --app lulesh --store /tmp/xaas-store
    python -m repro.cli deploy --app lulesh --system ault23 --mode ir \
        --store /tmp/xaas-store --json
    python -m repro.cli deploy-batch --app lulesh --systems ault23,ault25 \
        --store /tmp/xaas-store --image sha256:...   # ir-build's digest
    python -m repro.cli cache stats --store /tmp/xaas-store --json
    python -m repro.cli cache gc --store /tmp/xaas-store --max-bytes 1000000
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

from repro.apps import app_model, default_ir_sweep
from repro.containers import ArtifactCache, BlobStore
from repro.containers.store import BULK_FLUSH_EVERY
from repro.store import (BackendError, FileBackend, RemoteBackend,
                         export_store, import_store)
from repro.store.wire_server import DEFAULT_MAX_BODY_BYTES
from repro.core import (
    IRContainerResult,
    build_ir_container,
    build_source_image,
    default_selection,
    deploy_batch,
    deploy_ir_container,
    deploy_source_container,
    intersect_specializations,
)
from repro.discovery import analyze_build_script, get_system
from repro.discovery.system import SYSTEMS
from repro.perf import build_app, run_workload

#: One constant sizes gromacs on every CLI path — single-process and farm
#: builds must use the same tree or deployments stop being byte-identical.
GROMACS_CLI_SCALE = 0.02

#: CLI-exposed apps, resolved through the shared repro.apps registry
#: (qespresso stays library-only). The cluster paths pass the same scale
#: through BuildSpec so workers rebuild the identical tree.
CLI_APP_SCALE = {"gromacs": GROMACS_CLI_SCALE}
APPS = {name: (lambda n=name: app_model(n, CLI_APP_SCALE.get(n)))
        for name in ("gromacs", "lulesh", "llama.cpp")}

#: OpenMP threads of a predicted workload run (`deploy --workload`, `bench`).
WORKLOAD_THREADS = 16


def _app(name: str):
    try:
        return APPS[name]()
    except KeyError:
        raise SystemExit(f"unknown app {name!r}; known: {sorted(APPS)}")


# -- the option vocabulary -----------------------------------------------------
# Each option is declared once; a row of COMMANDS lists the ones it takes,
# deriving a variant with ``but(...)`` where only required-ness, a default
# or the help text differs.


class Option:
    """One ``add_argument`` call."""

    def __init__(self, *flags: str, **kwargs):
        self.flags = flags
        self.kwargs = kwargs

    def but(self, **overrides) -> "Option":
        return Option(*self.flags, **{**self.kwargs, **overrides})

    def add_to(self, parser) -> None:
        parser.add_argument(*self.flags, **self.kwargs)


class OneOf:
    """A mutually exclusive group of options."""

    def __init__(self, *options: Option, required: bool = False):
        self.options = options
        self.required = required

    def add_to(self, parser) -> None:
        group = parser.add_mutually_exclusive_group(required=self.required)
        for option in self.options:
            option.add_to(group)


def _address(spec: str) -> tuple[str, int]:
    """``HOST:PORT`` -> ``(host, port)``. argparse prefixes the error with
    the option being parsed, so the message names the right flag."""
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise argparse.ArgumentTypeError(f"wants HOST:PORT, got {spec!r}")
    return host or "127.0.0.1", int(port)


APP = Option("--app", required=True, choices=sorted(APPS))
SYSTEM = Option("--system", required=True, choices=sorted(SYSTEMS))
SYSTEM_LIST = Option("--systems", required=True,
                     help="comma-separated system names (e.g. ault23,ault25)")
WORKLOAD = Option("--workload", default="")
JSON = Option("--json", action="store_true", help="machine-readable output")
TRACE = Option("--trace", default="", metavar="OUT.json",
               help="write a Chrome trace-event file of the command (load "
                    "it at ui.perfetto.dev); farm builds correlate client, "
                    "coordinator, worker and store-server spans under one "
                    "trace id")
COORDINATOR = Option("--coordinator", type=_address, metavar="HOST:PORT",
                     help="the farm coordinator started by `cluster serve`")
STORE = Option("--store", default="", metavar="DIR",
               help="persistent artifact-store directory (file backend)")
STORE_SERVER = Option("--store-server", type=_address, metavar="HOST:PORT",
                      help="store served by `cache serve`")
#: The one store rule: a directory or a served store, never both.
STORE_GROUP = OneOf(STORE, STORE_SERVER)
STORE_REQUIRED = OneOf(STORE, STORE_SERVER, required=True)
HOST = Option("--host", default="127.0.0.1")
PORT = Option("--port", type=int, default=0,
              help="0 lets the OS pick; the address is printed")
SKIP_INCOMPATIBLE = Option("--skip-incompatible", action="store_true",
                           help="skip systems the IR container cannot run on")
IMAGE = Option("--image", default="", metavar="DIGEST",
               help="deploy this `ir-build` image instead of building one")
WORKERS = Option("--workers", type=int, default=0,
                 help="route the batch through a self-hosted farm of N "
                      "forked worker processes over --store DIR, or a "
                      "temporary directory without it (0 = classic "
                      "single-process path)")


# -- what a handler opens, and how it lets go of it ----------------------------


def _open_backend(args, registry=None):
    """The store a command works against — the only place the CLI builds
    one. ``--store DIR`` opens the sharded file backend, ``--store-server``
    a pooled wire client (one warm connection, not one per operation;
    ``registry`` puts its request latencies in the caller's metrics) whose
    sessions ``main`` releases when the handler exits; with neither the
    value is None and the caller works in memory."""
    if args.store:
        return FileBackend(args.store)
    if args.store_server:
        backend = RemoteBackend(*args.store_server, registry=registry)
        args.closing.callback(backend.close)
        return backend
    return None


def _open_store(args, farm: bool = False) -> tuple[BlobStore, ArtifactCache]:
    """The build substrate over the command's store.

    On a persistent backend the ArtifactCache loads its access-ordered
    index — a fresh process starts warm from whatever earlier builds
    persisted. ``farm=True`` batches publishes — payload blobs and index
    saves — the way cluster workers do (per-put index rewrites are
    O(n^2) at scale); the cluster flushes at every job boundary, so
    nothing is lost on a clean exit.
    """
    store = BlobStore(_open_backend(args))
    return store, ArtifactCache(
        store, flush_every=BULK_FLUSH_EVERY if farm else 1)


def _coordinator_client(args):
    """A pooled client of ``--coordinator``, closed when the handler
    exits."""
    from repro.cluster import CoordinatorClient
    client = CoordinatorClient(*args.coordinator)
    args.closing.callback(client.close)
    return client


@contextlib.contextmanager
def _tracing(args, store: BlobStore, **attrs):
    """``--trace OUT.json``: record the block under the command's root
    span and write the Chrome trace-event file on the way out. Yields the
    list a handler appends its farm's spans to (:class:`Span` objects
    from a LocalCluster, wire-form dicts from a coordinator) — None when
    tracing is off, so handlers skip collection. A served store's
    buffered spans are drained here; that must never fail a finished
    build."""
    if not args.trace:
        yield None
        return
    from repro.telemetry import trace as _trace
    from repro.telemetry.export import write_chrome_trace
    recorder = _trace.TraceRecorder()
    _trace.set_service("client")
    extra: list = []
    with _trace.recording(recorder), \
            _trace.span("cli." + "-".join(args.path), attrs=attrs):
        yield extra
        if args.store_server:
            try:
                extra.extend(
                    store.backend.telemetry(drain_spans=True)["spans"])
            except Exception:
                pass
    spans = recorder.drain()
    spans.extend(blob if isinstance(blob, _trace.Span)
                 else _trace.Span.from_json(blob) for blob in extra)
    write_chrome_trace(args.trace, spans)
    print(f"trace: wrote {len(spans)} spans to {args.trace}", file=sys.stderr)


def _serve(service: str, what: str, open_server: Callable[[], tuple]):
    """Run one server process until interrupted; returns the stopped
    server. ``service`` labels the spans and events the process records
    (the Perfetto track name in an exported farm trace), so it is set
    before ``open_server()`` builds ``(server, recorder, registry)``;
    crash dumps (and on-demand SIGUSR2 dumps) then carry that server's
    span buffer and metric registry, not the process-global defaults."""
    from repro.telemetry import flightrec as _flightrec
    from repro.telemetry import trace as _trace
    _trace.set_service(service)
    server, recorder, registry = open_server()
    _flightrec.install(recorder=recorder, registry=registry)
    host, port = server.start()
    print(f"{what} listening on {host}:{port}", flush=True)
    try:
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return server


def _print_json(blob) -> int:
    """``--json``: the one machine-readable rendering."""
    print(json.dumps(blob, indent=2, sort_keys=True))
    return 0


def _parse_systems(spec: str) -> list:
    systems = []
    for name in spec.split(","):
        name = name.strip()
        if not name:
            continue
        try:
            systems.append(get_system(name))
        except KeyError as exc:
            raise SystemExit(exc.args[0])
    if not systems:
        raise SystemExit("--systems needs at least one system name")
    return systems


def _ir_container(args, app, configs, chosen, store, cache):
    """``--image DIGEST`` opens that built IR container for the ``chosen``
    configuration, building nothing; without it the command builds one."""
    if not args.image:
        return build_ir_container(app, configs, store=store, cache=cache)
    try:
        return IRContainerResult.load(args.image, store, chosen)
    except (KeyError, ValueError) as exc:  # not on the store, not baked in
        raise SystemExit(f"--image {args.image}: no IR container on the "
                         f"store holds this configuration ({exc})")


# -- handlers ------------------------------------------------------------------


def cmd_discover(args) -> int:
    """Print the system-features JSON (Fig. 4b)."""
    return _print_json(get_system(args.system).detect_features())


def cmd_analyze(args) -> int:
    """Print the application's specialization points (Fig. 4a)."""
    return _print_json(analyze_build_script(_app(args.app).tree))


def cmd_intersect(args) -> int:
    """Print the common specialization points (Fig. 4c) and the defaults."""
    app = _app(args.app)
    system = get_system(args.system)
    common = intersect_specializations(analyze_build_script(app.tree), system)
    out = common.to_json()
    out["operator_default_selection"] = default_selection(common, system)
    return _print_json(out)


def cmd_ir_build(args) -> int:
    """Run the IR-container pipeline and print the dedup statistics."""
    app = _app(args.app)
    configs, _ = default_ir_sweep(args.app)
    store, cache = _open_store(args)
    with _tracing(args, store, app=args.app):
        result = build_ir_container(app, configs, store=store, cache=cache,
                                    compile_irs=not args.stats_only)
    if cache.persistent and not args.stats_only:
        # Pin the image manifest: GC follows digest references inside
        # pinned blobs, so config and layers stay deployable too.
        cache.pin(f"image/{args.app}", result.image.digest)
    if args.json:
        return _print_json({
            "app": args.app,
            "stats": result.stats.to_json(),
            "image_digest": result.image.digest,
            "image_size_bytes": result.image.total_size,
        })
    print(result.stats.summary())
    print(f"image digest: {result.image.digest}")
    print(f"image size: {result.image.total_size} bytes")
    return 0


def cmd_deploy(args) -> int:
    """Deploy a source or IR container to a system and predict a run."""
    app = _app(args.app)
    system = get_system(args.system)
    store, cache = _open_store(args)
    build_stats = None
    deploy_cache: dict = {}
    mode = "ir" if args.image else args.mode
    if mode == "source":
        arch = "arm64" if system.architecture == "arm64" else "amd64"
        sc = build_source_image(app, store, arch=arch)
        dep = deploy_source_container(
            sc, system, store,
            build_host=None if system.supports_container_build
            else get_system("dev-machine"))
        if not args.json:
            print("selection:", json.dumps(dep.selection, sort_keys=True))
    else:
        configs, chosen = default_ir_sweep(args.app)
        result = _ir_container(args, app, configs, chosen, store, cache)
        dep = deploy_ir_container(result, app, chosen, system, store,
                                  cache=cache)
        deploy_cache = {"lower": {"hits": dep.lowerings_reused,
                                  "misses": dep.lowerings_performed}}
        build_stats = result.stats.to_json()
        if cache.persistent:
            cache.flush_index()  # the deploy's hits bumped recency in memory
            cache.pin(f"image/{args.app}", result.image.digest)
            cache.pin(f"deploy/{args.app}@{system.name}", dep.image.digest)
        if not args.json:
            print(f"lowered ISA: {dep.simd_name}")
    report = run_workload(dep.artifact, system, args.workload,
                          threads=WORKLOAD_THREADS) if args.workload else None
    if args.json:
        blob = {
            "app": args.app, "system": system.name, "mode": mode,
            "tag": dep.tag,
            # The cold-start acceptance check: a warm persistent store
            # makes every build op zero and every deploy lookup a hit.
            "deploy_cache": deploy_cache,
        }
        if build_stats is not None:
            blob["build_stats"] = build_stats
            blob["simd"] = dep.simd_name
            blob["lowered_count"] = dep.lowered_count
        if report is not None:
            blob["workload"] = {
                "name": args.workload,
                "total_seconds": report.total_seconds,
                "kernel_seconds": dict(sorted(report.kernel_seconds.items())),
                "library_seconds": report.library_seconds,
                "gpu_seconds": report.gpu_seconds,
            }
        return _print_json(blob)
    print(f"image tag: {dep.tag}")
    if report is not None:
        print(report)
    return 0


def cmd_deploy_batch(args) -> int:
    """Build one IR container and deploy it to many systems in one batch."""
    from repro.core import IRDeploymentError
    if args.workers > 0:
        # Route the batch through a self-hosted build farm: N workers
        # pulling jobs from a LocalCluster coordinator, all publishing
        # through this command's store.
        return _farm_build(args, note=f"{args.workers} workers")
    app = _app(args.app)
    systems = _parse_systems(args.systems)
    configs, chosen = default_ir_sweep(args.app)
    store, cache = _open_store(args)
    with _tracing(args, store, app=args.app, systems=len(systems)):
        result = _ir_container(args, app, configs, chosen, store, cache)
        if cache.persistent:
            cache.pin(f"image/{args.app}", result.image.digest)
        try:
            batch = deploy_batch(result, app, chosen, systems, store,
                                 cache=cache,
                                 skip_incompatible=args.skip_incompatible)
        except IRDeploymentError as exc:
            raise SystemExit(
                f"deploy-batch failed: {exc}\n"
                "(--skip-incompatible deploys to the compatible systems only)")
    if args.json:
        return _print_json({
            "app": args.app,
            "plan": {
                "groups": [{"family": g.family, "simd": g.simd_name,
                            "systems": list(g.systems)}
                           for g in batch.plan.groups],
                "incompatible": batch.plan.incompatible,
            },
            "deployments": [{"system": dep.system.name, "tag": dep.tag,
                             "simd": dep.simd_name,
                             "lowered_count": dep.lowered_count}
                            for dep in batch.deployments],
            "lowerings_performed": batch.lowerings_performed,
            "lowerings_reused": batch.lowerings_reused,
            "build_stats": result.stats.to_json(),
        })
    print(f"plan: {batch.plan.summary()}")
    for dep in batch.deployments:
        print(f"  {dep.system.name:<12} isa={dep.simd_name:<10} tag={dep.tag}")
    for name, reason in batch.plan.incompatible.items():
        print(f"  {name:<12} SKIPPED: {reason}")
    print(f"lowerings: {batch.lowerings_performed} performed, "
          f"{batch.lowerings_reused} reused from cache")
    return 0


def cmd_cluster_build(args) -> int:
    """Build + batch-deploy through a build farm (external or self-hosted)."""
    if args.coordinator and not (args.store or args.store_server):
        raise SystemExit("cluster build against an external coordinator "
                         "needs --store DIR or --store-server HOST:PORT "
                         "(the store the workers share)")
    return _farm_build(args)


def _farm_build(args, note: str = "") -> int:
    """The farm run behind ``deploy-batch --workers`` and ``cluster
    build``: build through ``--coordinator`` (an external one with its own
    workers) or a self-hosted LocalCluster of ``--workers`` forked
    processes over ``--store DIR`` — a temporary directory, gone with the
    command, when none is given — pin the image, print the report. Under
    ``--trace`` the farm's half of the trace — coordinator job lifecycle
    plus worker-pushed spans — joins the client's."""
    import tempfile

    from repro.cluster import ClusterError, LocalCluster, cluster_build
    from repro.core import IRDeploymentError
    if not args.coordinator:
        if args.store_server:
            raise SystemExit(
                "a self-hosted farm forks its workers, and a fork cannot "
                "share --store-server's pooled connection: run `cluster "
                "serve`, then `cluster worker --store-server HOST:PORT` "
                "workers, and build with --coordinator")
        if not args.store:
            args.store = args.closing.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-farm-"))
    systems = [s.name for s in _parse_systems(args.systems)]
    # The same tree every other command sizes: deployments stay
    # byte-identical across the single-process and farm paths.
    build = {"scale": CLI_APP_SCALE.get(args.app),
             "skip_incompatible": args.skip_incompatible}
    store, cache = _open_store(args, farm=True)
    with _tracing(args, store, app=args.app, systems=len(systems)) as spans:
        try:
            if args.coordinator:
                client = _coordinator_client(args)
                report = cluster_build(client, args.app, systems, store,
                                       cache=cache, **build)
                if spans is not None:
                    try:
                        spans.extend(
                            client.telemetry(drain_spans=True)["spans"])
                    except ClusterError:
                        pass
            else:
                with LocalCluster(workers=args.workers, store=store,
                                  cache=cache,
                                  store_dir=args.store) as cluster:
                    report = cluster.build(args.app, systems, **build)
                    if spans is not None:
                        spans.extend(cluster.drain_spans())
        except (ClusterError, IRDeploymentError) as exc:
            raise SystemExit(f"{' '.join(args.path)} failed: {exc}")
    if cache.persistent:
        cache.pin(f"image/{args.app}", report.image_digest)
    if args.json:
        return _print_json(report.to_json())
    print(f"plan: {report.plan_summary}")
    print(f"groups: warm {report.warm_groups or '[]'} "
          f"cold {report.cold_groups or '[]'}")
    for dep in report.deployments:
        print(f"  {dep['system']:<12} isa={dep['simd']:<10} tag={dep['tag']}")
    for name, reason in report.incompatible.items():
        print(f"  {name:<12} SKIPPED: {reason}")
    line = (f"lowerings: {report.lowerings_performed} performed, "
            f"{report.lowerings_reused} reused, "
            f"{report.duplicate_lowerings} duplicated")
    print(line + (f" ({note})" if note else ""))
    print(f"ir compiles: {report.duplicate_ir_compiles} duplicated "
          f"across jobs")
    return 0


def cmd_cache_stats(args) -> int:
    """Report store size, per-namespace entry/byte breakdown, and pins.

    Against ``--store-server`` the report also embeds the server's live
    counters (its ``telemetry`` wire op): connection/request totals, wire
    byte counts, and body-residency peaks that a pure index walk cannot
    see.
    """
    backend = _open_backend(args)
    stats = ArtifactCache(BlobStore(backend)).stats()
    if args.store_server:
        info = backend.telemetry()
        stats["server"] = {"stats": info["stats"], "metrics": info["metrics"]}
    if args.json:
        return _print_json(stats)
    print(f"blobs: {stats['blobs']} ({stats['total_bytes']} bytes)")
    print(f"index entries: {stats['entries']}")
    for namespace, count in stats["entries_by_namespace"].items():
        nbytes = stats["bytes_by_namespace"].get(namespace, 0)
        print(f"  {namespace:<12} {count:>6} entries  {nbytes:>10} bytes")
    for name, digest in sorted(stats["pins"].items()):
        print(f"pin {name} -> {digest}")
    server = stats.get("server")
    if server:
        live = server["stats"]
        print(f"server: {live.get('connections_served', 0)} connections, "
              f"{live.get('requests_served', 0)} requests, "
              f"{live.get('bytes_in', 0)} bytes in, "
              f"{live.get('bytes_out', 0)} bytes out")
    return 0


def cmd_cache_gc(args) -> int:
    """Bound the store: TTL-expire past ``--max-age-seconds``, LRU-evict
    until it fits ``--max-bytes``; pins are sacred. Either bound alone
    works — a pure-TTL sweep runs with an unlimited byte budget."""
    if args.max_bytes is None and args.max_age_seconds is None:
        raise SystemExit("cache gc needs --max-bytes and/or "
                         "--max-age-seconds")
    max_bytes = args.max_bytes if args.max_bytes is not None else 2 ** 62
    report = ArtifactCache(BlobStore(_open_backend(args))).gc(
        max_bytes, grace_seconds=args.grace_seconds,
        dry_run=args.dry_run, max_age_seconds=args.max_age_seconds)
    if args.json:
        return _print_json(report.to_json())
    if report.dry_run:
        print(f"dry run: store {report.before_bytes} bytes, budget "
              f"{report.max_bytes}, plan frees {report.planned_freed_bytes} "
              f"-> {report.projected_after_bytes} bytes")
        print(f"would expire {report.expired_entries} entries, "
              f"evict {report.evicted_entries} entries, "
              f"delete {report.deleted_blobs} blobs "
              f"({report.pinned_blobs} pinned blobs kept)")
        for namespace, agg in sorted(report.by_namespace.items()):
            print(f"  {namespace:<12} {agg['entries']:>5} entries  "
                  f"{agg['blobs']:>5} blobs  {agg['bytes']:>10} bytes")
        for ns, key in report.expired:
            print(f"  would expire [{ns}] {key}")
        for ns, key in report.evicted:
            print(f"  would evict [{ns}] {key}")
    else:
        print(f"store: {report.before_bytes} -> {report.after_bytes} bytes "
              f"(budget {report.max_bytes}, freed {report.freed_bytes})")
        print(f"expired {report.expired_entries} entries, "
              f"evicted {report.evicted_entries} entries, "
              f"deleted {report.deleted_blobs} blobs, "
              f"{report.pinned_blobs} pinned blobs kept")
    if not report.within_budget:
        print("warning: pinned blobs alone exceed the budget")
    return 0


def cmd_cache_serve(args) -> int:
    """Serve a file-backed store to builders/workers over a socket.

    The server answers whole *sessions* of requests per connection, so a
    farm of pooled clients (``cluster worker --store-server``, ``cluster
    build --store-server``) costs one TCP connection per worker, not one
    per operation.
    """
    from repro.store import AsyncStoreServer

    def open_server():
        server = AsyncStoreServer(_open_backend(args), host=args.host,
                                  port=args.port,
                                  max_body_bytes=args.max_body_bytes)
        return server, server.recorder, server.metrics.registry

    server = _serve("store-server", "store server", open_server)
    # Final status line: wire traffic and body-residency high-water
    # marks (peak_body_bytes is the largest single body held).
    print(json.dumps(server.stats(), sort_keys=True), flush=True)
    return 0


def cmd_cache_export(args) -> int:
    """Pack the whole store (blobs + refs) into one archive."""
    summary = export_store(_open_backend(args), args.output)
    if args.json:
        return _print_json(summary)
    print(f"exported {summary['blobs']} blobs "
          f"({summary['blob_bytes']} bytes), {summary['refs']} refs "
          f"-> {summary['path']}")
    return 0


def cmd_cache_import(args) -> int:
    """Merge an exported archive into the store (idempotent by digest)."""
    try:
        summary = import_store(_open_backend(args), args.input)
    except BackendError as exc:
        raise SystemExit(f"cache import failed: {exc}")
    if args.json:
        return _print_json(summary)
    print(f"imported {summary['blobs_added']} blobs "
          f"({summary['blobs_skipped']} already present), "
          f"merged {summary['refs_merged']} refs from {summary['path']}")
    return 0


def cmd_cluster_serve(args) -> int:
    """Run a build-farm coordinator until interrupted.

    The coordinator holds its jobs in memory and never touches artifact
    bytes, so it opens no store. Restarted, it starts empty: a waiting
    ``cluster build`` resubmits the jobs it still needs, and what the
    first run published is cache hits in the workers' store."""
    from repro.cluster import Coordinator

    def open_server():
        coordinator = Coordinator(host=args.host, port=args.port,
                                  lease_seconds=args.lease_seconds)
        queue = coordinator.queue
        return coordinator, queue.recorder, queue.registry

    _serve("coordinator", "cluster coordinator", open_server)
    return 0


def cmd_cluster_worker(args) -> int:
    """Run one worker: pull jobs, publish artifacts through the store."""
    from repro.cluster.worker import run_worker
    from repro.telemetry.registry import MetricsRegistry
    # One registry spans the worker and its store client, so heartbeat
    # deltas carry wire-request latencies alongside job counters.
    registry = MetricsRegistry()
    run_worker(_coordinator_client(args),
               BlobStore(_open_backend(args, registry=registry)),
               worker_id=args.worker_id, registry=registry,
               local_tier_dir=args.local_tier,
               max_coordinator_downtime=args.max_coordinator_downtime,
               max_idle_seconds=args.max_idle_seconds)
    return 0


def render_status(telemetry: dict) -> str:
    """The ``cluster status`` screen from a coordinator ``telemetry``
    reply: jobs by state, the farm job duration, and one row per worker —
    its queue from the scheduler, its counts from the metrics its
    heartbeats carried (``worker``-labelled in the coordinator's
    registry)."""
    from repro.telemetry.registry import totals_by_label
    jobs = telemetry.get("jobs", {})
    states = jobs.get("states", {})
    state_line = " ".join(f"{state}={states[state]}"
                          for state in sorted(states)) or "none"
    duration = telemetry.get("job_duration_seconds") or {}
    lines = [
        f"jobs: {jobs.get('total', 0)} known ({state_line}); "
        f"shared queue depth {telemetry.get('shared_queue_depth', 0)}",
        "farm job duration p50/p95: " + (
            f"{duration['p50'] * 1000:.0f}/{duration['p95'] * 1000:.0f}ms "
            f"(n={duration['count']})" if duration.get("count") else "-")]
    workers = telemetry.get("workers", {})
    if not workers:
        return "\n".join([*lines, "no workers seen"])
    metrics = telemetry.get("metrics") or {}
    counts = totals_by_label(metrics.get("counters", {}), "worker")
    gauges = totals_by_label(metrics.get("gauges", {}), "worker")
    lines.append(f"{'worker':<16} {'queue':>5} {'run':>4} {'done':>5} "
                 f"{'fail':>5} {'tier h/m':>9} {'retry':>6} {'rss':>6} "
                 f"{'seen':>9}")
    for worker_id, row in sorted(workers.items()):
        count = counts.get(worker_id, {})
        tier = (count.get("store.tier.hits", 0),
                count.get("store.tier.misses", 0))
        # Store retries and coordinator reconnects in one health column:
        # zero on a clean farm, so any number here is signal.
        retries = count.get("store.retries", 0) + \
            count.get("cluster.reconnects", 0)
        rss = gauges.get(worker_id, {}).get("process.rss_bytes", 0)
        seen = row.get("last_seen_seconds")
        lines.append(
            f"{worker_id:<16} {row.get('queue_depth', 0):>5} "
            f"{row.get('running', 0):>4} "
            f"{count.get('cluster.worker.jobs_done', 0):>5} "
            f"{count.get('cluster.worker.jobs_failed', 0):>5} "
            f"{'%d/%d' % tier if any(tier) else '-':>9} "
            f"{retries or '-':>6} "
            f"{f'{rss / (1 << 20):.0f}MB' if rss else '-':>6} "
            f"{'-' if seen is None else f'{seen:.1f}s ago':>9}")
    return "\n".join(lines)


def cmd_cluster_status(args) -> int:
    """One snapshot of the farm from the coordinator's `telemetry` op."""
    from repro.cluster import ClusterError
    try:
        telemetry = _coordinator_client(args).telemetry()["telemetry"]
    except ClusterError as exc:
        raise SystemExit(f"cluster status failed: {exc}")
    if args.json:
        return _print_json(telemetry)
    print(render_status(telemetry))
    return 0


def cmd_telemetry_report(args) -> int:
    """Render a flight-recorder crash dump; with ``--trace`` each event
    is cross-linked to the exported span it happened inside."""
    from repro.telemetry.export import spans_from_chrome
    from repro.telemetry.flightrec import load_crash_dump, render_report
    try:
        dump = load_crash_dump(args.dump)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"telemetry report failed: {exc}")
    trace_spans = None
    if args.trace:
        try:
            with open(args.trace, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            trace_spans = [span.to_json() for span in spans_from_chrome(doc)]
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(
                f"telemetry report failed reading --trace: {exc}")
    if args.json:
        return _print_json(dump)
    print(render_report(dump, trace_spans=trace_spans))
    return 0


def cmd_bench(args) -> int:
    """Build natively and predict one workload run."""
    app = _app(args.app)
    system = get_system(args.system)
    options = dict(kv.split("=", 1) for kv in (args.option or []))
    artifact = build_app(app, options, build_system=system, label="cli")
    report = run_workload(artifact, system, args.workload,
                          threads=WORKLOAD_THREADS)
    print(report)
    for kernel, seconds in sorted(report.kernel_seconds.items()):
        print(f"  {kernel:<16} {seconds:10.3f} s")
    print(f"  {'library':<16} {report.library_seconds:10.3f} s")
    print(f"  {'gpu':<16} {report.gpu_seconds:10.3f} s")
    return 0


# -- the command table ---------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One row: what ``--help`` says, what runs, which options it takes."""

    help: str
    handler: Callable[[argparse.Namespace], int]
    options: tuple = ()


GROUPS = {
    "cluster": "build-farm: coordinator, workers, batch builds",
    "cache": "inspect and manage a persistent artifact store",
    "telemetry": "flight-recorder crash dumps",
}

COMMANDS: dict[tuple[str, ...], Command] = {
    ("discover",): Command(
        "detect a system's features (Fig. 4b)", cmd_discover, (SYSTEM,)),
    ("analyze",): Command(
        "extract specialization points (Fig. 4a)", cmd_analyze, (APP,)),
    ("intersect",): Command(
        "intersect app x system (Fig. 4c)", cmd_intersect, (APP, SYSTEM)),
    ("ir-build",): Command(
        "run the IR-container pipeline (Fig. 7)", cmd_ir_build, (
            APP, STORE_GROUP, JSON, TRACE,
            Option("--stats-only", action="store_true",
                   help="dedup analysis without compiling IRs"))),
    ("deploy",): Command(
        "deploy a container to a system (Figs. 6/8)", cmd_deploy, (
            APP, SYSTEM, WORKLOAD, STORE_GROUP, JSON, IMAGE,
            Option("--mode", choices=("source", "ir"), default="source"))),
    ("deploy-batch",): Command(
        "deploy one IR container to many systems at once",
        cmd_deploy_batch, (
            APP, SYSTEM_LIST, SKIP_INCOMPATIBLE, OneOf(WORKERS, IMAGE),
            STORE_GROUP, JSON, TRACE)),
    ("bench",): Command(
        "predict a workload run", cmd_bench, (
            APP, SYSTEM, WORKLOAD.but(required=True),
            Option("--option", action="append", metavar="KEY=VALUE",
                   help="build option (repeatable)"))),
    ("cluster", "serve"): Command(
        "run the job coordinator; its jobs live in memory, and after a "
        "restart the waiting builds resubmit theirs",
        cmd_cluster_serve, (
            HOST, PORT,
            Option("--lease-seconds", type=float, default=60.0,
                   help="job lease; an expired lease re-queues the job "
                        "with the dead worker excluded"))),
    ("cluster", "worker"): Command(
        "run one build worker", cmd_cluster_worker, (
            COORDINATOR.but(required=True), STORE_REQUIRED,
            Option("--worker-id", default=""),
            Option("--local-tier", default="", metavar="DIR",
                   help="worker-local store tier root: hot artifacts are "
                        "served from DIR/<worker-id> at disk latency, "
                        "puts write through to the shared store (the "
                        "ccache topology; pair with --store-server)"),
            Option("--max-idle-seconds", type=float, default=None,
                   help="exit after this long with no work (default: "
                        "run until the coordinator goes away)"),
            Option("--max-coordinator-downtime", type=float, default=None,
                   metavar="SECONDS",
                   help="keep retrying (jittered backoff) through a "
                        "coordinator outage this long before exiting "
                        "(default 10s — rides out a coordinator restart)"))),
    ("cluster", "build"): Command(
        "build + deploy a batch through the farm", cmd_cluster_build, (
            APP, SYSTEM_LIST, SKIP_INCOMPATIBLE, STORE_GROUP, JSON, TRACE,
            COORDINATOR.but(help="external coordinator with its own "
                                 "workers; omit to self-host --workers N"),
            WORKERS.but(default=2, help="self-hosted worker count: forked "
                                        "processes (ignored with "
                                        "--coordinator)"))),
    ("cluster", "status"): Command(
        "one snapshot of the farm: jobs by state, the job duration, and "
        "per-worker queue, job, tier, retry and RSS counts",
        cmd_cluster_status, (COORDINATOR.but(required=True), JSON)),
    ("cache", "stats"): Command(
        "store size and index statistics (a served store adds its live "
        "counters)", cmd_cache_stats,
        (STORE_REQUIRED, JSON)),
    ("cache", "serve"): Command(
        "serve a store directory to other processes", cmd_cache_serve, (
            STORE.but(required=True), HOST, PORT,
            Option("--max-body-bytes", type=int,
                   default=DEFAULT_MAX_BODY_BYTES, metavar="N",
                   help="reject any single request body larger than N "
                        "with a clean error instead of buffering it"))),
    ("cache", "gc"): Command(
        "bound the store: TTL-expire old entries and/or LRU-evict to a "
        "byte budget (pinned manifests kept)", cmd_cache_gc, (
            STORE_REQUIRED, JSON,
            Option("--max-bytes", type=int, default=None,
                   help="target store size in bytes"),
            Option("--max-age-seconds", type=float, default=None,
                   help="expire entries whose payload blob is older than "
                        "this, regardless of the byte budget"),
            Option("--grace-seconds", type=float, default=0.0,
                   help="never delete blobs younger than this; use > 0 "
                        "when builders may be publishing concurrently"),
            Option("--dry-run", action="store_true",
                   help="price the eviction plan (keys, bytes, "
                        "per-namespace totals) without deleting anything"))),
    ("cache", "export"): Command(
        "pack the store into one archive", cmd_cache_export, (
            STORE_REQUIRED, JSON,
            Option("--output", required=True, help="archive path (.tar.gz)"))),
    ("cache", "import"): Command(
        "merge an exported archive into the store", cmd_cache_import, (
            STORE_REQUIRED, JSON,
            Option("--input", required=True, help="archive path (.tar.gz)"))),
    ("telemetry", "report"): Command(
        "render a flight-recorder crash dump", cmd_telemetry_report, (
            Option("dump", metavar="CRASH.json",
                   help="crash dump written by the flight recorder"),
            JSON,
            TRACE.but(metavar="TRACE.json",
                      help="Chrome trace export of the same build; events "
                           "are cross-linked to the spans they ran inside"))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xaas-deploy",
        description="XaaS container deployment tool (simulated substrates)")
    # A row that takes only one spelling of the store (or no store, or no
    # coordinator) still answers every address attribute, so the helpers
    # above read them unconditionally.
    parser.set_defaults(store="", store_server=None, coordinator=None)
    sub = parser.add_subparsers(dest="command", required=True)
    groups: dict[str, argparse._SubParsersAction] = {}
    for path, command in COMMANDS.items():
        parent = sub
        for word in path[:-1]:
            if word not in groups:
                groups[word] = sub.add_parser(
                    word, help=GROUPS[word]).add_subparsers(
                        dest=f"{word}_command", required=True)
            parent = groups[word]
        row = parent.add_parser(path[-1], help=command.help)
        for option in command.options:
            option.add_to(row)
        row.set_defaults(func=command.handler, path=path)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Whatever the handler opens through _open_backend or
    # _coordinator_client is closed here, however the handler exits.
    with contextlib.ExitStack() as args.closing:
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
