"""xaas-deploy — the command-line deployment tool (paper Sec. 5.2).

"We introduce a new deployment tool customized for HPC specialization, but
all other steps of container management ... are conducted with standard and
existing container tools." This module is that tool for the simulated world:

    python -m repro.cli discover --system ault23
    python -m repro.cli analyze --app gromacs
    python -m repro.cli intersect --app gromacs --system ault25
    python -m repro.cli ir-build --app lulesh
    python -m repro.cli deploy --app lulesh --system ault01-04 --mode ir
    python -m repro.cli bench --app gromacs --system ault23 --workload testB

Build commands accept ``--store DIR`` to work against a persistent artifact
store (sharded file backend): repeated builds — including in fresh
processes — replay preprocessed text, IR modules, and lowered machine
modules from disk instead of recomputing them. The store is managed by the
``cache`` subcommands::

    python -m repro.cli ir-build --app lulesh --store /tmp/xaas-store
    python -m repro.cli deploy --app lulesh --system ault23 --mode ir \
        --store /tmp/xaas-store --json
    python -m repro.cli cache stats --store /tmp/xaas-store --json
    python -m repro.cli cache gc --store /tmp/xaas-store --max-bytes 1000000
    python -m repro.cli cache export --store /tmp/xaas-store --output warm.tar.gz
    python -m repro.cli cache import --store /tmp/other-store --input warm.tar.gz
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.apps import app_model, default_ir_sweep
from repro.containers import ArtifactCache, BlobStore
from repro.store import (BackendError, FileBackend, export_store,
                         import_store)
from repro.store.wire_server import DEFAULT_MAX_BODY_BYTES
from repro.core import (
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


def _app(name: str):
    try:
        return APPS[name]()
    except KeyError:
        raise SystemExit(f"unknown app {name!r}; known: {sorted(APPS)}")


def _open_store(args, farm: bool = False) -> tuple[BlobStore, ArtifactCache]:
    """The build substrate: persistent when ``--store DIR`` (or
    ``--store-server HOST:PORT``, where the command accepts it) is given.

    With a file-backed store, the ArtifactCache loads its access-ordered
    index from disk — a fresh process starts warm from whatever earlier
    builds persisted; a store server is reached through a pooled wire
    client (one warm connection, not one per operation). ``farm=True``
    batches index saves the way cluster workers do (the cache is about to
    be shared with bulk publishers, and per-put index rewrites are O(n^2)
    at scale); the cluster flushes at every job boundary, so nothing is
    lost on a clean exit.
    """
    from repro.containers.store import BULK_FLUSH_EVERY
    store_dir = getattr(args, "store", None)
    store_server = getattr(args, "store_server", None)
    if store_dir:
        store = BlobStore(FileBackend(store_dir))
    elif store_server:
        from repro.store import RemoteBackend
        host, port = _parse_address(store_server)
        store = BlobStore(RemoteBackend(host, port))
    else:
        store = BlobStore()
    flush_every = BULK_FLUSH_EVERY if farm else 1
    return store, ArtifactCache(store, flush_every=flush_every)


def _run_local_farm(args, system_names: list[str], scale: float | None,
                    label: str, job_timeout: float = 300.0,
                    spans_out: list | None = None):
    """Self-hosted farm run shared by ``deploy-batch --workers`` and
    ``cluster build --workers``: open the store, spin up a LocalCluster,
    build, pin the image. Returns the ClusterBuildReport. With
    ``spans_out`` (a list), the farm's trace spans — coordinator job
    lifecycle, worker execution, and any store-server spans — are drained
    into it for the caller's ``--trace`` export."""
    from repro.cluster import ClusterError, LocalCluster
    from repro.core import IRDeploymentError
    store, cache = _open_store(args, farm=True)
    elastic = bool(getattr(args, "elastic", False))
    try:
        with LocalCluster(workers=args.workers, store=store, cache=cache,
                          elastic=elastic,
                          min_workers=getattr(args, "min_workers", 1),
                          max_workers=args.workers if elastic else None
                          ) as cluster:
            report = cluster.build(args.app, system_names, scale=scale,
                                   skip_incompatible=args.skip_incompatible,
                                   job_timeout=job_timeout)
            if spans_out is not None:
                spans_out.extend(cluster.drain_spans())
            if elastic and cluster.scale_events:
                print(f"elastic: {len(cluster.scale_events)} scale events, "
                      f"peak {max(e['workers'] for e in cluster.scale_events)}"
                      f" workers", file=sys.stderr)
    except (ClusterError, IRDeploymentError) as exc:
        raise SystemExit(f"{label} failed: {exc}")
    if spans_out is not None:
        spans_out.extend(_collect_store_spans(store))
    if getattr(args, "store", "") or getattr(args, "store_server", ""):
        cache.pin(f"image/{args.app}", report.image_digest)
    return report


# -- --trace plumbing ----------------------------------------------------------


def _begin_trace(args, root_name: str, attrs: dict | None = None):
    """Start recording under a root span when ``--trace OUT.json`` was
    given. Returns ``(recorder, exit_stack)`` — ``(None, None)`` when
    tracing is off, so callers stay one-liner cheap on the common path."""
    if not getattr(args, "trace", ""):
        return None, None
    import contextlib
    from repro.telemetry import trace as _trace
    recorder = _trace.TraceRecorder()
    _trace.set_service("client")
    stack = contextlib.ExitStack()
    stack.enter_context(_trace.recording(recorder))
    stack.enter_context(_trace.span(root_name, attrs=attrs or {}))
    return recorder, stack


def _finish_trace(args, recorder, stack, extra_spans=None) -> None:
    """Close the root span and write the Chrome trace-event file.
    ``extra_spans`` may mix :class:`Span` objects (LocalCluster drains)
    and wire-form dicts (coordinator / store-server ``telemetry`` ops)."""
    if recorder is None:
        return
    from repro.telemetry.export import write_chrome_trace
    from repro.telemetry.trace import Span
    stack.close()
    spans = recorder.drain()
    for blob in extra_spans or ():
        spans.append(blob if isinstance(blob, Span) else Span.from_json(blob))
    write_chrome_trace(args.trace, spans)
    print(f"trace: wrote {len(spans)} spans to {args.trace}", file=sys.stderr)


def _collect_store_spans(store) -> list:
    """Drain the store server's buffered spans (wire-form dicts). Only a
    RemoteBackend has a ``telemetry`` op; file/memory backends contribute
    nothing. Never raises: trace collection must not fail a finished
    build."""
    tel = getattr(store.backend, "telemetry", None)
    if not callable(tel):
        return []
    try:
        return list(tel(drain_spans=True)["spans"])
    except Exception:
        return []


def _cache_delta(before: dict, after: dict) -> dict:
    """Per-namespace {hits, misses} traffic between two cache snapshots."""
    out: dict[str, dict[str, int]] = {}
    for namespace, (hits, misses) in after.items():
        prev_hits, prev_misses = before.get(namespace, (0, 0))
        if hits - prev_hits or misses - prev_misses:
            out[namespace] = {"hits": hits - prev_hits,
                              "misses": misses - prev_misses}
    return out


def cmd_discover(args) -> int:
    """Print the system-features JSON (Fig. 4b)."""
    spec = get_system(args.system)
    print(json.dumps(spec.detect_features(), indent=2, sort_keys=True))
    return 0


def cmd_analyze(args) -> int:
    """Print the application's specialization points (Fig. 4a)."""
    app = _app(args.app)
    print(json.dumps(analyze_build_script(app.tree), indent=2, sort_keys=True))
    return 0


def cmd_intersect(args) -> int:
    """Print the common specialization points (Fig. 4c) and the defaults."""
    app = _app(args.app)
    system = get_system(args.system)
    common = intersect_specializations(analyze_build_script(app.tree), system)
    out = common.to_json()
    out["operator_default_selection"] = default_selection(common, system)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_ir_build(args) -> int:
    """Run the IR-container pipeline and print the dedup statistics."""
    app = _app(args.app)
    configs, _ = default_ir_sweep(args.app)
    store, cache = _open_store(args)
    recorder, stack = _begin_trace(args, "cli.ir-build", {"app": args.app})
    result = build_ir_container(app, configs, store=store, cache=cache,
                                compile_irs=not args.stats_only)
    _finish_trace(args, recorder, stack, _collect_store_spans(store)
                  if recorder is not None else None)
    if args.store and not args.stats_only:
        # Pin the image manifest: GC follows digest references inside
        # pinned blobs, so config and layers stay deployable too.
        cache.pin(f"image/{args.app}", result.image.digest)
    if args.json:
        print(json.dumps({
            "app": args.app,
            "stats": result.stats.to_json(),
            "image_digest": result.image.digest,
            "image_size_bytes": result.image.total_size,
        }, indent=2, sort_keys=True))
        return 0
    print(result.stats.summary())
    print(f"image digest: {result.image.digest}")
    print(f"image size: {result.image.total_size} bytes")
    return 0


def cmd_deploy(args) -> int:
    """Deploy a source or IR container to a system and predict a run."""
    app = _app(args.app)
    system = get_system(args.system)
    store, cache = _open_store(args)
    if args.mode == "source":
        arch = "arm64" if system.architecture == "arm64" else "amd64"
        sc = build_source_image(app, store, arch=arch)
        dep = deploy_source_container(
            sc, system, store,
            build_host=None if system.supports_container_build
            else get_system("dev-machine"))
        artifact, tag = dep.artifact, dep.tag
        build_stats = None
        deploy_delta: dict = {}
        if not args.json:
            print("selection:", json.dumps(dep.selection, sort_keys=True))
    else:
        configs, chosen = default_ir_sweep(args.app)
        result = build_ir_container(app, configs, store=store, cache=cache)
        before = cache.snapshot()
        dep = deploy_ir_container(result, app, chosen, system, store,
                                  cache=cache)
        artifact, tag = dep.artifact, dep.tag
        deploy_delta = _cache_delta(before, cache.snapshot())
        build_stats = result.stats.to_json()
        if args.store:
            cache.pin(f"image/{args.app}", result.image.digest)
            cache.pin(f"deploy/{args.app}@{system.name}", dep.image.digest)
        if not args.json:
            print(f"lowered ISA: {dep.simd_name}")
    if args.json:
        blob = {
            "app": args.app, "system": system.name, "mode": args.mode,
            "tag": dep.tag,
            # The cold-start acceptance check: a warm persistent store
            # makes every build op zero and every deploy lookup a hit.
            "deploy_cache": deploy_delta,
        }
        if build_stats is not None:
            blob["build_stats"] = build_stats
            blob["simd"] = dep.simd_name
            blob["lowered_count"] = dep.lowered_count
        if args.workload:
            report = run_workload(artifact, system, args.workload,
                                  threads=args.threads)
            blob["workload"] = {
                "name": args.workload,
                "total_seconds": report.total_seconds,
                "kernel_seconds": dict(sorted(report.kernel_seconds.items())),
                "library_seconds": report.library_seconds,
                "gpu_seconds": report.gpu_seconds,
            }
        print(json.dumps(blob, indent=2, sort_keys=True))
        return 0
    print(f"image tag: {tag}")
    if args.workload:
        report = run_workload(artifact, system, args.workload, threads=args.threads)
        print(report)
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


def cmd_deploy_batch(args) -> int:
    """Build one IR container and deploy it to many systems in one batch."""
    from repro.core import IRDeploymentError

    app = _app(args.app)
    systems = _parse_systems(args.systems)
    recorder, stack = _begin_trace(args, "cli.deploy-batch",
                                   {"app": args.app, "systems": len(systems)})
    if args.workers > 0:
        # Route the batch through an in-process build farm: N worker
        # threads pulling stage-level jobs from a LocalCluster
        # coordinator, all publishing through this command's store.
        extra_spans: list = []
        report = _run_local_farm(args, [s.name for s in systems],
                                 CLI_APP_SCALE.get(args.app),
                                 "deploy-batch --workers",
                                 spans_out=extra_spans
                                 if recorder is not None else None)
        _finish_trace(args, recorder, stack, extra_spans)
        if args.json:
            print(json.dumps(report.to_json(), indent=2, sort_keys=True))
            return 0
        _print_cluster_report(report, note=f"{args.workers} workers")
        return 0
    configs, chosen = default_ir_sweep(args.app)
    store, cache = _open_store(args)
    result = build_ir_container(app, configs, store=store, cache=cache)
    if args.store:
        cache.pin(f"image/{args.app}", result.image.digest)
    try:
        batch = deploy_batch(result, app, chosen, systems, store, cache=cache,
                             skip_incompatible=args.skip_incompatible)
    except IRDeploymentError as exc:
        raise SystemExit(
            f"deploy-batch failed: {exc}\n"
            "(--skip-incompatible deploys to the compatible systems only)")
    _finish_trace(args, recorder, stack, _collect_store_spans(store)
                  if recorder is not None else None)
    if args.json:
        print(json.dumps({
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
        }, indent=2, sort_keys=True))
        return 0
    print(f"plan: {batch.plan.summary()}")
    for dep in batch.deployments:
        print(f"  {dep.system.name:<12} isa={dep.simd_name:<10} tag={dep.tag}")
    for name, reason in batch.plan.incompatible.items():
        print(f"  {name:<12} SKIPPED: {reason}")
    print(f"lowerings: {batch.lowerings_performed} performed, "
          f"{batch.lowerings_reused} reused from cache")
    return 0


def _cache_for_store(args) -> ArtifactCache:
    if getattr(args, "store_server", ""):
        from repro.store import RemoteBackend
        host, port = _parse_address(args.store_server)
        return ArtifactCache(BlobStore(RemoteBackend(host, port)))
    if not args.store:
        raise SystemExit("cache commands need --store DIR")
    return ArtifactCache(BlobStore(FileBackend(args.store)))


def cmd_cache_stats(args) -> int:
    """Report store size, per-namespace entry/byte breakdown, and pins.

    Against ``--store-server`` the report also embeds the server's live
    counters (its ``telemetry`` wire op): connection/request totals, wire
    byte counts, and body-residency peaks that a pure index walk cannot
    see.
    """
    cache = _cache_for_store(args)
    stats = cache.stats()
    tel = getattr(cache.store.backend, "telemetry", None)
    if callable(tel):
        info = tel()
        stats["server"] = {"stats": info["stats"],
                           "metrics": info["metrics"]}
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
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
    report = _cache_for_store(args).gc(max_bytes,
                                       grace_seconds=args.grace_seconds,
                                       dry_run=args.dry_run,
                                       max_age_seconds=args.max_age_seconds)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        return 0
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
    import json as json_mod
    import time
    from repro.store import AsyncStoreServer
    from repro.telemetry import trace as _trace
    if not args.store:
        raise SystemExit("cache serve needs --store DIR")
    # Label spans this server records for traced requests (the Perfetto
    # track name in an exported farm trace).
    _trace.set_service("store-server")
    server = AsyncStoreServer(FileBackend(args.store), host=args.host,
                              port=args.port,
                              max_body_bytes=args.max_body_bytes)
    # Crash dumps (and on-demand SIGUSR2 dumps) carry this server's span
    # buffer and metric registry, not the process-global defaults.
    from repro.telemetry import flightrec as _flightrec
    _flightrec.install(recorder=server.recorder,
                       registry=server.metrics.registry)
    host, port = server.start()
    print(f"store server listening on {host}:{port}", flush=True)
    try:
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        # Final status line: wire traffic and body-residency high-water
        # marks (peak_body_bytes stays O(chunk) for streamed transfers).
        print(json_mod.dumps(server.stats(), sort_keys=True), flush=True)
    return 0


def cmd_cache_export(args) -> int:
    """Pack the whole store (blobs + refs) into one archive."""
    backend = FileBackend(args.store) if args.store else None
    if backend is None:
        raise SystemExit("cache commands need --store DIR")
    summary = export_store(backend, args.output)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"exported {summary['blobs']} blobs "
          f"({summary['blob_bytes']} bytes), {summary['refs']} refs "
          f"-> {summary['path']}")
    return 0


def cmd_cache_import(args) -> int:
    """Merge an exported archive into the store (idempotent by digest)."""
    if not args.store:
        raise SystemExit("cache commands need --store DIR")
    try:
        summary = import_store(FileBackend(args.store), args.input)
    except BackendError as exc:
        raise SystemExit(f"cache import failed: {exc}")
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"imported {summary['blobs_added']} blobs "
          f"({summary['blobs_skipped']} already present), "
          f"merged {summary['refs_merged']} refs from {summary['path']}")
    return 0


def _print_cluster_report(report, note: str = "",
                          show_routing: bool = False) -> None:
    """Human-readable ClusterBuildReport (shared by both farm commands)."""
    print(f"plan: {report.plan_summary}")
    if show_routing:
        print(f"routing: warm {report.warm_groups or '[]'} ahead of "
              f"cold {report.cold_groups or '[]'}")
    for dep in report.deployments:
        print(f"  {dep['system']:<12} isa={dep['simd']:<10} tag={dep['tag']}")
    for name, reason in report.incompatible.items():
        print(f"  {name:<12} SKIPPED: {reason}")
    line = (f"lowerings: {report.lowerings_performed} performed, "
            f"{report.lowerings_reused} reused, "
            f"{report.duplicate_lowerings} duplicated")
    print(line + (f" ({note})" if note else ""))


def _parse_address(spec: str) -> tuple[str, int]:
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(f"--coordinator wants HOST:PORT, got {spec!r}")
    return host or "127.0.0.1", int(port)


def cmd_cluster_serve(args) -> int:
    """Run a build-farm coordinator until interrupted."""
    from repro.cluster import Coordinator
    from repro.telemetry import trace as _trace
    _trace.set_service("coordinator")
    # With a store attached the coordinator journals its scheduler state
    # through a ref in that store: `--resume` after a crash restores
    # every accepted batch — terminal results included — and re-queues
    # whatever was running when the process died.
    journal = None
    if args.store or args.store_server:
        from repro.cluster.journal import Journal
        from repro.store import FileBackend as _FileBackend
        from repro.store import RemoteBackend as _RemoteBackend
        if args.store:
            backend = _FileBackend(args.store)
        else:
            shost, sport = _parse_address(args.store_server)
            backend = _RemoteBackend(shost, sport)
        journal = Journal(backend, autosave_interval=args.journal_interval)
    elif args.resume:
        raise SystemExit("cluster serve --resume needs the journal's "
                         "store: --store DIR or --store-server HOST:PORT")
    coordinator = Coordinator(host=args.host, port=args.port,
                              lease_seconds=args.lease_seconds,
                              journal=journal, resume=args.resume)
    from repro.telemetry import flightrec as _flightrec
    _flightrec.install(recorder=coordinator.queue.telemetry.recorder,
                       registry=coordinator.queue.telemetry.registry)
    host, port = coordinator.start()
    print(f"cluster coordinator listening on {host}:{port}", flush=True)
    if args.resume:
        stats = coordinator.queue.stats()
        print(f"resumed {stats['jobs']} job(s) from the journal: "
              f"{stats['states']}", flush=True)
    try:
        while True:
            import time
            time.sleep(1)
    except KeyboardInterrupt:
        pass
    finally:
        coordinator.stop()
    return 0


# The induced-crash machinery grew into a package of composable fault
# injectors (backend- and wire-level too); the CLI keeps these aliases so
# the REPRO_FAULT_INJECT seam stays where operators found it.
from repro.testing.faults import _InjectedFault  # noqa: F401  (dump contract)
from repro.testing.faults import arm_fault_injection as _arm_fault_injection


def cmd_cluster_worker(args) -> int:
    """Run one worker: pull jobs, publish artifacts through the store."""
    from repro.cluster import ClusterWorker, CoordinatorClient
    from repro.store import RemoteBackend
    from repro.telemetry import flightrec as _flightrec
    from repro.telemetry import trace as _trace
    from repro.telemetry.registry import MetricsRegistry
    host, port = _parse_address(args.coordinator)
    # One registry spans the worker and its store client, so heartbeat
    # deltas carry wire-request latencies alongside job counters.
    registry = MetricsRegistry()
    if args.store:
        store = BlobStore(FileBackend(args.store))
    elif args.store_server:
        shost, sport = _parse_address(args.store_server)
        store = BlobStore(RemoteBackend(shost, sport, registry=registry))
    else:
        raise SystemExit("cluster worker needs --store DIR or "
                         "--store-server HOST:PORT (the shared data plane)")
    worker = ClusterWorker(CoordinatorClient(host, port), store,
                           worker_id=args.worker_id,
                           max_workers=args.job_workers,
                           registry=registry,
                           local_tier_dir=args.local_tier,
                           tier_flush_interval=args.flush_interval,
                           max_coordinator_downtime=(
                               args.max_coordinator_downtime))
    _trace.set_service(worker.worker_id)
    # Anything that escapes run() — including an injected fault — dumps
    # the worker's span buffer, event ring, and registry before dying.
    _flightrec.install(recorder=worker.recorder, registry=registry)
    fault = os.environ.get("REPRO_FAULT_INJECT", "")
    if fault:
        _arm_fault_injection(worker, fault)
    worker.run(max_idle_seconds=args.max_idle_seconds)
    line = (f"worker {worker.worker_id}: {worker.jobs_done} jobs done, "
            f"{worker.jobs_failed} failed")
    if worker.tier is not None:
        line += (f", tier {worker.tier.tier_hits} hits / "
                 f"{worker.tier.tier_misses} misses / "
                 f"{worker.tier.flushed_blobs} flushed")
    print(line, flush=True)
    return 0


def cmd_cluster_build(args) -> int:
    """Build + batch-deploy through a build farm (external or self-hosted)."""
    from repro.core import IRDeploymentError
    from repro.cluster import ClusterError, CoordinatorClient, cluster_build
    systems = [s.name for s in _parse_systems(args.systems)]
    if args.scale is None:  # parity with the other CLI commands' sizing
        args.scale = CLI_APP_SCALE.get(args.app)
    recorder, stack = _begin_trace(args, "cli.cluster-build",
                                   {"app": args.app, "systems": len(systems)})
    extra_spans: list = []
    try:
        if args.coordinator:
            if not args.store and not args.store_server:
                raise SystemExit("cluster build against an external "
                                 "coordinator needs --store DIR or "
                                 "--store-server HOST:PORT (the store the "
                                 "workers share)")
            store, cache = _open_store(args, farm=True)
            host, port = _parse_address(args.coordinator)
            client = CoordinatorClient(host, port)
            report = cluster_build(
                client, args.app, systems, store,
                cache=cache, scale=args.scale,
                skip_incompatible=args.skip_incompatible,
                job_timeout=args.job_timeout)
            cache.pin(f"image/{args.app}", report.image_digest)
            if recorder is not None:
                # Pull the farm's half of the trace: coordinator job
                # lifecycle + worker-pushed spans, then the store
                # server's wire spans.
                try:
                    extra_spans.extend(client.telemetry(
                        drain_spans=True)["spans"])
                except ClusterError:
                    pass
                extra_spans.extend(_collect_store_spans(store))
        else:
            report = _run_local_farm(args, systems, args.scale,
                                     "cluster build",
                                     job_timeout=args.job_timeout,
                                     spans_out=extra_spans
                                     if recorder is not None else None)
    except (ClusterError, IRDeploymentError) as exc:
        raise SystemExit(f"cluster build failed: {exc}")
    _finish_trace(args, recorder, stack, extra_spans)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        return 0
    _print_cluster_report(report, show_routing=True)
    return 0


def _fmt_latency(summary: dict) -> str:
    """`p50/p95 ms (n)` from a summarize_histogram dict."""
    if not summary or not summary.get("count"):
        return "-"
    return (f"{summary['p50'] * 1000:.0f}/{summary['p95'] * 1000:.0f}ms "
            f"(n={summary['count']})")


def _history_lines(history: dict, width: int = 32,
                   max_series: int = 8) -> list[str]:
    """Sparkline rows from a ``history`` wire payload. Cumulative farm
    counters render as per-second rates; gauges and ready-made rates
    render raw. A trend view wants few, legible rows — the preferred
    series lead and the rest fill up to ``max_series``."""
    from repro.telemetry.history import rate, sparkline
    series = (history or {}).get("series") or {}
    if not series:
        return []
    preferred = ["farm.jobs_per_second", "cluster.jobs.completed",
                 "cluster.job.seconds", "process.rss_bytes",
                 "process.cpu_seconds"]
    names = [n for n in preferred if n in series]
    names += [n for n in sorted(series) if n not in names]
    lines = []
    for name in names:
        if len(lines) >= max_series:
            break
        samples = [(float(ts), float(v)) for ts, v in series[name]]
        if not samples:
            continue
        if (name.startswith(("cluster.jobs.", "store.", "cluster.worker."))
                and len(samples) > 1):
            values = [v for _, v in rate(samples)]
            label = f"{name}/s"
        else:
            values = [v for _, v in samples]
            label = name
        if not values or not any(values):
            continue
        lines.append(f"  {label:<36} {sparkline(values, width)} "
                     f"latest={values[-1]:g} (n={len(values)})")
    return lines


def _print_cluster_top(info: dict) -> None:
    tel = info["telemetry"]
    jobs = tel.get("jobs", {})
    states = jobs.get("states", {})
    state_line = " ".join(f"{state}={states[state]}"
                          for state in sorted(states)) or "none"
    print(f"jobs: {jobs.get('total', 0)} known ({state_line}); "
          f"shared queue depth {tel.get('shared_queue_depth', 0)}")
    thr = tel.get("throughput", {})
    print(f"throughput: {thr.get('completed', 0)} completed in the last "
          f"{thr.get('window_seconds', 0):.0f}s "
          f"({thr.get('jobs_per_second', 0.0):.2f}/s); "
          f"farm job duration {_fmt_latency(tel.get('job_duration_seconds'))}")
    gauges = (tel.get("metrics") or {}).get("gauges") or {}
    if gauges.get("process.rss_bytes"):
        print(f"coordinator: rss "
              f"{gauges['process.rss_bytes'] / (1 << 20):.0f} MB, "
              f"cpu {gauges.get('process.cpu_seconds', 0.0):.1f}s, "
              f"{int(gauges.get('process.open_fds', 0))} fds; "
              f"{tel.get('spans_buffered', 0)} spans buffered "
              f"({tel.get('spans_dropped', 0)} dropped)")
    workers = tel.get("workers", {})
    if not workers:
        print("no workers seen")
    else:
        print(f"{'worker':<16} {'queue':>5} {'run':>4} {'done':>6} "
              f"{'fail':>5} {'rss':>7} {'tier h/m':>12} {'flush':>6} "
              f"{'retry':>6} {'job p50/p95':>18} {'store p50/p95':>18} "
              f"{'seen':>8}")
        for worker_id in sorted(workers):
            w = workers[worker_id]
            seen = w.get("last_seen_seconds")
            tier = (f"{w.get('tier_hits', 0)}/{w.get('tier_misses', 0)}"
                    if w.get("tier_hits", 0) or w.get("tier_misses", 0)
                    else "-")
            rss = w.get("rss_bytes", 0)
            # Store retries and coordinator reconnects in one health
            # column: zero on a clean farm, so any number here is signal.
            retries = (w.get("store_retries", 0) or 0) + \
                (w.get("reconnects", 0) or 0)
            print(f"{worker_id:<16} {w.get('queue_depth', 0):>5} "
                  f"{w.get('running', 0):>4} {w.get('jobs_done', 0):>6} "
                  f"{w.get('jobs_failed', 0):>5} "
                  f"{f'{rss / (1 << 20):.0f}MB' if rss else '-':>7} "
                  f"{tier:>12} {w.get('tier_flushed', 0) or '-':>6} "
                  f"{retries or '-':>6} "
                  f"{_fmt_latency(w.get('job_seconds')):>18} "
                  f"{_fmt_latency(w.get('store_request_seconds')):>18} "
                  f"{'' if seen is None else f'{seen:.1f}s ago':>8}")
    trend = _history_lines(info.get("history") or {})
    if trend:
        print("history:")
        for line in trend:
            print(line)


def cmd_cluster_top(args) -> int:
    """Live farm-wide aggregates from the coordinator's `telemetry` op.

    ``--watch`` refreshes in place every ``--interval`` seconds and adds
    sparkline trends from the coordinator's bounded metrics history."""
    import time as time_mod
    from repro.cluster import ClusterError, CoordinatorClient
    host, port = _parse_address(args.coordinator)
    client = CoordinatorClient(host, port)
    watch = bool(getattr(args, "watch", False))
    interval = float(getattr(args, "interval", 2.0))
    try:
        while True:
            try:
                info = client.telemetry(worker_metrics=args.worker_metrics)
            except ClusterError as exc:
                raise SystemExit(f"cluster top failed: {exc}")
            if args.json:
                tel = dict(info["telemetry"])
                tel["history"] = info.get("history", {})
                print(json.dumps(tel, indent=2, sort_keys=True))
            else:
                if watch:
                    print("\x1b[2J\x1b[H", end="")
                _print_cluster_top(info)
            if not watch:
                return 0
            time_mod.sleep(interval)
    except KeyboardInterrupt:
        return 0


def cmd_cluster_status(args) -> int:
    """Scheduler state plus the live telemetry summary in one shot."""
    from repro.cluster import ClusterError, CoordinatorClient
    host, port = _parse_address(args.coordinator)
    client = CoordinatorClient(host, port)
    try:
        stats = client.stats()
        telemetry = client.telemetry()["telemetry"]
    except ClusterError as exc:
        raise SystemExit(f"cluster status failed: {exc}")
    if args.json:
        print(json.dumps({"stats": stats, "telemetry": telemetry},
                         indent=2, sort_keys=True))
        return 0
    states = stats.get("states", {})
    state_line = " ".join(f"{state}={states[state]}"
                          for state in sorted(states)) or "none"
    print(f"jobs: {stats.get('jobs', 0)} ({state_line})")
    print(f"workers: {', '.join(stats.get('workers', [])) or 'none'}")
    print(f"published keys: {stats.get('published_keys', 0)}")
    thr = telemetry.get("throughput", {})
    print(f"throughput: {thr.get('completed', 0)} jobs in the last "
          f"{thr.get('window_seconds', 0):.0f}s; job duration "
          f"{_fmt_latency(telemetry.get('job_duration_seconds'))}")
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
        print(json.dumps(dump, indent=2, sort_keys=True))
        return 0
    print(render_report(dump, trace_spans=trace_spans))
    return 0


def cmd_telemetry_history(args) -> int:
    """Fetch a live process's bounded metrics history (the ``history``
    field of the ``telemetry`` wire op) from a coordinator or a store
    server, rendered as sparklines or raw JSON."""
    if bool(args.coordinator) == bool(args.store_server):
        raise SystemExit("telemetry history needs exactly one of "
                         "--coordinator or --store-server")
    if args.coordinator:
        from repro.cluster import ClusterError, CoordinatorClient
        host, port = _parse_address(args.coordinator)
        try:
            history = CoordinatorClient(host, port).telemetry().get(
                "history") or {}
        except ClusterError as exc:
            raise SystemExit(f"telemetry history failed: {exc}")
    else:
        from repro.store import RemoteBackend
        from repro.store.remote import RemoteStoreError
        host, port = _parse_address(args.store_server)
        backend = RemoteBackend(host, port)
        try:
            info = backend.telemetry()
        except RemoteStoreError as exc:
            raise SystemExit(f"telemetry history failed: {exc}")
        finally:
            backend.close()
        history = info.get("history") or {}
    if args.json:
        print(json.dumps(history, indent=2, sort_keys=True))
        return 0
    lines = _history_lines(history, max_series=64)
    if not lines:
        print("no history samples")
        return 0
    for line in lines:
        print(line.lstrip())
    return 0


def cmd_bench(args) -> int:
    """Build natively and predict one workload run."""
    app = _app(args.app)
    system = get_system(args.system)
    options = dict(kv.split("=", 1) for kv in (args.option or []))
    artifact = build_app(app, options, build_system=system, label="cli")
    report = run_workload(artifact, system, args.workload, threads=args.threads)
    print(report)
    for kernel, seconds in sorted(report.kernel_seconds.items()):
        print(f"  {kernel:<16} {seconds:10.3f} s")
    print(f"  {'library':<16} {report.library_seconds:10.3f} s")
    print(f"  {'gpu':<16} {report.gpu_seconds:10.3f} s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xaas-deploy",
        description="XaaS container deployment tool (simulated substrates)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discover", help="detect a system's features (Fig. 4b)")
    p.add_argument("--system", required=True, choices=sorted(SYSTEMS))
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("analyze", help="extract specialization points (Fig. 4a)")
    p.add_argument("--app", required=True, choices=sorted(APPS))
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("intersect", help="intersect app x system (Fig. 4c)")
    p.add_argument("--app", required=True, choices=sorted(APPS))
    p.add_argument("--system", required=True, choices=sorted(SYSTEMS))
    p.set_defaults(func=cmd_intersect)

    store_help = "persistent artifact-store directory (file backend)"

    p = sub.add_parser("ir-build", help="run the IR-container pipeline (Fig. 7)")
    p.add_argument("--app", required=True, choices=sorted(APPS))
    p.add_argument("--stats-only", action="store_true",
                   help="dedup analysis without compiling IRs")
    p.add_argument("--store", default="", help=store_help)
    p.add_argument("--json", action="store_true",
                   help="machine-readable pipeline + cache statistics")
    p.add_argument("--trace", default="", metavar="OUT.json",
                   help="write a Chrome trace-event file of the build "
                        "(load it at ui.perfetto.dev)")
    p.set_defaults(func=cmd_ir_build)

    p = sub.add_parser("deploy", help="deploy a container to a system (Figs. 6/8)")
    p.add_argument("--app", required=True, choices=sorted(APPS))
    p.add_argument("--system", required=True, choices=sorted(SYSTEMS))
    p.add_argument("--mode", choices=("source", "ir"), default="source")
    p.add_argument("--workload", default="")
    p.add_argument("--threads", type=int, default=16)
    p.add_argument("--store", default="", help=store_help)
    p.add_argument("--json", action="store_true",
                   help="machine-readable tag + build/deploy cache statistics")
    p.set_defaults(func=cmd_deploy)

    p = sub.add_parser("deploy-batch",
                       help="deploy one IR container to many systems at once")
    p.add_argument("--app", required=True, choices=sorted(APPS))
    p.add_argument("--systems", required=True,
                   help="comma-separated system names (e.g. ault23,ault25)")
    p.add_argument("--skip-incompatible", action="store_true",
                   help="skip systems the IR container cannot run on")
    p.add_argument("--workers", type=int, default=0,
                   help="route the batch through N in-process cluster "
                        "workers (0 = classic single-process path)")
    p.add_argument("--elastic", action="store_true",
                   help="with --workers N: start --min-workers and let "
                        "the farm scale itself up to N against queue "
                        "depth, retiring drained idle workers")
    p.add_argument("--min-workers", type=int, default=1,
                   help="elastic fleet floor (default 1)")
    p.add_argument("--store", default="", help=store_help)
    p.add_argument("--json", action="store_true",
                   help="machine-readable plan + reuse statistics")
    p.add_argument("--trace", default="", metavar="OUT.json",
                   help="write a Chrome trace-event file of the batch "
                        "(includes farm spans with --workers)")
    p.set_defaults(func=cmd_deploy_batch)

    p = sub.add_parser("cluster",
                       help="build-farm: coordinator, workers, batch builds")
    cluster_sub = p.add_subparsers(dest="cluster_command", required=True)

    c = cluster_sub.add_parser("serve", help="run the job coordinator")
    c.add_argument("--host", default="127.0.0.1")
    c.add_argument("--port", type=int, default=0,
                   help="0 lets the OS pick; the address is printed")
    c.add_argument("--lease-seconds", type=float, default=60.0,
                   help="job lease; an expired lease re-queues the job "
                        "with the dead worker excluded")
    c.add_argument("--store", default="", help="journal scheduler state "
                   "into this store directory (the shared artifact "
                   "store); enables --resume after a crash")
    c.add_argument("--store-server", default="", metavar="HOST:PORT",
                   help="journal through a store served by `cache serve` "
                        "(alternative to --store)")
    c.add_argument("--resume", action="store_true",
                   help="restore job state from the journal before "
                        "serving: terminal results come back, in-flight "
                        "jobs are re-queued lease-free")
    c.add_argument("--journal-interval", type=float, default=0.5,
                   metavar="SECONDS",
                   help="write-behind checkpoint period for completions "
                        "(submissions always checkpoint synchronously)")
    c.set_defaults(func=cmd_cluster_serve)

    c = cluster_sub.add_parser("worker", help="run one build worker")
    c.add_argument("--coordinator", required=True, metavar="HOST:PORT")
    c.add_argument("--store", default="", help=store_help)
    c.add_argument("--store-server", default="", metavar="HOST:PORT",
                   help="shared store served by `cache serve` "
                        "(alternative to --store)")
    c.add_argument("--worker-id", default="")
    c.add_argument("--local-tier", default="", metavar="DIR",
                   help="worker-local store tier root: hot artifacts are "
                        "served from DIR/<worker-id> at disk latency, "
                        "puts write back to the shared store in batches "
                        "(the ccache topology; pair with --store-server)")
    c.add_argument("--flush-interval", type=float, default=None,
                   metavar="SECONDS",
                   help="background write-back flush period for "
                        "--local-tier (default: flush on size bound and "
                        "at job boundaries only)")
    c.add_argument("--job-workers", type=int, default=1,
                   help="thread-pool width inside one job (cluster "
                        "parallelism comes from workers, so default 1)")
    c.add_argument("--max-idle-seconds", type=float, default=None,
                   help="exit after this long with no work (default: "
                        "run until the coordinator goes away)")
    c.add_argument("--max-coordinator-downtime", type=float, default=None,
                   metavar="SECONDS",
                   help="keep retrying (jittered backoff) through a "
                        "coordinator outage this long before exiting "
                        "(default 10s — rides out a restart + --resume)")
    c.set_defaults(func=cmd_cluster_worker)

    c = cluster_sub.add_parser(
        "build", help="build + deploy a batch through the farm")
    c.add_argument("--app", required=True, choices=sorted(APPS))
    c.add_argument("--systems", required=True,
                   help="comma-separated system names (e.g. ault23,ault25)")
    c.add_argument("--coordinator", default="", metavar="HOST:PORT",
                   help="external coordinator with its own workers; "
                        "omit to self-host --workers N in-process")
    c.add_argument("--workers", type=int, default=2,
                   help="self-hosted worker count (ignored with "
                        "--coordinator)")
    c.add_argument("--store", default="", help=store_help)
    c.add_argument("--store-server", default="", metavar="HOST:PORT",
                   help="shared store served by `cache serve` "
                        "(alternative to --store)")
    c.add_argument("--scale", type=float, default=None,
                   help="app source-tree scale (gromacs defaults to 0.02)")
    c.add_argument("--skip-incompatible", action="store_true")
    c.add_argument("--job-timeout", type=float, default=300.0,
                   help="per-wave stall timeout: raised only after this "
                        "long with no job completing")
    c.add_argument("--json", action="store_true",
                   help="machine-readable plan, routing, and job results")
    c.add_argument("--trace", default="", metavar="OUT.json",
                   help="write a Chrome trace-event file correlating "
                        "client, coordinator, worker, and store-server "
                        "spans under one trace id")
    c.set_defaults(func=cmd_cluster_build)

    c = cluster_sub.add_parser(
        "top", help="live farm aggregates: per-worker queue depth, "
                    "throughput, job/store latencies")
    c.add_argument("--coordinator", required=True, metavar="HOST:PORT")
    c.add_argument("--worker-metrics", action="store_true",
                   help="include each worker's full merged metric snapshot")
    c.add_argument("--watch", action="store_true",
                   help="refresh in place until interrupted, with "
                        "sparkline trends from the farm metrics history")
    c.add_argument("--interval", type=float, default=2.0,
                   help="refresh period for --watch (default 2s)")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_cluster_top)

    c = cluster_sub.add_parser(
        "status", help="scheduler state plus the telemetry summary")
    c.add_argument("--coordinator", required=True, metavar="HOST:PORT")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_cluster_status)

    p = sub.add_parser("cache",
                       help="inspect and manage a persistent artifact store")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)

    c = cache_sub.add_parser("stats", help="store size and index statistics")
    c.add_argument("--store", default="", help=store_help)
    c.add_argument("--store-server", default="", metavar="HOST:PORT",
                   help="inspect a store served by `cache serve`; the "
                        "report embeds the server's live counters")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_cache_stats)

    c = cache_sub.add_parser(
        "serve", help="serve a store directory to other processes")
    c.add_argument("--store", required=True, help=store_help)
    c.add_argument("--host", default="127.0.0.1")
    c.add_argument("--port", type=int, default=0,
                   help="0 lets the OS pick; the address is printed")
    c.add_argument("--max-body-bytes", type=int,
                   default=DEFAULT_MAX_BODY_BYTES, metavar="N",
                   help="reject any single request body larger than N "
                        "with a clean error instead of buffering it")
    c.set_defaults(func=cmd_cache_serve)

    c = cache_sub.add_parser("gc",
                             help="bound the store: TTL-expire old entries "
                                  "and/or LRU-evict to a byte budget "
                                  "(pinned manifests kept)")
    c.add_argument("--store", required=True, help=store_help)
    c.add_argument("--max-bytes", type=int, default=None,
                   help="target store size in bytes")
    c.add_argument("--max-age-seconds", type=float, default=None,
                   help="expire entries whose payload blob is older than "
                        "this, regardless of the byte budget")
    c.add_argument("--grace-seconds", type=float, default=0.0,
                   help="never delete blobs younger than this; use > 0 "
                        "when builders may be publishing concurrently")
    c.add_argument("--dry-run", action="store_true",
                   help="price the eviction plan (keys, bytes, "
                        "per-namespace totals) without deleting anything")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_cache_gc)

    c = cache_sub.add_parser("export", help="pack the store into one archive")
    c.add_argument("--store", required=True, help=store_help)
    c.add_argument("--output", required=True, help="archive path (.tar.gz)")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_cache_export)

    c = cache_sub.add_parser("import",
                             help="merge an exported archive into the store")
    c.add_argument("--store", required=True, help=store_help)
    c.add_argument("--input", required=True, help="archive path (.tar.gz)")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_cache_import)

    p = sub.add_parser("telemetry",
                       help="flight-recorder dumps and metrics history")
    telemetry_sub = p.add_subparsers(dest="telemetry_command", required=True)

    c = telemetry_sub.add_parser(
        "report", help="render a flight-recorder crash dump")
    c.add_argument("dump", metavar="CRASH.json",
                   help="crash dump written by the flight recorder")
    c.add_argument("--trace", default="", metavar="TRACE.json",
                   help="Chrome trace export of the same build; events "
                        "are cross-linked to the spans they ran inside")
    c.add_argument("--json", action="store_true",
                   help="print the validated dump as JSON")
    c.set_defaults(func=cmd_telemetry_report)

    c = telemetry_sub.add_parser(
        "history", help="fetch a live process's bounded metrics history")
    c.add_argument("--coordinator", default="", metavar="HOST:PORT",
                   help="read the farm-wide history from a coordinator")
    c.add_argument("--store-server", default="", metavar="HOST:PORT",
                   help="read a store server's sampler history")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_telemetry_history)

    p = sub.add_parser("bench", help="predict a workload run")
    p.add_argument("--app", required=True, choices=sorted(APPS))
    p.add_argument("--system", required=True, choices=sorted(SYSTEMS))
    p.add_argument("--workload", required=True)
    p.add_argument("--threads", type=int, default=16)
    p.add_argument("--option", action="append", metavar="KEY=VALUE",
                   help="build option (repeatable)")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
