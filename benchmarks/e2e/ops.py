#!/usr/bin/env python3
"""One benchmark sample: a fresh process doing one user-visible operation.

``run.py`` starts this file once per sample, the way a user starts one
``python -m repro.cli`` process per command, so no module-level state of the
program survives from one sample to the next. The process receives only the
generated spec (app, scale, configurations, options, system names), opens the
store the way ``repro.cli`` does, and times nothing but the public calls of
the operation; everything before them is set-up and is reported as such.

    ops.py sample --spec S.json --op batch --store DIR --out R.json
    ops.py sample --spec S.json --op batch --server HOST:PORT --server-pid N ...
    ops.py sample --spec S.json --op farm  --store DIR --out R.json
    ops.py serve  --store DIR        # AsyncStoreServer until stdin closes

``--probe spans`` installs the probes of probe.py and a process-wide
``TraceRecorder``; ``--probe calls`` counts Python calls per package. Only
public names of ``repro`` are used.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

_CLK_TCK = os.sysconf("SC_CLK_TCK")
#: What ``deploy-batch --workers 2`` starts.
FARM_WORKERS = 2


def _server_cpu_seconds(pid: int) -> float:
    """utime + stime of another process, from ``/proc/<pid>/stat``."""
    if not pid:
        return 0.0
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def _server_peak_rss_kib(pid: int) -> int:
    if not pid:
        return 0
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _cpu_seconds(server_pid: int) -> dict[str, float]:
    """CPU of every process of the program so far: this one, the children it
    has waited for (farm workers), and the store server."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {"self": time.process_time(),
            "children": children.ru_utime + children.ru_stime,
            "server": _server_cpu_seconds(server_pid)}


def _stats_layers(stats: dict) -> dict[str, float]:
    """Per-layer metrics every sample has, from ``PipelineStats.to_json()``."""
    out = {f"pipeline.stage.{stage}_s": seconds
           for stage, seconds in stats["stage_seconds"].items()}
    hits = sum(stats["cache_hits"].values())
    lookups = hits + sum(stats["cache_misses"].values())
    out.update({
        "pipeline.configure_ops": stats["configure_ops"],
        "pipeline.preprocess_ops": stats["preprocess_ops"],
        "pipeline.ir_compile_ops": stats["ir_compile_ops"],
        "pipeline.tus_total": stats["total_tus"],
        "pipeline.tus_after_preprocess": stats["after_preprocessing"],
        "pipeline.final_irs": stats["final_irs"],
        "pipeline.cache_hit_share": hits / lookups if lookups else 0.0,
    })
    return out


def open_store(args, farm: bool):
    """Store and cache as ``repro.cli._open_store`` builds them: default
    arguments, index saved per put except on the farm path, which batches
    index saves. ``--probe spans`` slips the timing probes in between.
    Returns ``(backend, store, cache)``."""
    from repro.containers import ArtifactCache, BlobStore
    from repro.containers.store import BULK_FLUSH_EVERY
    from repro.store import FileBackend, RemoteBackend
    if args.server:
        host, _, port = args.server.rpartition(":")
        backend = RemoteBackend(host, int(port))
    else:
        backend = FileBackend(args.store)
    cache_class = ArtifactCache
    if args.probe == "spans":
        import probe
        backend = probe.TimedBackend(backend)
        cache_class = probe.timed_cache(ArtifactCache, backend)
    store = BlobStore(backend)
    cache = cache_class(store, flush_every=BULK_FLUSH_EVERY if farm else 1)
    return backend, store, cache


def batch_operation(spec: dict, app, systems, store, cache):
    """``ir-build`` + ``deploy-batch``: the two public calls, timed apart.
    Returns ``(result, batch, layers)``."""
    from repro import telemetry
    from repro.core import build_ir_container, deploy_batch
    before = time.perf_counter()
    with telemetry.span("bench.build_ir_container"):
        result = build_ir_container(app, spec["configs"], store=store,
                                    cache=cache)
    built = time.perf_counter()
    with telemetry.span("bench.deploy_batch"):
        batch = deploy_batch(result, app, spec["options"], systems, store,
                             cache=cache)
    done = time.perf_counter()
    return result, batch, {"pipeline.build_s": built - before,
                           "pipeline.deploy_batch_s": done - built}


def farm_operation(spec: dict, store, cache, store_dir: str, traced: bool):
    """What ``deploy-batch --workers N`` costs: farm start, build, stop.
    Returns ``(report, spans, layers)``."""
    from repro import telemetry
    from repro.cluster import LocalCluster
    before = time.perf_counter()
    with telemetry.span("bench.cluster.start"):
        cluster = LocalCluster(workers=FARM_WORKERS, mode="process",
                               store=store, cache=cache,
                               store_dir=store_dir).start()
    started = time.perf_counter()
    try:
        with telemetry.span("bench.cluster.build"):
            report = cluster.build(spec["app"], spec["systems"],
                                   configs=spec["configs"],
                                   options=spec["options"],
                                   scale=spec["scale"])
        built = time.perf_counter()
        spans = cluster.drain_spans() if traced else []
    finally:
        with telemetry.span("bench.cluster.stop"):
            cluster.stop()
    stopped = time.perf_counter()
    return report, spans, {"cluster.start_s": started - before,
                           "cluster.build_s": built - started,
                           "cluster.stop_s": stopped - built}


def batch_outcome(result, batch) -> dict:
    """What the parent verifies and aggregates, from the operation's own
    outputs (after the timed region)."""
    from repro.perf import run_workload
    return {
        "image_digest": result.image.digest,
        "deployments": [
            {"system": dep.system.name, "simd": dep.simd_name, "tag": dep.tag,
             "digest": dep.image.digest, "lowered_count": dep.lowered_count}
            for dep in batch.deployments],
        "stats": result.stats.to_json(),
        "lowerings_performed": batch.lowerings_performed,
        "lowerings_reused": batch.lowerings_reused,
        "predicted_run_s": sum(
            run_workload(dep.artifact, dep.system, "testB").total_seconds
            for dep in batch.deployments),
    }


def farm_outcome(report) -> dict:
    """The same shape from a ``ClusterBuildReport``, which carries tags and
    digests but no artifacts (so no predicted run time)."""
    stats = dict(report.build_stats)
    # build_stats is the client's warm replay; the operations the farm
    # executed are in the workers' job results.
    for key in ("configure_ops", "preprocess_ops", "ir_compile_ops"):
        stats[key] = sum(job["result"].get(key, 0)
                         for job in report.jobs.values() if job["result"])
    return {
        "image_digest": report.image_digest,
        "deployments": [
            {"system": d["system"], "simd": d["simd"], "tag": d["tag"],
             "digest": d["image_digest"], "lowered_count": d["lowered_count"]}
            for d in report.deployments],
        "stats": stats,
        "lowerings_performed": report.lowerings_performed,
        "lowerings_reused": report.lowerings_reused,
    }


def wire_layers(before: dict, after: dict, client_s: float) -> dict:
    """Deltas of ``RemoteBackend.server_stats()`` over the timed region
    (less the one request that fetched ``after``)."""
    from probe import MIB
    trips = after["requests_served"] - before["requests_served"] - 1
    return {
        "wire.round_trips": trips,
        "wire.connections":
            after["connections_served"] - before["connections_served"],
        "wire.bytes_in_mb": (after["bytes_in"] - before["bytes_in"]) / MIB,
        "wire.bytes_out_mb": (after["bytes_out"] - before["bytes_out"]) / MIB,
        "wire.ms_per_round_trip": 1000.0 * client_s / trips if trips else 0.0}


def sample(args) -> dict:
    started = time.perf_counter()
    import repro.cli  # what every `python -m repro.cli` command pays
    import repro.cluster  # noqa: F401 - the CLI imports it on the farm path
    from repro import telemetry
    from repro.apps import app_model
    from repro.discovery import get_system
    imported = time.perf_counter()

    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    app = app_model(spec["app"], spec["scale"])
    systems = [get_system(name) for name in spec["systems"]]
    modelled = time.perf_counter()

    farm = args.op == "farm"
    backend, store, cache = open_store(args, farm)
    opened = time.perf_counter()

    recorder = None
    counter = contextlib.nullcontext()
    if args.probe == "spans":
        recorder = telemetry.TraceRecorder(max_spans=500_000)
        telemetry.set_service("client")
        telemetry.set_global_recorder(recorder)
    elif args.probe == "calls":
        import probe
        counter = probe.CallCounter(os.path.dirname(repro.cli.__file__))
    wire_before = backend.server_stats() if args.server else {}

    ready_at = time.time()
    cpu_before = _cpu_seconds(args.server_pid)
    wall_before = time.perf_counter()
    with counter, telemetry.span("bench.op"):
        if farm:
            report, spans, layers = farm_operation(
                spec, store, cache, args.store, recorder is not None)
        else:
            result, batch, layers = batch_operation(spec, app, systems,
                                                    store, cache)
    wall = time.perf_counter() - wall_before
    cpu_after = _cpu_seconds(args.server_pid)

    cpu = {who: cpu_after[who] - cpu_before[who] for who in cpu_after}
    out = farm_outcome(report) if farm else batch_outcome(result, batch)
    stats = out.pop("stats")
    out.update({
        "ready_at": ready_at,
        "wall_s": wall,
        "cpu_s": sum(cpu.values()),
        "peak_rss_kib": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            _server_peak_rss_kib(args.server_pid)),
        "stats": {key: stats[key] for key in
                  ("configure_ops", "preprocess_ops", "ir_compile_ops")},
        "layers": layers,
    })
    layers.update(_stats_layers(stats))
    layers.update({
        "cli.import_s": imported - started,
        "apps.model_s": modelled - imported,
        "containers.open_s": opened - modelled,
        "core.lowerings_performed": out["lowerings_performed"],
        "core.lowerings_reused": out["lowerings_reused"],
        "core.lowered_tus": sum(row["lowered_count"]
                                for row in out["deployments"])})
    if farm:
        layers.update({
            "cluster.jobs": len(report.jobs),
            "cluster.duplicate_lowerings": report.duplicate_lowerings,
            "cluster.index_cas_retries": cache.cas_retries,
            "cluster.client_cpu_s": cpu["self"],
            "cluster.workers_cpu_s": cpu["children"]})
    else:
        layers["async_server.cpu_s"] = cpu["server"]

    if args.probe == "calls":
        layers.update(counter.metrics())
    if recorder is not None:
        import probe
        telemetry.set_global_recorder(None)
        spans = (spans if farm else []) + recorder.drain()
        layers.update(backend.metrics())
        layers.update(cache.metrics())
        layers.update(probe.summarize_spans(spans, "bench.op",
                                            FARM_WORKERS))
        if args.server:
            layers.update(wire_layers(wire_before, backend.server_stats(),
                                      layers["wire.client_s"]))
        if args.trace_out:
            telemetry.write_chrome_trace(args.trace_out, spans)
    return out


def serve(args) -> None:
    from repro.store import AsyncStoreServer, FileBackend
    server = AsyncStoreServer(FileBackend(args.store))
    host, port = server.start()
    print(json.dumps({"host": host, "port": port, "pid": os.getpid()}),
          flush=True)
    try:
        sys.stdin.read()  # run.py closes the pipe to stop the server
    finally:
        server.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    one = sub.add_parser("sample")
    one.add_argument("--spec", required=True)
    one.add_argument("--op", choices=("batch", "farm"), required=True)
    one.add_argument("--store", default="")
    one.add_argument("--server", default="")
    one.add_argument("--server-pid", type=int, default=0)
    one.add_argument("--probe", choices=("none", "spans", "calls"),
                     default="none")
    one.add_argument("--trace-out", default="")
    one.add_argument("--out", required=True)
    srv = sub.add_parser("serve")
    srv.add_argument("--store", required=True)
    args = parser.parse_args(argv)
    if args.command == "serve":
        serve(args)
        return 0
    result = sample(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
