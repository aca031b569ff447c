"""One deployment, two ways to run it: the master invariant, differentially.

The same batch through in-process ``deploy_batch`` and a forked-process
farm, its configurations listed or reversed, must give
identical tags and image digests, and the lowering counts each path
reports must be sums of what its lowering loops counted themselves —
exact with overlapping jobs on one shared cache, with no switch to say
so. The farm deploys in ``deploy_batch``'s unit, one job
per ISA group, so it makes exactly the batch's lookups: the same
``lowerings_performed`` *and* ``lowerings_reused``, cold and warm. It
builds each configuration once and nothing again — the image comes from
the stage jobs' summaries — and reports ``build_ir_container``'s funnel.
"""

import pytest

from repro.apps import app_model, lulesh_configs
from repro.cluster import LocalCluster
from repro.containers import ArtifactCache, BlobStore
from repro.core import build_ir_container, deploy_batch
from repro.discovery import get_system
from repro.store import FileBackend
from repro.telemetry import trace as _trace

GMX = {"GMX_OPENMP": "ON", "GMX_FFT_LIBRARY": "fftw3"}
BATCHES = {
    "lulesh": {
        "app": "lulesh", "scale": None, "configs": lulesh_configs(),
        "options": {"WITH_MPI": "OFF", "WITH_OPENMP": "ON"},
        "systems": ["ault23", "ault25", "ault01-04", "dev-machine"]},
    "gromacs": {
        "app": "gromacs", "scale": 0.01,
        "configs": [{"GMX_SIMD": "AVX_512", **GMX}, {"GMX_SIMD": "AUTO", **GMX}],
        "options": {"GMX_SIMD": "AUTO", **GMX},
        "systems": ["ault23", "ault25", "ault01-04"]},
}
PATHS = ("batch", "process")
FUNNEL = ("total_tus", "after_configuration", "after_preprocessing",
          "after_openmp", "final_irs", "incompatible_flag_fraction")
#: The build front's stages: what one stage job runs per configuration.
FRONT_STAGES = 5


def _run_batch(spec, store):
    """``(images, performed, reused, lookups, funnel)`` of one in-process
    batch."""
    app = app_model(spec["app"], spec["scale"])
    cache = ArtifactCache(store)
    result = build_ir_container(app, spec["configs"], store=store, cache=cache)
    batch = deploy_batch(result, app, spec["options"],
                         [get_system(name) for name in spec["systems"]],
                         store, cache=cache)
    for dep in batch.deployments:
        assert dep.lowerings_performed + dep.lowerings_reused == \
            dep.lowered_count
    stats = result.stats.to_json()
    return ({d.system.name: (d.tag, d.image.digest)
             for d in batch.deployments},
            batch.lowerings_performed, batch.lowerings_reused,
            sum(d.lowered_count for d in batch.deployments),
            {key: stats[key] for key in FUNNEL})


def _stage_runs_by_job_kind(spans) -> dict:
    """``pipeline.stage.*`` spans per kind of the farm job they ran in;
    ``None`` counts those outside any job (the client's)."""
    by_id = {span.span_id: span for span in spans}
    runs: dict = {}
    for span in spans:
        if not span.name.startswith("pipeline.stage."):
            continue
        kind, up = None, by_id.get(span.parent_id)
        while up is not None and kind is None:
            if up.name.startswith("cluster.worker."):
                kind = up.name[len("cluster.worker."):]
            up = by_id.get(up.parent_id)
        runs[kind] = runs.get(kind, 0) + 1
    return runs


def _run_farm(spec, cluster):
    recorder = _trace.TraceRecorder()
    with _trace.recording(recorder), _trace.span("test.farm.build"):
        report = cluster.build(spec["app"], spec["systems"],
                               configs=spec["configs"],
                               options=spec["options"], scale=spec["scale"])
    # Every stage ran in a stage job, once per configuration: none in the
    # client, none in a deploy job.
    assert _stage_runs_by_job_kind(recorder.drain() + cluster.drain_spans()) \
        == {"ir-compile": FRONT_STAGES * len(spec["configs"])}
    results = [rec["result"] for rec in report.jobs.values()]
    # The report's totals are the per-job sums, and every lowering a job
    # says it performed created exactly one `lower` entry: nothing was
    # lowered twice, and no job counted a neighbour's work.
    assert report.lowerings_performed == \
        sum(r.get("lowerings_performed", 0) for r in results) == \
        report.lower_entries_created
    assert report.lowerings_reused == \
        sum(r.get("lowerings_reused", 0) for r in results)
    assert report.duplicate_lowerings == 0
    # One stage job per configuration and one deploy job per ISA group:
    # nothing else.
    kinds = [job_id.split("/")[1] for job_id in report.jobs]
    assert kinds.count("ir") == len(spec["configs"])
    assert kinds.count("deploy") == len(report.plan_groups)
    assert len(report.jobs) == len(spec["configs"]) + len(report.plan_groups)
    return ({d["system"]: (d["tag"], d["image_digest"])
             for d in report.deployments},
            report.lowerings_performed, report.lowerings_reused,
            sum(row["lowered_count"] for r in results
                for row in r.get("deployments", ())),
            {key: report.build_stats[key] for key in FUNNEL})


def _cold_then_warm(path, spec, tmp_path):
    """The batch on an empty store, then again on what that left."""
    store_dir = str(tmp_path / path)
    if path == "batch":
        return [_run_batch(spec, BlobStore(FileBackend(store_dir)))
                for _ in range(2)]
    with LocalCluster(workers=2, store_dir=store_dir) as cluster:
        runs = [_run_farm(spec, cluster) for _ in range(2)]
        workers = cluster.coordinator.queue.telemetry_summary()["workers"]
        assert workers and all(worker.startswith("proc-")
                               for worker in workers)
    return runs


@pytest.mark.parametrize("name", sorted(BATCHES))
def test_two_paths_one_deployment(name, tmp_path):
    spec = BATCHES[name]
    # The configuration order is a path dimension too: an image is a
    # function of the configuration set, not of the list.
    orders = {"listed": spec,
              "reversed": {**spec, "configs": spec["configs"][::-1]}}
    runs = {(path, order): _cold_then_warm(path, ordered, tmp_path / order)
            for order, ordered in orders.items() for path in PATHS}
    for temperature in (0, 1):
        images, performed, reused, lookups, _funnel = \
            runs["batch", "listed"][temperature]
        assert sorted(images) == sorted(spec["systems"])
        # Every lookup of the lowering loop was counted, once.
        assert performed + reused == lookups
        for key, run in runs.items():
            # A farm makes deploy_batch's lookups: the same lowerings
            # performed and the same reused — and it reports
            # build_ir_container's funnel.
            assert run[temperature] == runs["batch", "listed"][temperature], \
                (key, temperature)
    cold, warm = runs["batch", "listed"]
    assert cold[1] > 0 and warm[1] == 0


def test_a_repeated_system_is_one_deployment_on_every_path(tmp_path):
    """``plan_batch`` treats a repeated name as one deployment, so the farm
    report lists it once too, in request order."""
    spec = {**BATCHES["lulesh"], "systems": ["ault23", "ault23", "ault25"]}
    app = app_model(spec["app"], spec["scale"])
    store = BlobStore()
    cache = ArtifactCache(store)
    result = build_ir_container(app, spec["configs"], store=store, cache=cache)
    batch = deploy_batch(result, app, spec["options"],
                         [get_system(name) for name in spec["systems"]],
                         store, cache=cache)
    with LocalCluster(workers=2, store_dir=str(tmp_path / "store")) as cluster:
        report = cluster.build(spec["app"], spec["systems"],
                               configs=spec["configs"],
                               options=spec["options"], scale=spec["scale"])
    rows = [(d.system.name, d.tag, d.image.digest) for d in batch.deployments]
    assert [name for name, _tag, _digest in rows] == ["ault23", "ault25"]
    assert [(d["system"], d["tag"], d["image_digest"])
            for d in report.deployments] == rows
