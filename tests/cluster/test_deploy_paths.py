"""One deployment, three ways to run it: the master invariant, differentially.

The same batch through in-process ``deploy_batch``, a thread farm and a
forked-process farm must give identical tags and image digests, and the
lowering counts each path reports must be sums of what its lowering loops
counted themselves — exact with overlapping jobs on one shared cache, with
no switch to say so.
"""

import pytest

from repro.apps import app_model, lulesh_configs
from repro.cluster import LocalCluster
from repro.containers import ArtifactCache, BlobStore
from repro.core import build_ir_container, deploy_batch
from repro.discovery import get_system
from repro.store import FileBackend

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
PATHS = ("batch", "thread", "process")


def _run_batch(spec, store):
    """``(images, performed, reused, lookups)`` of one in-process batch."""
    app = app_model(spec["app"], spec["scale"])
    cache = ArtifactCache(store)
    result = build_ir_container(app, spec["configs"], store=store, cache=cache)
    batch = deploy_batch(result, app, spec["options"],
                         [get_system(name) for name in spec["systems"]],
                         store, cache=cache)
    for dep in batch.deployments:
        assert dep.lowerings_performed + dep.lowerings_reused == \
            dep.lowered_count
    return ({d.system.name: (d.tag, d.image.digest)
             for d in batch.deployments},
            batch.lowerings_performed, batch.lowerings_reused,
            sum(d.lowered_count for d in batch.deployments))


def _run_farm(spec, cluster):
    report = cluster.build(spec["app"], spec["systems"],
                           configs=spec["configs"], options=spec["options"],
                           scale=spec["scale"])
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
    # One stage job per configuration, and no other kind of stage job.
    kinds = [job_id.split("/")[1] for job_id in report.jobs]
    assert kinds.count("ir") == len(spec["configs"])
    assert set(kinds) <= {"ir", "lower", "deploy"}
    return ({d["system"]: (d["tag"], d["image_digest"])
             for d in report.deployments},
            report.lowerings_performed, report.lowerings_reused,
            sum(r.get("lowerings", 0) + r.get("lowered_count", 0)
                for r in results))


def _cold_then_warm(path, spec, tmp_path):
    """The batch on an empty store, then again on what that left."""
    store_dir = str(tmp_path / path)
    if path == "batch":
        return [_run_batch(spec, BlobStore(FileBackend(store_dir)))
                for _ in range(2)]
    fleet = {"mode": "process", "store_dir": store_dir} if path == "process" \
        else {"store": BlobStore(FileBackend(store_dir))}
    with LocalCluster(workers=2, **fleet) as cluster:
        runs = [_run_farm(spec, cluster) for _ in range(2)]
        prefix = "proc-" if path == "process" else "local-"
        assert all(worker.startswith(prefix)
                   for worker in cluster.coordinator.queue.stats()["workers"])
    return runs


@pytest.mark.parametrize("name", sorted(BATCHES))
def test_three_paths_one_deployment(name, tmp_path):
    spec = BATCHES[name]
    runs = {path: _cold_then_warm(path, spec, tmp_path) for path in PATHS}
    for temperature in (0, 1):
        images, performed, _, _ = runs["batch"][temperature]
        assert sorted(images) == sorted(spec["systems"])
        for path in PATHS:
            got_images, got_performed, reused, lookups = \
                runs[path][temperature]
            assert got_images == images, (path, temperature)
            assert got_performed == performed, (path, temperature)
            # Every lookup of the lowering loop was counted, once.
            assert got_performed + reused == lookups, (path, temperature)
        # Threads or forks, a farm makes the same lookups.
        assert runs["thread"][temperature][1:] == \
            runs["process"][temperature][1:]
    cold, warm = runs["batch"]
    assert cold[1] > 0 and warm[1] == 0
    # Warm, no path lowers and the farm submits no lower job, so all
    # three reuse exactly the deployments' lookups.
    assert len({runs[path][1][2] for path in PATHS}) == 1
