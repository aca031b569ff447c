"""Build-farm cluster: multi-worker batch builds vs the single-process path.

Not a paper figure — this benchmarks the ISSUE 4 machinery: a coordinator
sharding one GROMACS batch (one stage job per configuration,
lower per ISA, deploy per system) across worker *processes* that share one
file-backed store must (a) produce byte-identical deployments with zero
duplicate lowerings and (b) make a warm rerun — every ISA already lowered
in the store — nearly free via store-aware routing. Farm-vs-local wall
time is printed here but measured by the committed end-to-end benchmark
(``farm_cold/wall_s`` vs ``local_cold/wall_s`` in ``benchmarks/e2e``),
not asserted by an in-test wall-clock comparison.

``XAAS_BENCH_SCALE`` sizes the GROMACS tree as everywhere else; at 1.0
this is the full-scale sweep the ROADMAP's per-stage sharding item asks
about.
"""

import os
import time

from conftest import BENCH_SCALE, print_table

from repro.apps import five_isa_configs, gromacs_model
from repro.cluster import LocalCluster
from repro.containers import ArtifactCache, BlobStore
from repro.core import build_ir_container, deploy_batch
from repro.discovery import get_system
from repro.store import FileBackend

# An unpinned-SIMD configuration alongside the five pinned ones: deploying
# it selects the ISA per system, so the 5-system batch spans two ISA
# groups (AVX_512 x3, AVX2_256 x2) and the scheduler has real routing to do.
AUTO = {"GMX_SIMD": "AUTO", "GMX_OPENMP": "ON", "GMX_FFT_LIBRARY": "fftw3"}
SYSTEMS = ["ault23", "ault25", "ault01-04", "aurora", "dev-machine"]
WORKERS = 3
#: Workers batch index saves; the single-process path gets the same
#: setting so the comparison isolates scheduling, not index I/O policy.
FLUSH_EVERY = 1024


def _configs():
    return five_isa_configs() + [AUTO]


def _single_process(app, root):
    store = BlobStore(FileBackend(root))
    cache = ArtifactCache(store, flush_every=FLUSH_EVERY)
    result = build_ir_container(app, _configs(), store=store, cache=cache)
    batch = deploy_batch(result, app, AUTO,
                         [get_system(n) for n in SYSTEMS], store, cache=cache)
    return result, batch


def test_cluster_matches_single_process_byte_for_byte(tmp_path):
    app = gromacs_model(scale=BENCH_SCALE)

    start = time.perf_counter()
    result, batch = _single_process(app, str(tmp_path / "single"))
    single_seconds = time.perf_counter() - start

    start = time.perf_counter()
    with LocalCluster(workers=WORKERS, mode="process",
                      store_dir=str(tmp_path / "farm")) as cluster:
        report = cluster.build("gromacs", SYSTEMS, configs=_configs(),
                               options=AUTO, scale=BENCH_SCALE,
                               job_timeout=1800.0)
    cluster_seconds = time.perf_counter() - start

    cores = os.cpu_count() or 1
    speedup = single_seconds / cluster_seconds
    print_table(
        f"Cluster build: {WORKERS} worker processes vs one process "
        f"({cores} cores, scale {BENCH_SCALE})",
        ("path", "seconds", "lowerings", "duplicates"),
        [("single process", f"{single_seconds:.2f}",
          batch.lowerings_performed, 0),
         (f"cluster ({WORKERS} workers)", f"{cluster_seconds:.2f}",
          report.lowerings_performed, report.duplicate_lowerings),
         ("speedup", f"{speedup:.2f}x", "", "")])

    # Byte-identical deployments, zero duplicated lowering work across
    # all workers (via store stats).
    reference = {d.system.name: d for d in batch.deployments}
    assert [d["system"] for d in report.deployments] == SYSTEMS
    for dep in report.deployments:
        ref = reference[dep["system"]]
        assert dep["tag"] == ref.tag
        assert dep["image_digest"] == ref.image.digest
    assert report.duplicate_lowerings == 0
    assert report.lowerings_performed == batch.lowerings_performed


def test_store_aware_rerun_is_nearly_free(tmp_path):
    """Second batch against the same store: every ISA routes warm, no
    lower jobs exist, and fewer jobs than the cold batch ran. Counts
    only: both timings are printed, neither is asserted (a two-core box
    that changes CPU phase mid-test can make the warm batch the slower)."""
    app = gromacs_model(scale=BENCH_SCALE)
    del app  # the workers build their own; constructed here only to warm OS caches

    with LocalCluster(workers=2, mode="process",
                      store_dir=str(tmp_path / "farm")) as cluster:
        start = time.perf_counter()
        cold = cluster.build("gromacs", SYSTEMS, configs=_configs(),
                             options=AUTO, scale=BENCH_SCALE,
                             job_timeout=1800.0)
        cold_seconds = time.perf_counter() - start

        start = time.perf_counter()
        warm = cluster.build("gromacs", SYSTEMS, configs=_configs(),
                             options=AUTO, scale=BENCH_SCALE,
                             job_timeout=1800.0)
        warm_seconds = time.perf_counter() - start

    print_table(
        "Store-aware routing: cold vs fully-warm cluster batch",
        ("batch", "seconds", "warm ISA groups", "cold ISA groups",
         "lowerings performed"),
        [("cold store", f"{cold_seconds:.2f}", len(cold.warm_groups),
          len(cold.cold_groups), cold.lowerings_performed),
         ("warm store", f"{warm_seconds:.2f}", len(warm.warm_groups),
          len(warm.cold_groups), warm.lowerings_performed)])

    assert cold.cold_groups and not cold.warm_groups
    assert warm.warm_groups and not warm.cold_groups
    assert warm.lowerings_performed == 0
    # No lower job was even submitted on the warm run.
    assert not any("/lower/" in job_id for job_id in warm.jobs)
    assert len(warm.jobs) < len(cold.jobs)
