"""The acceptance criterion: a cold process pointed at a warm persistent
store deploys with 0 preprocess, 0 IR-compile, and 0 lower operations.

"Cold process" is simulated by constructing entirely fresh BlobStore /
ArtifactCache objects over the same backend: no live Python objects
survive, so every hit must be replayed from persisted payloads —
``parse_module`` for IR entries, ``machine_module_from_payload`` for
lowered entries. A true subprocess-level check runs in CI (the
persistent-store workflow job) and in ``tests/test_cli.py``.
"""

import pytest

from repro.apps import lulesh_configs, lulesh_model
from repro.containers.store import ArtifactCache, BlobStore
from repro.core import build_ir_container, deploy_ir_container
from repro.discovery import get_system
from repro.store import (AsyncStoreServer, FileBackend, MemoryBackend,
                         RemoteBackend)

OPTIONS = {"WITH_MPI": "OFF", "WITH_OPENMP": "ON"}


def _deploy(backend):
    """One full build+deploy over fresh store/cache objects; returns
    (build stats, lower-namespace cache delta, deployment)."""
    store = BlobStore(backend)
    cache = ArtifactCache(store)
    app = lulesh_model()
    result = build_ir_container(app, lulesh_configs(), store=store, cache=cache)
    before = cache.snapshot().get("lower", (0, 0))
    dep = deploy_ir_container(result, app, OPTIONS, get_system("ault23"),
                              store, cache=cache)
    after = cache.snapshot().get("lower", (0, 0))
    return result.stats, {"hits": after[0] - before[0],
                          "misses": after[1] - before[1]}, dep


@pytest.fixture(params=["file", "remote"])
def persistent_backend(request, tmp_path):
    if request.param == "file":
        yield lambda: FileBackend(tmp_path / "store")
    else:
        with AsyncStoreServer(MemoryBackend()) as server:
            host, port = server.address
            yield lambda: RemoteBackend(host, port)


class TestColdProcessDeploy:
    def test_cold_deploy_from_warm_store_does_zero_work(self, persistent_backend):
        warm_stats, warm_lower, warm_dep = _deploy(persistent_backend())
        assert warm_stats.preprocess_ops > 0
        assert warm_stats.ir_compile_ops > 0
        assert warm_lower["misses"] > 0

        cold_stats, cold_lower, cold_dep = _deploy(persistent_backend())
        assert cold_stats.preprocess_ops == 0
        assert cold_stats.ir_compile_ops == 0
        assert cold_stats.cache_misses.get("preprocess", 0) == 0
        assert cold_stats.cache_misses.get("ir", 0) == 0
        assert cold_lower == {"hits": warm_lower["misses"], "misses": 0}

    def test_cold_deploy_output_identical(self, persistent_backend):
        _, _, warm_dep = _deploy(persistent_backend())
        _, _, cold_dep = _deploy(persistent_backend())
        assert cold_dep.image.digest == warm_dep.image.digest
        assert cold_dep.tag == warm_dep.tag
        assert cold_dep.simd_name == warm_dep.simd_name
        assert set(cold_dep.artifact.machine_functions) == \
            set(warm_dep.artifact.machine_functions)

    def test_cold_deploy_predicts_same_performance(self, persistent_backend):
        """Reconstructed machine modules drive the perf model identically —
        the serialized payload carries trip counts, widths, parallel flags."""
        from repro.perf import run_workload

        _, _, warm_dep = _deploy(persistent_backend())
        _, _, cold_dep = _deploy(persistent_backend())
        system = get_system("ault23")
        warm = run_workload(warm_dep.artifact, system, "s50", threads=8)
        cold = run_workload(cold_dep.artifact, system, "s50", threads=8)
        assert cold.total_seconds == pytest.approx(warm.total_seconds)

    def test_new_isa_on_warm_ir_cache_lowers_fresh(self, tmp_path):
        """Deploying to a *new* ISA reuses IR entries (parsed from text)
        but must lower anew — and the parsed module vectorizes like the
        original, so the result matches a fully-cold build."""
        backend = FileBackend(tmp_path / "store")
        _deploy(backend)  # warm: ault23 (AVX_512)

        store = BlobStore(FileBackend(tmp_path / "store"))
        cache = ArtifactCache(store)
        app = lulesh_model()
        result = build_ir_container(app, lulesh_configs(), store=store,
                                    cache=cache)
        assert result.stats.ir_compile_ops == 0  # IRs parsed, not compiled
        dep = deploy_ir_container(result, app, OPTIONS, get_system("ault25"),
                                  store, cache=cache)

        reference = _reference_deploy(get_system("ault25"))
        assert dep.image.digest == reference.image.digest
        for name, mfn in reference.artifact.machine_functions.items():
            got = dep.artifact.machine_functions[name]
            assert got.target.name == mfn.target.name
            assert got.instruction_count() == mfn.instruction_count()


def _reference_deploy(system):
    app = lulesh_model()
    store = BlobStore()
    result = build_ir_container(app, lulesh_configs(), store=store)
    return deploy_ir_container(result, app, OPTIONS, system, store)
