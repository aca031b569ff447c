"""Growth gates: a path's store cost must grow linearly with the work.

At the benchmark's scale a per-artifact rewrite of the whole index costs
a few times, at the paper's scale it costs minutes, so each gate runs one
path at two sizes — GROMACS at 0.01 and at 0.04, about four times the
artifacts — and bounds the growth of deterministic counts, never a clock.
"""

import pytest

from repro.apps import gromacs_model
from repro.containers.store import ArtifactCache, BlobStore
from repro.core import build_ir_container, deploy_batch
from repro.discovery import get_system
from repro.store import FileBackend, MemoryBackend
from repro.store import index as index_module
from repro.store.index import INDEX_REF_PREFIX, index_ref_names, parse_shard

CONFIGS = [{"GMX_SIMD": simd, "GMX_OPENMP": "ON", "GMX_FFT_LIBRARY": "fftw3"}
           for simd in ("None", "SSE4.1", "AVX2_128", "AVX_256", "AVX_512",
                        "AUTO")]
OPTIONS = CONFIGS[-1]
SYSTEMS = ["ault23", "ault25", "ault01-04", "aurora", "dev-machine"]
#: Linear growth, plus slack, for about four times the artifacts.
MAX_GROWTH = 4.5
#: Index CAS bytes of a cold build + ``deploy_batch`` at scale 0.01 when
#: shards were JSON text, every row spelling its key, namespace and
#: digest (counted with ``CountingFileBackend``).
JSON_SHARD_CAS_BYTES = 88_469
#: A binary shard's header and one row, in bytes.
HEADER_BYTES, ROW_BYTES = 16, 72
#: Ceiling on a file store's stored bytes over its blobs' bytes: every
#: stored artifact is text or JSON, and the blob files hold it deflated
#: (0.40 at scale 0.01, 0.44 on the benchmark's scale-0.1 inputs).
MAX_STORED_SHARE = 0.6


class CountingFileBackend(FileBackend):
    """A file store that records the size of every index CAS it writes."""

    def __init__(self, root):
        super().__init__(root)
        self.cas_bytes: list[int] = []

    def compare_and_set_ref(self, name, expected, data):
        if name.startswith(INDEX_REF_PREFIX):
            self.cas_bytes.append(len(data))
        return super().compare_and_set_ref(name, expected, data)


def _cold_deploy_cas(root, scale):
    """Index CAS calls and bytes of a cold ``deploy_batch`` right after a
    cold build, at ``flush_every=1``, and the batch's ISA groups."""
    backend = CountingFileBackend(root)
    store = BlobStore(backend)
    cache = ArtifactCache(store, flush_every=1)
    app = gromacs_model(scale=scale)
    result = build_ir_container(app, CONFIGS, store=store, cache=cache)
    backend.cas_bytes.clear()
    batch = deploy_batch(result, app, OPTIONS,
                         [get_system(name) for name in SYSTEMS], store,
                         cache=cache)
    assert batch.lowerings_performed > 0
    return len(backend.cas_bytes), sum(backend.cas_bytes), \
        len(batch.plan.groups)


@pytest.fixture(scope="module")
def cold_deploys(tmp_path_factory):
    return [_cold_deploy_cas(tmp_path_factory.mktemp(f"scale-{scale}"), scale)
            for scale in (0.01, 0.04)]


def test_a_cold_deploy_batch_saves_its_index_once_per_isa_group(
        cold_deploys):
    # One put_many per group's lowering loop and the closing flush — not
    # one whole-shard rewrite per lowering.
    for cas, _bytes, groups in cold_deploys:
        assert cas <= groups + 1


def test_a_cold_deploy_batchs_index_bytes_grow_linearly(cold_deploys):
    (_, small, _), (_, large, _) = cold_deploys
    assert large <= MAX_GROWTH * small, (small, large)


#: The build front's namespaces: one index shard each.
FRONT_NAMESPACES = ("configure", "preprocess", "ir")


def _cold_build_cas(root, scale):
    """Index CAS calls and bytes of a cold ``build_ir_container`` at
    ``flush_every=1``."""
    backend = CountingFileBackend(root)
    store = BlobStore(backend)
    build_ir_container(gromacs_model(scale=scale), CONFIGS, store=store,
                       cache=ArtifactCache(store, flush_every=1))
    return len(backend.cas_bytes), sum(backend.cas_bytes)


@pytest.fixture(scope="module")
def cold_builds(tmp_path_factory):
    return [_cold_build_cas(tmp_path_factory.mktemp(f"build-{scale}"), scale)
            for scale in (0.01, 0.04)]


def test_a_cold_build_saves_its_index_once_per_front_stage(cold_builds):
    # One put_many per stage — not one whole-shard rewrite per IR — so
    # the count does not grow with the build.
    (small, _), (large, _) = cold_builds
    assert small == large <= len(FRONT_NAMESPACES) + 1, (small, large)


def test_a_cold_builds_index_bytes_grow_linearly(cold_builds):
    (_, small), (_, large) = cold_builds
    assert large <= MAX_GROWTH * small, (small, large)


def test_shards_hold_72_bytes_a_row_and_halve_the_cold_index_writes(
        tmp_path):
    backend = CountingFileBackend(tmp_path)
    store = BlobStore(backend)
    cache = ArtifactCache(store, flush_every=1)
    app = gromacs_model(scale=0.01)
    result = build_ir_container(app, CONFIGS, store=store, cache=cache)
    deploy_batch(result, app, OPTIONS, [get_system(name) for name in SYSTEMS],
                 store, cache=cache)
    names = index_ref_names(backend)
    assert len(names) == 4  # configure, preprocess, ir, lower
    for name in names:
        raw = backend.get_ref(name)
        rows = parse_shard(raw, name[len(INDEX_REF_PREFIX):])[1]
        assert rows and len(raw) == HEADER_BYTES + ROW_BYTES * len(rows)
    assert sum(backend.cas_bytes) < JSON_SHARD_CAS_BYTES / 2, \
        sum(backend.cas_bytes)


def _cold_build_and_deploy(backend):
    """Tags and image digests of a cold GROMACS 0.01 build + deploy_batch
    on ``backend``, at ``flush_every=1``."""
    store = BlobStore(backend)
    cache = ArtifactCache(store, flush_every=1)
    app = gromacs_model(scale=0.01)
    result = build_ir_container(app, CONFIGS, store=store, cache=cache)
    batch = deploy_batch(result, app, OPTIONS,
                         [get_system(name) for name in SYSTEMS], store,
                         cache=cache)
    return result.image.digest, [(dep.tag, dep.image.digest)
                                 for dep in batch.deployments]


def test_a_file_store_holds_its_blobs_deflated_and_deploys_the_same(
        tmp_path):
    backend = FileBackend(tmp_path)
    assert _cold_build_and_deploy(backend) == \
        _cold_build_and_deploy(MemoryBackend())
    count, stored = backend.stat()
    blobs = backend.get_many(backend.digests())
    assert count == len(blobs)
    raw = sum(map(len, blobs.values()))
    assert stored <= MAX_STORED_SHARE * raw, (stored, raw)


def test_a_warm_build_and_deploy_parse_each_shard_once_at_open(
        tmp_path, monkeypatch):
    """A save that re-reads the bytes its own handle last wrote has no
    other writer's change to merge: a warm run's saves — one per hit
    that re-puts — parse no shard, so the index costs O(namespace) a
    save, not O(whole index)."""
    _cold_build_and_deploy(FileBackend(tmp_path))
    parsed: list[str] = []

    def counting_parse_shard(raw, namespace):
        parsed.append(namespace)
        return parse_shard(raw, namespace)

    monkeypatch.setattr(index_module, "parse_shard", counting_parse_shard)
    backend = CountingFileBackend(tmp_path)
    store = BlobStore(backend)
    cache = ArtifactCache(store, flush_every=1)
    shards = sorted(name[len(INDEX_REF_PREFIX):]
                    for name in index_ref_names(backend))
    assert sorted(parsed) == shards  # the open's load
    app = gromacs_model(scale=0.01)
    result = build_ir_container(app, CONFIGS, store=store, cache=cache)
    batch = deploy_batch(result, app, OPTIONS,
                         [get_system(name) for name in SYSTEMS], store,
                         cache=cache)
    assert batch.lowerings_performed == 0
    assert backend.cas_bytes  # the saves still run, through their CAS
    assert sorted(parsed) == shards
