"""The ``ir`` cache identity is what the frontend consumes — preprocessed
text, unit name, frontend flags — so configurations built apart share
IRs exactly where a joint build does (paper Fig. 7, Sec. 4.2-4.3).
Counts only."""

import json

import pytest

from repro.apps import app_model, default_ir_sweep
from repro.containers import ArtifactCache, BlobStore
from repro.core import build_ir_container


def _sweep(name, scale):
    app = app_model(name, scale) if scale else app_model(name)
    configs, _options = default_ir_sweep(name)
    return app, configs


# GROMACS configurations differ in generated headers only, so every IR a
# joint build shares is shared apart as well (per-configuration keys
# compiled the per-configuration sum, 175). LULESH stays at its sum of 20,
# above its 14 final IRs: a WITH_OPENMP=ON configuration compiles its
# OpenMP-free units under -fopenmp, the IR text records the flag, and a
# joint build takes those units from the configuration it saw first.
@pytest.mark.parametrize("name, scale, compiled, final_irs", [
    ("lulesh", None, 20, 14), ("gromacs", 0.02, 52, 52)])
def test_configurations_built_apart_share_irs(name, scale, compiled,
                                              final_irs):
    app, configs = _sweep(name, scale)
    reference = build_ir_container(app, configs)
    assert reference.stats.final_irs == final_irs
    cache = ArtifactCache(BlobStore())
    apart = [build_ir_container(app, [config], store=cache.store, cache=cache)
             for config in configs]
    assert sum(result.stats.ir_compile_ops for result in apart) == compiled

    joint = build_ir_container(app, configs, store=cache.store, cache=cache)
    assert joint.stats.ir_compile_ops == 0
    assert joint.stats.cache_hits["ir"] == joint.stats.final_irs
    assert joint.image.digest == reference.image.digest


def test_collected_text_blob_recompiles_from_source():
    app, configs = _sweep("lulesh", None)
    reference = build_ir_container(app, configs)
    cache = ArtifactCache(BlobStore())
    build_ir_container(app, configs, store=cache.store, cache=cache,
                       compile_irs=False)
    texts = {json.loads(cache.store.get_text(record.digest))["text_digest"]
             for record in cache.entries().values()
             if record.namespace == "preprocess"}
    assert texts and all(cache.store.delete(digest) for digest in texts)

    rebuilt = build_ir_container(app, configs, store=cache.store, cache=cache)
    assert rebuilt.stats.preprocess_ops == 0  # the index entries survive
    assert rebuilt.stats.ir_compile_ops == rebuilt.stats.final_irs == 14
    assert rebuilt.ir_files == reference.ir_files
    assert rebuilt.image.digest == reference.image.digest


@pytest.mark.parametrize("stages", [(), ("preprocess",)])
def test_ablations_compile_and_hit_on_rebuild(stages):
    app, configs = _sweep("lulesh", None)
    cache = ArtifactCache(BlobStore())
    cold = build_ir_container(app, configs, store=cache.store, cache=cache,
                              stages=stages)
    assert cold.stats.ir_compile_ops == cold.stats.final_irs == 20
    warm = build_ir_container(app, configs, store=cache.store, cache=cache,
                              stages=stages)
    assert warm.stats.ir_compile_ops == 0
    assert warm.stats.cache_hits["ir"] == 20
    assert warm.image.digest == cold.image.digest
    assert warm.image.digest == build_ir_container(
        app, configs, stages=stages).image.digest
