"""Artifact cache: unit semantics + warm-rebuild acceptance criteria."""

import pytest

from repro.apps import five_isa_configs, gromacs_model, lulesh_configs, lulesh_model
from repro.containers import ArtifactCache, BlobStore
from repro.core import build_ir_container


class TestArtifactCache:
    def test_miss_then_hit(self):
        cache = ArtifactCache()
        assert cache.get("ns", {"k": 1}) is None
        cache.put("ns", {"k": 1}, "payload")
        entry = cache.get("ns", {"k": 1})
        assert entry is not None and entry.payload == "payload"
        counters = cache.counters("ns")
        assert (counters.hits, counters.misses) == (1, 1)
        assert counters.hit_rate == 0.5

    def test_namespaces_are_independent(self):
        cache = ArtifactCache()
        cache.put("a", "key", "va")
        cache.put("b", "key", "vb")
        assert cache.get("a", "key").payload == "va"
        assert cache.get("b", "key").payload == "vb"
        assert cache.counters("a").hits == 1
        assert cache.counters("b").hits == 1

    def test_republish_without_obj_drops_stale_object(self):
        cache = ArtifactCache()
        cache.put("ns", "key", "v1", obj=object())
        cache.put("ns", "key", "v2")  # payload-only republish
        entry = cache.get("ns", "key")
        assert entry.payload == "v2" and entry.obj is None
        assert cache.get("ns", "key").obj is None

    def test_payload_persisted_in_backing_blob_store(self):
        store = BlobStore()
        cache = ArtifactCache(store)
        entry = cache.put("ns", ["composite", {"key": 2}], "the artifact")
        assert store.get_text(entry.digest) == "the artifact"

    def test_snapshot_reports_per_namespace_deltas(self):
        cache = ArtifactCache()
        cache.get("ns", "missing")
        before = cache.snapshot()
        cache.put("ns", "k", "v")
        cache.get("ns", "k")
        after = cache.snapshot()
        assert before["ns"] == (0, 1)
        assert after["ns"] == (1, 1)


class TestWarmRebuild:
    """The acceptance criterion: a repeated build over the same app/configs
    with a shared cache performs zero new preprocess/IR compilations."""

    def test_second_lulesh_build_is_fully_cached(self):
        cache = ArtifactCache()
        app = lulesh_model()
        cold = build_ir_container(app, lulesh_configs(), cache=cache)
        warm = build_ir_container(app, lulesh_configs(), cache=cache)

        assert cold.stats.preprocess_ops > 0
        assert cold.stats.ir_compile_ops == cold.stats.final_irs

        # Zero new work on the warm build...
        assert warm.stats.preprocess_ops == 0
        assert warm.stats.ir_compile_ops == 0
        # ...because every lookup hit.
        assert warm.stats.cache_misses.get("preprocess", 0) == 0
        assert warm.stats.cache_misses.get("ir", 0) == 0
        assert warm.stats.cache_hits["preprocess"] == \
            cold.stats.cache_misses["preprocess"]
        assert warm.stats.cache_hits["ir"] == warm.stats.final_irs

    def test_warm_build_output_identical(self):
        cache = ArtifactCache()
        app = lulesh_model()
        cold = build_ir_container(app, lulesh_configs(), cache=cache)
        warm = build_ir_container(app, lulesh_configs(), cache=cache)
        assert warm.image.digest == cold.image.digest
        assert warm.ir_files == cold.ir_files
        assert warm.manifests == cold.manifests
        assert warm.stats.summary() == cold.stats.summary()

    def test_gromacs_isa_sweep_shares_work_across_builds(self):
        """The five-ISA sweep scenario: rebuilding with one more config only
        pays for what actually changed."""
        cache = ArtifactCache()
        app = gromacs_model(scale=0.01)
        configs = five_isa_configs()
        build_ir_container(app, configs[:4], cache=cache)
        full = build_ir_container(app, configs, cache=cache)
        # The fifth config's TUs share sources with the first four: most
        # preprocessing identities are already cached.
        assert full.stats.cache_hits["preprocess"] > 0
        assert full.stats.preprocess_ops < full.stats.total_tus

    def test_concurrent_builds_on_one_cache_count_their_own_lookups(self):
        """Two threads build different apps through one shared cache: each
        result reports the lookups its own stages made, not a share of the
        cache's counters."""
        import threading

        apps = {"lulesh": (lulesh_model(), lulesh_configs()),
                "gromacs": (gromacs_model(scale=0.01), five_isa_configs())}
        alone = {name: build_ir_container(app, configs).stats
                 for name, (app, configs) in apps.items()}

        cache = ArtifactCache()
        together = {}
        barrier = threading.Barrier(len(apps))

        def build(name):
            app, configs = apps[name]
            barrier.wait()
            together[name] = build_ir_container(app, configs,
                                                cache=cache).stats

        threads = [threading.Thread(target=build, args=(name,))
                   for name in apps]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for name, stats in together.items():
            assert stats.cache_hits == alone[name].cache_hits, name
            assert stats.cache_misses == alone[name].cache_misses, name
        assert alone["lulesh"].cache_misses != alone["gromacs"].cache_misses

    def test_unshared_caches_do_not_interact(self):
        app = lulesh_model()
        first = build_ir_container(app, lulesh_configs())
        second = build_ir_container(app, lulesh_configs())
        assert second.stats.cache_hits.get("preprocess", 0) == 0
        assert second.stats.preprocess_ops == first.stats.preprocess_ops

    def test_stats_only_rebuild_skips_preprocessing_too(self):
        cache = ArtifactCache()
        app = lulesh_model()
        build_ir_container(app, lulesh_configs(), cache=cache, compile_irs=False)
        warm = build_ir_container(app, lulesh_configs(), cache=cache,
                                  compile_irs=False)
        assert warm.stats.preprocess_ops == 0
        assert warm.stats.final_irs == 14

    def test_stage_timings_cover_registered_stages(self):
        result = build_ir_container(lulesh_model(), lulesh_configs())
        assert set(result.stats.stage_seconds) == {
            "configure", "preprocess", "openmp", "vectorize",
            "ir-compile", "assemble-image"}

    def test_ablation_registers_fewer_stages(self):
        result = build_ir_container(lulesh_model(), lulesh_configs(),
                                    stages=("preprocess",), compile_irs=False)
        assert set(result.stats.stage_seconds) == {
            "configure", "preprocess", "ir-compile", "assemble-image"}

    def test_domain_exceptions_propagate_unwrapped(self):
        """Stage failures keep the pre-refactor exception contract."""
        from repro.buildsys import ConfigureError

        with pytest.raises(ConfigureError, match="not one of the allowed"):
            build_ir_container(gromacs_model(scale=0.01),
                               [{"GMX_SIMD": "NOT_A_LEVEL"}])

    def test_stats_to_json_is_serializable(self):
        import json

        result = build_ir_container(lulesh_model(), lulesh_configs())
        blob = json.loads(json.dumps(result.stats.to_json()))
        assert blob["final_irs"] == 14
        assert blob["ir_compile_ops"] == 14
        assert pytest.approx(blob["reduction"]) == 0.3


class TestLoweringPurity:
    """Lowering optimizes a private copy: the input module — the immutable
    artifact an IR container ships — is never mutated, so every
    ``(IR, ISA, -O)`` result is deterministic and unconditionally
    cacheable. (The per-module lock and the mixed-``-O`` cacheability
    guard the old in-place optimizer required are gone.)"""

    @staticmethod
    def _module():
        from repro.compiler.frontend import compile_source_to_ir

        return compile_source_to_ir(
            "double f(double* x, int n) { double s = 1.0 + 2.0;\n"
            "for (int i = 0; i < n; i++) { s = s + x[i]; } return s; }")

    def test_same_opt_level_hits(self):
        from repro.compiler.lowering import lower_module_cached
        from repro.compiler.target import get_target

        cache = ArtifactCache()
        module = self._module()
        digest = module.fingerprint()
        a, a_fresh = lower_module_cached(module, get_target("AVX_512"), 3,
                                         cache=cache, ir_digest=digest)
        b, b_fresh = lower_module_cached(module, get_target("AVX_512"), 3,
                                         cache=cache, ir_digest=digest)
        assert a is b
        assert (a_fresh, b_fresh) == (True, False)
        assert cache.counters("lower").hits == 1

    def test_lowering_does_not_mutate_the_module(self):
        from repro.compiler.lowering import lower_module
        from repro.compiler.target import get_target

        module = self._module()
        before = module.render()
        lower_module(module, get_target("AVX_512"), 3)
        lower_module(module, get_target("None"), 0)
        assert module.render() == before
        assert module.fingerprint() == self._module().fingerprint()

    def test_mixed_opt_levels_all_cacheable(self):
        from repro.compiler.lowering import lower_module_cached
        from repro.compiler.target import get_target

        cache = ArtifactCache()
        module = self._module()
        digest = module.fingerprint()
        target = get_target("AVX_512")

        def lower(opt):
            return lower_module_cached(module, target, opt, cache=cache,
                                       ir_digest=digest)[0]

        o3_first = lower(3)
        lower(0)
        assert lower(0) is not None   # -O0 entry served from cache
        assert lower(3) is o3_first   # -O3 entry undisturbed by -O0
        counters = cache.counters("lower")
        assert (counters.hits, counters.misses) == (2, 2)

    def test_opt_levels_produce_independent_results(self):
        """-O0 after -O3 sees the unoptimized module, not folded residue."""
        from repro.compiler.lowering import lower_module
        from repro.compiler.target import get_target

        module = self._module()
        target = get_target("AVX_512")
        o3 = lower_module(module, target, 3)
        o0 = lower_module(module, target, 0)
        o0_fresh = lower_module(self._module(), target, 0)
        assert o0.function("f").instruction_count() == \
            o0_fresh.function("f").instruction_count()
        assert o0.function("f").instruction_count() > \
            o3.function("f").instruction_count()

    def test_payload_only_hit_reconstructs_machine_module(self):
        """A cold process (no live objects) rebuilds the machine module
        from the serialized payload — zero lowering work."""
        from repro.compiler.lowering import (
            lower_module_cached,
            machine_module_to_payload,
        )
        from repro.compiler.target import get_target

        module = self._module()
        digest = module.fingerprint()
        target = get_target("AVX_512")
        warm_cache = ArtifactCache()
        warm, _ = lower_module_cached(module, target, 3, cache=warm_cache,
                                      ir_digest=digest)

        # Simulate the cold process: same blob store, no live objects.
        cold_cache = ArtifactCache(warm_cache.store)
        parts = {"ir": digest, "target": target.name, "opt": 3}
        entry = warm_cache.get("lower", parts)
        cold_cache.put("lower", parts, entry.payload)  # payload-only entry
        cold, fresh = lower_module_cached(module, target, 3, cache=cold_cache,
                                          ir_digest=digest)
        assert cold is not warm and not fresh
        assert machine_module_to_payload(cold) == machine_module_to_payload(warm)
        assert cold_cache.counters("lower").hits == 1
