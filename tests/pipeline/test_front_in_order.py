"""The build front's loops run in input order on the calling thread.

``preprocess_stage`` preprocesses each distinct identity once, in the
order its first TU appears; ``ir_compile_stage`` compiles one IR per
class, in the order the class is first seen, and hands every TU its
class's IR. A failure propagates unchanged from the first failing item,
the items after it never run, and a failed stage publishes nothing of
its batch.
"""

import pytest

from repro.apps import lulesh_configs, lulesh_model
from repro.compiler import Compiler
from repro.containers import ArtifactCache
from repro.perf.model import default_build_environment
from repro.pipeline import stages
from repro.pipeline.stages import (configure_stage, ir_compile_stage,
                                   preprocess_stage)
from repro.pipeline.stats import PipelineStats


class StageError(RuntimeError):
    pass


def configured(configs, cache=None):
    """``(app, cache, configurations, tus, gen_digest)`` of a LULESH front
    after the configure stage."""
    app = lulesh_model()
    cache = cache if cache is not None else ArtifactCache()
    configurations, tus, gen_digest, _keys = configure_stage(
        app, configs, default_build_environment(), cache, PipelineStats())
    return app, cache, configurations, tus, gen_digest


def preprocessed(configs):
    """What ``ir_compile_stage`` takes: ``(app, cache, configurations,
    tus, attrs)`` after configure and preprocess."""
    app, cache, configurations, tus, gen_digest = configured(configs)
    attrs, _keys = preprocess_stage(app, tus, configurations, gen_digest,
                                    cache, PipelineStats())
    return app, cache, configurations, tus, attrs


@pytest.fixture
def preprocess_calls(monkeypatch):
    """Each ``Compiler.preprocess`` call's filename, in call order."""
    calls = []
    real = Compiler.preprocess

    def recorded(self, source, flags, filename="<source>"):
        calls.append(filename)
        return real(self, source, flags, filename)
    monkeypatch.setattr(Compiler, "preprocess", recorded)
    return calls


@pytest.fixture
def compile_calls(monkeypatch):
    """Each IR compile of the IR stage's (``Compiler.compile_preprocessed``,
    once per missing class), by name."""
    calls = []
    real = Compiler.compile_preprocessed

    def recorded(self, text, flags, name="unit"):
        calls.append(name)
        return real(self, text, flags, name)
    monkeypatch.setattr(Compiler, "compile_preprocessed", recorded)
    return calls


def failing_on(monkeypatch, target, attribute, bad):
    """Make ``target.attribute`` raise :class:`StageError` on the calls
    whose ``name`` argument is in ``bad``; returns the names it saw."""
    seen = []
    real = getattr(target, attribute)

    def maybe_fail(*args, **kwargs):
        # Both stages' compiler calls take the TU's source file as the
        # fourth argument.
        name = args[3]
        seen.append(name)
        if name in bad:
            raise StageError(f"failed on {name}")
        return real(*args, **kwargs)
    monkeypatch.setattr(target, attribute, maybe_fail)
    return seen


class TestPreprocessStage:
    def test_misses_run_in_input_order(self, preprocess_calls):
        app, cache, configurations, tus, gen_digest = configured(
            lulesh_configs()[:1])
        preprocess_stage(app, tus, configurations, gen_digest, cache,
                         PipelineStats())
        assert preprocess_calls == [tu.source for tu in tus]

    def test_each_distinct_identity_is_preprocessed_once(
            self, preprocess_calls):
        app, cache, configurations, tus, gen_digest = configured(
            lulesh_configs()[:2])
        # Every TU twice, interleaved: the second of each shares the
        # first's identity.
        doubled = [tu for pair in zip(tus, tus) for tu in pair]
        stats = PipelineStats()
        attrs, keys = preprocess_stage(app, doubled, configurations,
                                       gen_digest, cache, stats)
        assert stats.preprocess_ops == len(preprocess_calls) == len(tus)
        assert preprocess_calls == [tu.source for tu in tus]
        assert keys[0::2] == keys[1::2]
        assert [a["pp"] for a in attrs[0::2]] == [a["pp"] for a in attrs[1::2]]

    def test_each_distinct_pragma_text_is_confirmed_once(self, monkeypatch):
        """The AST check is a full parse: a cold build runs it once per
        distinct preprocessed text that carries an OpenMP pragma, however
        many identities preprocess to that text."""
        from repro.apps import five_isa_configs, gromacs_model
        from repro.core import build_ir_container

        confirmed = []
        real = stages.ast_confirms_openmp

        def recorded(text):
            confirmed.append(text)
            return real(text)
        monkeypatch.setattr(stages, "ast_confirms_openmp", recorded)
        result = build_ir_container(gromacs_model(scale=0.02),
                                    five_isa_configs())
        assert result.stats.preprocess_ops > len(set(confirmed)) > 0
        assert len(confirmed) == len(set(confirmed))
        assert all("#pragma omp" in text for text in confirmed)

    def test_no_tus_preprocess_nothing(self, preprocess_calls):
        app, cache, configurations, _tus, gen_digest = configured(
            lulesh_configs()[:1])
        stats = PipelineStats()
        assert preprocess_stage(app, [], configurations, gen_digest, cache,
                                stats) == ([], [])
        assert preprocess_calls == [] and stats.preprocess_ops == 0

    def test_the_first_failure_in_input_order_propagates(self, monkeypatch):
        app, cache, configurations, tus, gen_digest = configured(
            lulesh_configs()[:1])
        second, fourth = tus[1].source, tus[3].source
        seen = failing_on(monkeypatch, Compiler, "preprocess",
                          {second, fourth})
        with pytest.raises(StageError, match=f"failed on {second}$"):
            preprocess_stage(app, tus, configurations, gen_digest, cache,
                             PipelineStats())
        # The TUs after the failing one never ran.
        assert seen == [tu.source for tu in tus[:2]]

    def test_a_failed_batch_publishes_nothing(self, monkeypatch):
        app, cache, configurations, tus, gen_digest = configured(
            lulesh_configs()[:1])
        failing_on(monkeypatch, Compiler, "preprocess", {tus[-1].source})
        with pytest.raises(StageError):
            preprocess_stage(app, tus, configurations, gen_digest, cache,
                             PipelineStats())
        monkeypatch.undo()
        # The misses before the failure were not published either: a
        # retry on the same cache preprocesses every TU again.
        stats = PipelineStats()
        preprocess_stage(app, tus, configurations, gen_digest, cache, stats)
        assert stats.preprocess_ops == len(tus)


class TestIRCompileStage:
    #: Class keys over the first six TUs: three classes, first seen at
    #: TUs 0, 1 and 3.
    KEYS = ["b", "a", "b", "c", "a", "c"]

    def test_one_compile_per_class_in_first_seen_order(self, compile_calls):
        app, cache, configurations, tus, attrs = preprocessed(
            lulesh_configs()[:2])
        stats = PipelineStats()
        ir_files, ir_modules, irs = ir_compile_stage(
            app, configurations, tus[:6], attrs[:6], self.KEYS, cache, stats)
        assert compile_calls == [tus[i].source for i in (0, 1, 3)]
        assert stats.ir_compile_ops == 3
        assert set(ir_files) == set(ir_modules) == set(irs)

    def test_every_tu_gets_its_class_representative_ir(self, compile_calls):
        app, cache, configurations, tus, attrs = preprocessed(
            lulesh_configs()[:2])
        _files, _modules, irs = ir_compile_stage(
            app, configurations, tus[:6], attrs[:6], self.KEYS, cache,
            PipelineStats())
        # Each TU's IR is its class representative's, however the TU's
        # own source differs.
        assert irs[2] == irs[0] and irs[4] == irs[1] and irs[5] == irs[3]
        alone = [ir_compile_stage(app, configurations, [tus[i]], [attrs[i]],
                                  ["k"], ArtifactCache(), PipelineStats())[2]
                 for i in (0, 1, 3)]
        assert alone == [[irs[0]], [irs[1]], [irs[3]]]

    def test_no_classes_compile_nothing(self, compile_calls):
        app, cache, configurations, _tus, _attrs = preprocessed(
            lulesh_configs()[:1])
        stats = PipelineStats()
        assert ir_compile_stage(app, configurations, [], [], [], cache,
                                stats) == ({}, {}, [])
        assert compile_calls == [] and stats.ir_compile_ops == 0

    def test_the_first_failing_class_propagates(self, monkeypatch):
        app, cache, configurations, tus, attrs = preprocessed(
            lulesh_configs()[:2])
        bad = tus[1].source
        seen = failing_on(monkeypatch, Compiler, "compile_preprocessed",
                          {bad})
        with pytest.raises(StageError, match=f"failed on {bad}$"):
            ir_compile_stage(app, configurations, tus[:6], attrs[:6],
                             self.KEYS, cache, PipelineStats())
        # Class "c", first seen after the failing class, never compiled.
        assert seen == [tus[0].source, bad]

    def test_a_failed_batch_publishes_nothing(self, monkeypatch):
        app, cache, configurations, tus, attrs = preprocessed(
            lulesh_configs()[:2])
        failing_on(monkeypatch, Compiler, "compile_preprocessed",
                   {tus[3].source})
        with pytest.raises(StageError):
            ir_compile_stage(app, configurations, tus[:6], attrs[:6],
                             self.KEYS, cache, PipelineStats())
        monkeypatch.undo()
        # The classes compiled before the failure were not published
        # either: a retry on the same cache compiles every class again.
        stats = PipelineStats()
        ir_compile_stage(app, configurations, tus[:6], attrs[:6], self.KEYS,
                         cache, stats)
        assert stats.ir_compile_ops == 3
        assert stats.cache_hits.get("ir", 0) == 0
