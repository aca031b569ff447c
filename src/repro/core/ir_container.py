"""The XaaS IR-container pipeline (paper Sec. 4.2-4.3, Fig. 7) — facade.

Stages, exactly as the paper orders them:

1. **Configuration** — generate every build configuration in a containerized
   environment (fixed build-dir mount path), collect compile commands, and
   share translation units whose *full command* already coincides.
2. **Preprocessing** — run the preprocessor per TU and hash the canonical
   output; TUs with identical text can share an IR unless distinguished by
   remaining non-define flags.
3. **OpenMP detection** — a Clang-AST-style analysis drops the ``-fopenmp``
   flag from the comparison for files containing no OpenMP constructs.
4. **Vectorization delay** — ``-msimd``/``-O`` flags are stripped from the
   identity entirely: LLVM-style vectorizers run at IR level, so the ISA is
   bound at deployment, not at container build.

The staged engine itself lives in :mod:`repro.pipeline`:
:func:`build_ir_container` here is a thin facade that wires the stage graph
(:func:`repro.pipeline.stages.build_ir_pipeline`), threads an
:class:`~repro.containers.store.ArtifactCache` through it so repeated builds
reuse preprocessed text and compiled IR modules, and packages the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.base import AppModel
from repro.buildsys import BuildConfiguration, BuildEnvironment
from repro.containers.image import Image
from repro.containers.store import ArtifactCache, BlobStore
from repro.pipeline.engine import PipelineDefinitionError, StageExecutionError
from repro.pipeline.stages import (
    DEDUP_STAGES,
    IR_FORMAT,
    TranslationUnit,
    build_ir_pipeline,
    config_name,
)
from repro.pipeline.stats import PipelineStats

__all__ = [
    "IR_FORMAT", "TranslationUnit", "PipelineStats", "IRContainerResult",
    "IRPipelineError", "build_ir_container", "config_name",
]


@dataclass
class IRContainerResult:
    """Everything the IR-container build produces."""

    image: Image
    stats: PipelineStats
    # IR digest -> canonical IR text (also stored in the image layers).
    ir_files: dict[str, str]
    # config name -> list of {target, source, ir, lowering flags}.
    manifests: dict[str, list[dict]]
    configurations: dict[str, BuildConfiguration]
    # In-process handle on the compiled modules (digest -> ir.Module); the
    # image layers carry the canonical text, this carries the live objects
    # the deployment step lowers.
    ir_modules: dict[str, object] = field(default_factory=dict)


class IRPipelineError(RuntimeError):
    pass


def build_ir_container(app: AppModel, configs: list[dict[str, str]],
                       env: BuildEnvironment | None = None,
                       store: BlobStore | None = None,
                       arch_family: str = "x86_64",
                       stages: tuple[str, ...] = DEDUP_STAGES,
                       compile_irs: bool = True,
                       cache: ArtifactCache | None = None,
                       max_workers: int | None = None) -> IRContainerResult:
    """Run the full IR-container pipeline over the given configurations.

    ``stages`` selects which dedup stages to register (benchmarks disable
    stages selectively for ablation); ``compile_irs=False`` runs only the
    dedup analysis, which is what the large-scale statistics benchmarks
    need. Passing a shared ``cache`` lets repeated builds (ISA sweeps,
    benchmarks rebuilding the same app) skip preprocessing and IR
    compilation entirely; ``max_workers`` bounds the per-TU thread pool.
    """
    if not configs:
        raise IRPipelineError("at least one build configuration is required")
    from repro.perf.model import default_build_environment
    env = env or default_build_environment()
    # Note: "store or BlobStore()" would discard an *empty* caller store
    # (BlobStore defines __len__), so test identity explicitly.
    if store is None:
        store = BlobStore()
    if cache is None:
        cache = ArtifactCache()
    stats = PipelineStats(configurations=len(configs))

    # Hits only bump recency in memory; a build starts and ends with that
    # saved, so whoever reads the store next sees this build's LRU order.
    if cache.persistent:
        cache.flush_index()
    try:
        pipeline = build_ir_pipeline(stages, compile_irs=compile_irs)
        run = pipeline.run({
            "app": app, "configs": configs, "env": env, "store": store,
            "arch_family": arch_family, "stats": stats, "cache": cache,
            "max_workers": max_workers,
        })
    except PipelineDefinitionError as exc:
        raise IRPipelineError(str(exc)) from exc
    except StageExecutionError as exc:
        # Preserve the pre-refactor exception contract: domain errors
        # (ConfigureError, PreprocessorError, ...) propagate unchanged;
        # only engine-level dataflow violations become IRPipelineError.
        if exc.__cause__ is not None:
            raise exc.__cause__
        raise IRPipelineError(str(exc)) from exc

    if cache.persistent:
        cache.flush_index()
    _finalize_stats(stats, stages, run.stage_seconds)
    ctx = run.context
    return IRContainerResult(image=ctx.require("image"), stats=stats,
                             ir_files=ctx.require("ir_files"),
                             manifests=ctx.require("manifests"),
                             configurations=ctx.require("configurations"),
                             ir_modules=ctx.require("ir_modules"))


def _finalize_stats(stats: PipelineStats, stages: tuple[str, ...],
                    stage_seconds: dict[str, float]) -> None:
    """Fill the derived funnel counters; each stage has already counted
    its own cache traffic."""
    if "preprocess" in stages:
        if "openmp" not in stages:
            stats.after_openmp = stats.after_preprocessing
        stats.openmp_flag_dropped = stats.after_preprocessing - stats.after_openmp
        stats.vector_flag_dropped = stats.after_openmp - stats.final_irs
    else:
        stats.after_preprocessing = stats.final_irs
        stats.after_openmp = stats.final_irs
    stats.stage_seconds = dict(stage_seconds)
