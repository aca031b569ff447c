"""Staged pipeline engine and the IR-container stages that run on it.

The production backbone of the IR-container workflow:

* :mod:`~repro.pipeline.engine` — generic :class:`Stage`/:class:`Pipeline`
  abstraction with validated dataflow and per-stage timing;
* :mod:`~repro.pipeline.stages` — the IR-container stages (configure,
  preprocess, OpenMP, vectorization delay, IR compile, image assembly)
  decomposed from the old monolithic ``build_ir_container``;
* :mod:`~repro.pipeline.stats` — the dedup/cache/timing scorecard;
* :mod:`~repro.pipeline.parallel` — deterministic thread-pool map.

Deployment, of one system or a batch, belongs to the layer above: this
package imports nothing from the core that builds on it.
"""

from repro.pipeline.engine import (
    Context,
    Pipeline,
    PipelineDefinitionError,
    PipelineRun,
    Stage,
    StageExecutionError,
    StageTiming,
)
from repro.pipeline.parallel import parallel_map
from repro.pipeline.stages import (
    DEDUP_STAGES,
    ConfigureStage,
    ImageAssemblyStage,
    IRCompileStage,
    OpenMPStage,
    PreprocessStage,
    StatsOnlyIRStage,
    TranslationUnit,
    VectorizeStage,
    build_ir_pipeline,
    config_name,
)
from repro.pipeline.stats import PipelineStats

__all__ = [
    "Context", "Pipeline", "PipelineDefinitionError", "PipelineRun",
    "Stage", "StageExecutionError", "StageTiming",
    "parallel_map",
    "DEDUP_STAGES", "ConfigureStage", "ImageAssemblyStage", "IRCompileStage",
    "OpenMPStage", "PreprocessStage", "StatsOnlyIRStage", "TranslationUnit",
    "VectorizeStage", "build_ir_pipeline", "config_name",
    "PipelineStats",
]
