"""The XaaS core: the paper's contribution, on top of the substrates.

* :mod:`~repro.core.specialization` — specialization points, feature
  intersection (Fig. 4), operator-preference selection, OCI annotations;
* :mod:`~repro.core.source_container` — source containers: build the
  distributable image, deploy with discovery -> intersect -> select -> build
  (Fig. 6);
* :mod:`~repro.core.ir_container` — the IR-container pipeline: configuration
  diffing, preprocessing dedup, OpenMP flag analysis, vectorization delay,
  IR build and image assembly (Fig. 7);
* :mod:`~repro.core.deployment` — IR-container deployment, one system or a
  batch: select, lower, link, install, new image (Fig. 8).

The staged execution engine the IR-container workflow runs on (stage graph,
stages, parallel map) lives in :mod:`repro.pipeline`, which knows nothing
of this package.
"""

from repro.core.deployment import (
    BatchDeployment,
    DeployedIRApp,
    DeploymentPlan,
    IRDeploymentError,
    ISAGroup,
    LoweringTask,
    deploy_batch,
    deploy_ir_container,
    lower_configuration,
    lowering_cache_keys,
    plan_batch,
    plan_lowerings,
    select_simd,
)
from repro.core.ir_container import (
    IRContainerResult,
    IRPipelineError,
    PipelineStats,
    TranslationUnit,
    build_ir_container,
    config_name,
)
from repro.core.source_container import (
    DeployedSourceApp,
    SourceContainer,
    SourceDeploymentError,
    build_source_image,
    deploy_source_container,
)
from repro.core.specialization import (
    CommonSpecialization,
    decode_specialization_annotation,
    default_selection,
    encode_specialization_annotation,
    intersect_specializations,
    specialization_tag,
)

__all__ = [
    "DeployedIRApp", "IRDeploymentError", "LoweringTask", "deploy_ir_container",
    "lower_configuration", "lowering_cache_keys", "plan_lowerings", "select_simd",
    "IRContainerResult", "IRPipelineError", "PipelineStats",
    "TranslationUnit", "build_ir_container", "config_name",
    "BatchDeployment", "DeploymentPlan", "ISAGroup", "deploy_batch", "plan_batch",
    "DeployedSourceApp", "SourceContainer", "SourceDeploymentError",
    "build_source_image", "deploy_source_container",
    "CommonSpecialization", "decode_specialization_annotation",
    "default_selection", "encode_specialization_annotation",
    "intersect_specializations", "specialization_tag",
]
