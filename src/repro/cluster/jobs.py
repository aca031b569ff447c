"""The build farm's job model: stage-level work items with artifact-key deps.

One ``cluster build`` decomposes into three job kinds: the build front
(:mod:`repro.pipeline.stages`) once per configuration, then the deployment
step:

* ``ir-compile`` — run one configuration through configure, preprocess,
  OpenMP analysis, vectorization delay and IR compile, publishing its
  preprocessed text and IRs to the shared store (one job per configuration);
* ``lower`` — lower one configuration's IRs for one ISA group (one job per
  *cold* ISA — warm ISAs are already in the store and get no job at all);
* ``deploy`` — specialize one system from the shared store (one job per
  system, gated on its ISA's ``lower`` artifact key).

Jobs carry *artifact keys*, not payloads: a job's ``requires`` names the
keys that must be published before it can run, and its ``produces`` names
the keys its completion publishes. The actual artifacts — preprocessed
text, IR modules, machine modules — move exclusively through the shared
:mod:`repro.store` backend; the coordinator and workers exchange keys only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pipeline.stages import config_name


class ClusterError(RuntimeError):
    """A cluster-level failure: bad job spec, failed job, protocol error."""


@dataclass(frozen=True)
class Job:
    """One schedulable unit of build work."""

    job_id: str
    kind: str                       # ir-compile | lower | deploy
    spec: dict                      # JSON-safe work description
    requires: tuple[str, ...] = ()  # artifact keys gating readiness
    produces: tuple[str, ...] = ()  # artifact keys published on completion
    #: Scheduling hint: jobs sharing an affinity token prefer the worker
    #: that claimed the token (its local store tier and in-process cache
    #: hold the artifacts), but any idle worker may steal them. Tokens are
    #: *artifact keys* — a job's primary input key, or its output key when
    #: it has no gating input — so ownership flows from producer to
    #: consumer: the worker that published ``lower:app:cfg:isa`` is where
    #: the deploys needing that key prefer to run. Deliberately not
    #: batch-scoped: a warm rerun's keys match the previous batch's, so
    #: locality survives across builds.
    affinity: str = ""
    #: Trace context (``{"trace_id", "parent_span_id"}``) carried from the
    #: submitter through the coordinator to the executing worker, so one
    #: ``cluster build`` yields a single correlated span tree. ``None`` on
    #: untraced builds — the field adds no wire bytes then.
    trace: dict | None = None

    def to_json(self) -> dict:
        blob = {
            "job_id": self.job_id, "kind": self.kind, "spec": self.spec,
            "requires": list(self.requires), "produces": list(self.produces),
            "affinity": self.affinity,
        }
        if self.trace is not None:
            blob["trace"] = dict(self.trace)
        return blob

    @classmethod
    def from_json(cls, blob: dict) -> "Job":
        return cls(job_id=blob["job_id"], kind=blob["kind"],
                   spec=dict(blob.get("spec", {})),
                   requires=tuple(blob.get("requires", ())),
                   produces=tuple(blob.get("produces", ())),
                   affinity=blob.get("affinity", ""),
                   trace=blob.get("trace"))


@dataclass(frozen=True)
class BuildSpec:
    """What every job needs to reconstruct the build: app + configurations.

    App models are code, not data — the spec names one and the worker
    rebuilds it deterministically, exactly like the lowering targets are
    recovered by name from the target registry.
    """

    app: str
    configs: tuple = ()
    scale: float | None = None
    arch_family: str = "x86_64"

    def to_json(self) -> dict:
        blob = {"app": self.app, "configs": [dict(c) for c in self.configs],
                "arch_family": self.arch_family}
        if self.scale is not None:
            blob["scale"] = self.scale
        return blob

    @classmethod
    def from_json(cls, blob: dict) -> "BuildSpec":
        return cls(app=blob["app"],
                   configs=tuple(dict(c) for c in blob.get("configs", ())),
                   scale=blob.get("scale"),
                   arch_family=blob.get("arch_family", "x86_64"))

    def resolve_app(self):
        """Instantiate the named app model (deterministic per spec)."""
        from repro.apps import app_model
        try:
            return app_model(self.app, self.scale)
        except KeyError as exc:
            raise ClusterError(exc.args[0]) from None


# -- artifact keys -------------------------------------------------------------
#
# Symbolic names for "this stage's artifacts are in the store". The real
# store entries are content-addressed cache keys; these coarser keys are
# what the scheduler sequences on (one per stage x configuration x ISA).


def ir_key(build: BuildSpec, options: dict[str, str]) -> str:
    return f"ir:{build.app}:{config_name(options)}"


def lower_key(build: BuildSpec, options: dict[str, str],
              family: str, simd_name: str) -> str:
    return f"lower:{build.app}:{config_name(options)}:{family}/{simd_name}"


def deploy_key(build: BuildSpec, options: dict[str, str], system: str) -> str:
    return f"deploy:{build.app}:{config_name(options)}:{system}"


# -- job constructors ----------------------------------------------------------


# Affinity tokens are the artifact keys data actually flows through, so
# the coordinator can route a job to the worker whose local store tier
# already holds its inputs:
#
# * ``ir-compile`` has no inputs — its token is its *output* key, so a
#   warm rerun of the configuration prefers the worker that built it;
# * ``lower`` also takes its *output* key: its inputs are every config's
#   IR (one shared producer), and keying on the input would serialize all
#   ISAs onto one worker — the per-ISA output key keeps lowering parallel
#   while still making the deploys of that ISA follow their lowerer;
# * ``deploy`` takes its primary input key — it follows the producer.


def ir_compile_job(build: BuildSpec, options: dict[str, str]) -> Job:
    name = config_name(options)
    return Job(job_id=f"ir/{build.app}/{name}", kind="ir-compile",
               spec={"build": build.to_json(), "config": dict(options)},
               produces=(ir_key(build, options),),
               affinity=ir_key(build, options))


def lower_job(build: BuildSpec, options: dict[str, str],
              family: str, simd_name: str) -> Job:
    token = f"{family}/{simd_name}"
    return Job(job_id=f"lower/{build.app}/{config_name(options)}/{token}",
               kind="lower",
               spec={"build": build.to_json(), "options": dict(options),
                     "simd": simd_name, "family": family},
               requires=tuple(ir_key(build, c) for c in build.configs),
               produces=(lower_key(build, options, family, simd_name),),
               affinity=lower_key(build, options, family, simd_name))


def deploy_job(build: BuildSpec, options: dict[str, str], system: str,
               family: str, simd_name: str,
               simd_override: str | None = None) -> Job:
    spec = {"build": build.to_json(), "options": dict(options),
            "system": system}
    if simd_override:
        spec["simd_override"] = simd_override
    return Job(job_id=f"deploy/{build.app}/{config_name(options)}/{system}",
               kind="deploy", spec=spec,
               requires=(lower_key(build, options, family, simd_name),),
               produces=(deploy_key(build, options, system),),
               affinity=lower_key(build, options, family, simd_name))
