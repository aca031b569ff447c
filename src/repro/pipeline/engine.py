"""Staged pipeline engine: typed stages, validated dataflow, per-stage timing.

The IR-container workflow (paper Sec. 4.2-4.3, Fig. 7) is inherently staged
— configure, preprocess, OpenMP analysis, vectorization delay, IR compile,
image assembly — and later stages consume exactly what earlier stages
produce. This module makes that dataflow explicit: a :class:`Stage` declares
the context keys it ``consumes`` and ``produces``, and a :class:`Pipeline`
refuses at *registration* time to accept a stage whose inputs nothing
upstream provides. Running a pipeline records wall-clock timing per stage,
the raw material for the per-stage sharding follow-ups on the roadmap.
Each stage execution also observes its duration into the process-default
metrics registry (``pipeline.stage.duration_seconds{stage=...}``) and
opens a trace span, so a ``--trace`` run shows stages nested under
whatever command (or cluster job) drove the pipeline.

The engine is deliberately domain-free; the IR-container stages live in
:mod:`repro.pipeline.stages`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.telemetry import registry as _registry
from repro.telemetry import trace as _trace


class PipelineDefinitionError(ValueError):
    """A stage graph that cannot run: missing inputs or duplicate names."""


class StageExecutionError(RuntimeError):
    """A stage failed or violated its declared outputs."""


@dataclass(frozen=True)
class StageTiming:
    stage: str
    seconds: float


class Context:
    """The pipeline's dataflow state: a key -> artifact mapping.

    Stages read through :meth:`require` and write through :meth:`publish`;
    publish enforces the running stage's ``produces`` declaration so the
    registration-time validation cannot be bypassed at run time.
    """

    def __init__(self, initial: dict[str, Any] | None = None):
        self._values: dict[str, Any] = dict(initial or {})
        self._writable: frozenset[str] | None = None  # None => unrestricted

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def get(self, key: str, default: Any = None) -> Any:
        return self._values.get(key, default)

    def require(self, key: str) -> Any:
        try:
            return self._values[key]
        except KeyError:
            raise StageExecutionError(
                f"context key {key!r} required but never produced") from None

    def publish(self, key: str, value: Any) -> None:
        if self._writable is not None and key not in self._writable:
            raise StageExecutionError(
                f"stage published undeclared key {key!r}; declared: "
                f"{sorted(self._writable)}")
        self._values[key] = value

    def keys(self) -> Iterable[str]:
        return self._values.keys()


class Stage:
    """One unit of pipeline work.

    Subclasses set ``name``, declare ``consumes``/``produces`` (context
    keys), and implement :meth:`run`. A stage may re-publish a key it also
    consumes — that is how refinement stages (OpenMP analysis narrowing the
    preprocessing partition) overwrite the working partition in place.
    """

    name: str = "stage"
    consumes: tuple[str, ...] = ()
    produces: tuple[str, ...] = ()

    def run(self, ctx: Context) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


@dataclass
class PipelineRun:
    """The outcome of one pipeline execution."""

    context: Context
    timings: list[StageTiming] = field(default_factory=list)

    @property
    def stage_seconds(self) -> dict[str, float]:
        return {t.stage: t.seconds for t in self.timings}


class Pipeline:
    """An ordered, validated sequence of stages.

    ``inputs`` names the context keys the caller will supply to
    :meth:`run`; every stage's ``consumes`` must be satisfied by those
    inputs or by an earlier stage's ``produces``.
    """

    def __init__(self, name: str, inputs: tuple[str, ...] = ()):
        self.name = name
        self.inputs = tuple(inputs)
        self.stages: list[Stage] = []
        self._available: set[str] = set(inputs)

    def register(self, stage: Stage) -> "Pipeline":
        if any(s.name == stage.name for s in self.stages):
            raise PipelineDefinitionError(
                f"pipeline {self.name!r}: duplicate stage {stage.name!r}")
        missing = [k for k in stage.consumes if k not in self._available]
        if missing:
            raise PipelineDefinitionError(
                f"pipeline {self.name!r}: stage {stage.name!r} consumes "
                f"{missing} which nothing upstream produces "
                f"(available: {sorted(self._available)})")
        self.stages.append(stage)
        self._available.update(stage.produces)
        return self

    def run(self, initial: dict[str, Any]) -> PipelineRun:
        missing = [k for k in self.inputs if k not in initial]
        if missing:
            raise StageExecutionError(
                f"pipeline {self.name!r}: missing inputs {missing}")
        ctx = Context(initial)
        timings: list[StageTiming] = []
        for stage in self.stages:
            ctx._writable = frozenset(stage.produces)
            start = time.perf_counter()
            try:
                with _trace.span(f"pipeline.stage.{stage.name}",
                                 attrs={"pipeline": self.name}):
                    stage.run(ctx)
            except StageExecutionError:
                raise
            except Exception as exc:
                raise StageExecutionError(
                    f"stage {stage.name!r} failed: {exc}") from exc
            finally:
                ctx._writable = None
            elapsed = time.perf_counter() - start
            timings.append(StageTiming(stage.name, elapsed))
            _registry.get_registry().histogram(
                "pipeline.stage.duration_seconds",
                stage=stage.name).observe(elapsed)
            absent = [k for k in stage.produces if k not in ctx]
            if absent:
                raise StageExecutionError(
                    f"stage {stage.name!r} declared but did not produce {absent}")
        return PipelineRun(context=ctx, timings=timings)
