"""Pipeline accounting: dedup funnel, cache traffic, per-stage timing.

``PipelineStats`` started life as the Hypothesis-1 scorecard (Sec. 6.4 —
how many of the T translation units survive to become IRs) and now also
carries the operational counters the staged engine produces: artifact-cache
hits and misses per namespace, how many preprocess/IR-compile operations
actually executed (zero on a fully warm cache), and wall-clock seconds per
stage.

:meth:`PipelineStats.publish_to` folds one build's counters into a
:class:`~repro.telemetry.registry.MetricsRegistry` — cluster workers call
it after every job so their heartbeat metric deltas carry pipeline-level
throughput (ops executed, cache traffic, stage seconds) alongside the
store/wire counters, and ``repro cluster top`` can aggregate them
farm-wide.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PipelineStats:
    """Per-stage accounting for Hypothesis 1 (Sec. 6.4) plus cache/timing."""

    configurations: int = 0
    total_tus: int = 0
    after_configuration: int = 0
    after_preprocessing: int = 0
    after_openmp: int = 0
    final_irs: int = 0
    incompatible_flag_fraction: float = 0.0
    openmp_flag_dropped: int = 0
    vector_flag_dropped: int = 0
    # Operations actually executed this build (cache hits skip them).
    configure_ops: int = 0
    preprocess_ops: int = 0
    ir_compile_ops: int = 0
    # Artifact-cache traffic this build, per namespace ("preprocess", "ir").
    cache_hits: dict[str, int] = field(default_factory=dict)
    cache_misses: dict[str, int] = field(default_factory=dict)
    # Wall-clock seconds per registered stage.
    stage_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def reduction(self) -> float:
        """Fraction of TU compilations avoided (the paper's headline %)."""
        if self.total_tus == 0:
            return 0.0
        return 1.0 - self.final_irs / self.total_tus

    def validates_hypothesis1(self) -> bool:
        """T' < sum(T_i): strictly fewer IRs than translation units."""
        return self.final_irs < self.total_tus

    def count_lookup(self, namespace: str, hit: bool) -> None:
        """One cache lookup's outcome, counted by the stage that made it;
        a namespace that saw traffic lists both counts."""
        self.cache_hits[namespace] = self.cache_hits.get(namespace, 0) + hit
        self.cache_misses[namespace] = (
            self.cache_misses.get(namespace, 0) + (not hit))

    def cache_hit_total(self) -> int:
        return sum(self.cache_hits.values())

    def summary(self) -> str:
        return (f"{self.configurations} configs, {self.total_tus} TUs -> "
                f"{self.final_irs} IRs ({self.reduction:.1%} reduction); "
                f"stages: config {self.after_configuration}, "
                f"preprocess {self.after_preprocessing}, "
                f"openmp {self.after_openmp}, vectorize {self.final_irs}")

    def publish_to(self, registry) -> None:
        """Fold this build's counters into ``registry`` (additive — safe
        to call once per build on a long-lived registry)."""
        counters = {
            "pipeline.configure_ops": self.configure_ops,
            "pipeline.preprocess_ops": self.preprocess_ops,
            "pipeline.ir_compile_ops": self.ir_compile_ops,
            "pipeline.total_tus": self.total_tus,
            "pipeline.final_irs": self.final_irs,
        }
        for name, value in counters.items():
            if value:
                registry.counter(name).inc(value)
        for namespace, hits in self.cache_hits.items():
            if hits:
                registry.counter("cache.hits",
                                 namespace=namespace).inc(hits)
        for namespace, misses in self.cache_misses.items():
            if misses:
                registry.counter("cache.misses",
                                 namespace=namespace).inc(misses)
        for stage, seconds in self.stage_seconds.items():
            registry.histogram("pipeline.stage.duration_seconds",
                               stage=stage).observe(seconds)

    def to_json(self) -> dict:
        """Machine-readable form (``repro.cli ir-build --json``)."""
        return {
            "configurations": self.configurations,
            "total_tus": self.total_tus,
            "after_configuration": self.after_configuration,
            "after_preprocessing": self.after_preprocessing,
            "after_openmp": self.after_openmp,
            "final_irs": self.final_irs,
            "reduction": self.reduction,
            "incompatible_flag_fraction": self.incompatible_flag_fraction,
            "openmp_flag_dropped": self.openmp_flag_dropped,
            "vector_flag_dropped": self.vector_flag_dropped,
            "configure_ops": self.configure_ops,
            "preprocess_ops": self.preprocess_ops,
            "ir_compile_ops": self.ir_compile_ops,
            "cache_hits": dict(self.cache_hits),
            "cache_misses": dict(self.cache_misses),
            "stage_seconds": dict(self.stage_seconds),
        }
