"""IR-container deployment (paper Sec. 4.3.1, Fig. 8).

The user picks one of the configurations baked into the IR container; the
deployment tool selects that configuration's IR subset, optimizes and lowers
it for the destination ISA (vectorization happens *here*, not at container
build), lets the build system finish linking/installation, and assembles a
new runnable image whose tag encodes the specialization points.

This module owns deployment, one system or many. There is one lowering
loop, :func:`lower_configuration`: :func:`deploy_ir_container` and the
build farm's ``lower`` jobs both call it, and it reports how many lowerings
it computed and how many it found in the cache — every
``lowerings_performed`` / ``lowerings_reused`` total (a deployment's, a
batch's, a farm job's, a farm build's) is a sum of those per-call facts.
:func:`plan_batch` groups systems by ``(architecture family, selected SIMD
level)`` before any lowering happens; :func:`deploy_batch` deploys the
groups concurrently through one shared
:class:`~repro.containers.store.ArtifactCache`, so the first system of each
ISA group lowers the configuration's IRs and every other system reuses the
machine modules. On a persistent store the reuse crosses process
boundaries: lowered modules are payload-only artifacts, so a later batch in
a cold process deploys without lowering anything at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.apps.base import AppModel
from repro.compiler.driver import CompileOptions
from repro.compiler.lowering import MachineModule, lower_module_cached
from repro.containers.image import (
    ANNOTATION_SPECIALIZATION,
    ANNOTATION_TARGET_SYSTEM,
    Image,
    ImageConfig,
    Layer,
    Platform,
)
from repro.containers.registry import Registry
from repro.containers.store import ArtifactCache, BlobStore
from repro.core.ir_container import IRContainerResult, config_name
from repro.core.specialization import encode_specialization_annotation, specialization_tag
from repro.discovery.system import SystemSpec, best_simd_target
from repro.perf.model import BuildArtifact, infer_libraries
from repro.pipeline.parallel import parallel_map


class IRDeploymentError(RuntimeError):
    pass


@dataclass
class DeployedIRApp:
    """A deployed IR container: runnable image + perf artifact."""

    image: Image
    artifact: BuildArtifact
    options: dict[str, str]
    simd_name: str
    system: SystemSpec
    tag: str
    lowered_count: int
    notes: list[str] = field(default_factory=list)
    # What this deployment's lowering loop computed / found in the cache.
    lowerings_performed: int = 0
    lowerings_reused: int = 0


def select_simd(options: dict[str, str], system: SystemSpec,
                simd_override: str | None = None) -> str:
    """The ISA a deployment will lower for (paper's precedence rules).

    ``simd_override`` forces a specific ISA; otherwise a configuration that
    pins one (``GMX_SIMD``) takes precedence — the IR set may depend on it
    through preprocessed text — and the system's best supported level is
    the default. The batch planner uses this to group systems that will
    share lowered objects before any lowering happens.
    """
    pinned = options.get("GMX_SIMD")
    if simd_override:
        return simd_override
    if pinned and pinned not in ("AUTO", ""):
        return pinned
    return best_simd_target(system).name


@dataclass(frozen=True)
class LoweringTask:
    """One deployment-time lowering: an IR, a target ISA, and flags.

    The full flag list (``-msimd=<isa>`` + the manifest's surviving
    lowering flags, ``-O3`` defaulted) determines the target machine and
    optimization level, and therefore the ``lower`` cache key — the unit
    the cluster scheduler dedups across workers.
    """

    target: str
    source: str
    ir_digest: str
    flags: tuple[str, ...]

    def cache_parts(self) -> dict:
        """The exact ``lower``-namespace key parts
        :func:`~repro.compiler.lowering.lower_module_cached` uses."""
        opts = CompileOptions.from_flags(list(self.flags))
        return {"ir": self.ir_digest, "target": opts.resolve_target().name,
                "opt": opts.opt_level}


def _manifest(result: IRContainerResult, options: dict[str, str]) -> list[dict]:
    """The manifest entries of the configuration ``options`` selects."""
    name = config_name(options)
    if name not in result.manifests:
        raise IRDeploymentError(
            f"configuration {options} was not baked into this IR container; "
            f"available: {sorted(result.manifests)}")
    return result.manifests[name]


def plan_lowerings(result: IRContainerResult, options: dict[str, str],
                   simd_name: str) -> list[LoweringTask]:
    """Every lowering a deployment of ``options`` onto ``simd_name`` runs.

    This is the deployment's work list *before* any lowering happens —
    what lets the batch scheduler probe the shared store for ISAs that are
    already lowered and route their systems to the front.
    """
    tasks = []
    for entry in _manifest(result, options):
        flags = [f for f in entry["lowering_flags"] if not f.startswith("-msimd=")]
        flags.append(f"-msimd={simd_name}")
        if not any(f.startswith("-O") for f in flags):
            flags.append("-O3")
        tasks.append(LoweringTask(entry["target"], entry["source"],
                                  entry["ir"], tuple(flags)))
    return tasks


def lowering_cache_keys(result: IRContainerResult, options: dict[str, str],
                        simd_name: str, cache: ArtifactCache) -> set[str]:
    """The ``lower`` cache keys a deployment will look up, for store probing."""
    return {cache.cache_key("lower", task.cache_parts())
            for task in plan_lowerings(result, options, simd_name)}


@dataclass
class LoweredConfiguration:
    """One configuration lowered for one ISA, and what that cost."""

    # "<target>/<source>" -> machine module, in manifest order.
    modules: dict[str, MachineModule] = field(default_factory=dict)
    openmp: bool = False      # some IR was compiled with -fopenmp
    performed: int = 0        # lowerings this call computed
    reused: int = 0           # lowerings this call found in the cache


def lower_configuration(result: IRContainerResult, options: dict[str, str],
                        simd_name: str,
                        cache: ArtifactCache | None = None
                        ) -> LoweredConfiguration:
    """Lower one configuration for one ISA, publishing through ``cache``.

    The one lowering loop: a deployment runs it to get its machine modules,
    a farm ``lower`` job runs it for the side effect — the modules land in
    the shared store (payload-only artifacts), and every later deployment
    for the same ISA, on any worker, replays them. ``performed`` / ``reused``
    count this call's own lookups, so they stay exact when other threads
    lower through the same cache at the same time.
    """
    lowered = LoweredConfiguration()
    for task in plan_lowerings(result, options, simd_name):
        module = result.ir_modules.get(task.ir_digest)
        if module is None:
            continue  # stats-only pipeline run
        opts = CompileOptions.from_flags(list(task.flags))
        lowered.openmp = lowered.openmp or "-fopenmp" in module.frontend_flags
        mmod, fresh = lower_module_cached(module, opts.resolve_target(),
                                          opt_level=opts.opt_level,
                                          cache=cache, ir_digest=task.ir_digest)
        lowered.modules[f"{task.target}/{task.source}"] = mmod
        if fresh:
            lowered.performed += 1
        else:
            lowered.reused += 1
    return lowered


def check_ir_architecture(result: IRContainerResult, system: SystemSpec) -> str:
    """Architecture check: an x86 IR container cannot deploy on ARM (Sec. 5.1).

    Returns the system's architecture family; raises on a mismatch.
    """
    variant = result.image.platform.variant
    want = "aarch64" if system.architecture == "arm64" else "x86_64"
    if variant and variant != want:
        raise IRDeploymentError(
            f"IR container is {variant}, but {system.name} is {want}: "
            "IR is not cross-platform for C/C++ (Sec. 5.1)")
    return want


def deploy_ir_container(result: IRContainerResult, app: AppModel,
                        options: dict[str, str], system: SystemSpec,
                        store: BlobStore,
                        simd_override: str | None = None,
                        registry: Registry | None = None,
                        repository: str = "",
                        cache: ArtifactCache | None = None) -> DeployedIRApp:
    """Deploy one configuration of an IR container onto a system.

    ``options`` must match one of the configurations the container was built
    with (the paper's rule: users select from the values chosen at
    configuration time). ``simd_override`` forces a specific ISA; see
    :func:`select_simd` for the default precedence. A shared ``cache`` lets
    deployments reuse lowered machine modules across systems with the same
    ISA (what :func:`deploy_batch` exploits).
    """
    entries = _manifest(result, options)
    family = check_ir_architecture(result, system)
    simd_name = select_simd(options, system, simd_override)

    lowered = lower_configuration(result, options, simd_name, cache)
    machine_functions = {
        fn_name: mfn for mmod in lowered.modules.values()
        for fn_name, mfn in mmod.functions.items()
        if fn_name in app.hot_functions}

    libs = infer_libraries(options)
    artifact = BuildArtifact(
        app=app, options=dict(options),
        config=result.configurations[config_name(options)],
        simd_name=simd_name,
        target_family=family,
        openmp=lowered.openmp or options.get("GMX_OPENMP", "ON").upper() == "ON"
        or options.get("WITH_OPENMP", "OFF").upper() == "ON",
        gpu_backend=libs.gpu_backend,
        fft_library=libs.fft_library,
        blas_library=libs.blas_library,
        mpi_flavor=libs.mpi_flavor,
        machine_functions=machine_functions,
        containerized=True,
        label=f"xaas-ir@{system.name}/{simd_name}",
    )
    missing = set(app.hot_functions) - set(machine_functions)
    if missing and result.ir_files:
        raise IRDeploymentError(f"hot functions missing from IR set: {sorted(missing)}")

    selection = dict(options)
    selection["SIMD_LOWERED"] = simd_name
    tag = specialization_tag(selection)
    deploy_layer = Layer({
        f"/xaas/install/obj/{key.replace('/', '_')}.o":
            f"object code for {simd_name} ({len(mmod.functions)} functions)"
        for key, mmod in lowered.modules.items()
    } | {
        "/xaas/install/link.json": json.dumps(
            {"targets": sorted({e['target'] for e in entries}),
             "simd": simd_name}, sort_keys=True),
    }, comment=f"lowered + linked for {system.name} ({simd_name})")
    deployed_image = result.image.derive(
        [deploy_layer], store,
        annotations={
            ANNOTATION_SPECIALIZATION: encode_specialization_annotation(selection),
            ANNOTATION_TARGET_SYSTEM: system.name,
        },
        platform=Platform(system.architecture),
    )
    notes = [f"lowered {len(entries)} TUs from "
             f"{len({e['ir'] for e in entries})} shared IRs"]
    if registry is not None and repository:
        registry.push(repository, tag, deployed_image, source_store=store)
        notes.append(f"pushed {repository}:{tag}")
    return DeployedIRApp(image=deployed_image, artifact=artifact,
                         options=dict(options), simd_name=simd_name,
                         system=system, tag=tag,
                         lowered_count=len(entries), notes=notes,
                         lowerings_performed=lowered.performed,
                         lowerings_reused=lowered.reused)


# -- batch deployment: one IR container, many target systems -------------------


@dataclass(frozen=True)
class ISAGroup:
    """Systems that will share lowered objects: same family, same SIMD."""

    family: str
    simd_name: str
    systems: tuple[str, ...]


@dataclass
class DeploymentPlan:
    """The fan-out schedule for one IR container over many systems."""

    app: str
    options: dict[str, str]
    groups: list[ISAGroup] = field(default_factory=list)
    # system name -> reason it cannot take this container (wrong arch).
    incompatible: dict[str, str] = field(default_factory=dict)

    @property
    def system_order(self) -> list[str]:
        return [name for group in self.groups for name in group.systems]

    def summary(self) -> str:
        parts = [f"{g.family}/{g.simd_name}: {', '.join(g.systems)}"
                 for g in self.groups]
        text = f"{len(self.system_order)} systems in {len(self.groups)} ISA groups"
        if self.incompatible:
            text += f" ({len(self.incompatible)} incompatible)"
        return text + " — " + "; ".join(parts) if parts else text


@dataclass
class BatchDeployment:
    """Everything ``deploy_batch`` produces."""

    plan: DeploymentPlan
    # In the order the systems were requested (skipping incompatible ones).
    deployments: list[DeployedIRApp] = field(default_factory=list)

    @property
    def lowerings_performed(self) -> int:
        return sum(dep.lowerings_performed for dep in self.deployments)

    @property
    def lowerings_reused(self) -> int:
        return sum(dep.lowerings_reused for dep in self.deployments)

    def by_system(self) -> dict[str, DeployedIRApp]:
        return {d.system.name: d for d in self.deployments}


def plan_batch(result: IRContainerResult, app: AppModel,
               options: dict[str, str], systems: list[SystemSpec],
               simd_override: str | None = None,
               skip_incompatible: bool = False) -> DeploymentPlan:
    """Group systems by the ISA their deployment will lower for.

    Grouping uses the same precedence rules as single-system deployment
    (:func:`select_simd`), so the plan exactly predicts which systems share
    cached lowered objects.
    """
    plan = DeploymentPlan(app=app.name, options=dict(options))
    buckets: dict[tuple[str, str], list[str]] = {}
    seen: set[str] = set()
    for system in systems:
        if system.name in seen:  # a repeated name is one deployment, not two
            continue
        seen.add(system.name)
        try:
            family = check_ir_architecture(result, system)
        except IRDeploymentError as exc:
            if not skip_incompatible:
                raise
            plan.incompatible[system.name] = str(exc)
            continue
        simd = select_simd(options, system, simd_override)
        buckets.setdefault((family, simd), []).append(system.name)
    plan.groups = [ISAGroup(family, simd, tuple(names))
                   for (family, simd), names in buckets.items()]
    return plan


def deploy_batch(result: IRContainerResult, app: AppModel,
                 options: dict[str, str], systems: list[SystemSpec],
                 store: BlobStore,
                 cache: ArtifactCache | None = None,
                 simd_override: str | None = None,
                 registry: Registry | None = None,
                 repository: str = "",
                 skip_incompatible: bool = False,
                 max_workers: int | None = None) -> BatchDeployment:
    """Deploy one IR container to every system in a single batch.

    ISA groups deploy concurrently; within a group systems deploy in
    order, so the group's first deployment populates the shared ``cache``
    and the rest hit it. ``lowerings_performed`` / ``lowerings_reused`` on
    the result are the sums over its deployments.
    """
    if not systems:
        raise IRDeploymentError("deploy_batch needs at least one system")
    if cache is None:
        # Default the cache onto the deployment's own blob store: when the
        # caller hands us a persistent store (file/remote backend), lowered
        # machine modules persist alongside the image blobs and the *next*
        # batch — even in another process — starts warm.
        cache = ArtifactCache(store)
    by_name = {system.name: system for system in systems}
    plan = plan_batch(result, app, options, systems,
                      simd_override=simd_override,
                      skip_incompatible=skip_incompatible)

    def _deploy_group(group: ISAGroup) -> list[DeployedIRApp]:
        return [deploy_ir_container(result, app, options, by_name[name], store,
                                    simd_override=simd_override,
                                    registry=registry, repository=repository,
                                    cache=cache)
                for name in group.systems]

    grouped = parallel_map(_deploy_group, plan.groups, max_workers)
    if cache.persistent:
        # The batch's hits bumped recency in memory only; persist them.
        cache.flush_index()

    # Report in the order the systems were first requested.
    deployed = {dep.system.name: dep for deps in grouped for dep in deps}
    return BatchDeployment(
        plan=plan, deployments=[deployed[name] for name in by_name
                                if name in deployed])
