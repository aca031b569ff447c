"""The IR-container pipeline stages (paper Sec. 4.2-4.3, Fig. 7).

The monolithic ``build_ir_container`` is decomposed into six independently
testable stages wired through the :mod:`repro.pipeline.engine` dataflow:

1. :class:`ConfigureStage` — run every build configuration, collect the
   translation units, and share TUs whose full command (plus generated
   build-dir content) already coincides.
2. :class:`PreprocessStage` — preprocess each distinct (source, config
   headers, frontend defines) combination once — through the
   :class:`~repro.containers.store.ArtifactCache`, so repeated builds skip
   the work entirely — and partition TUs by preprocessed text.
3. :class:`OpenMPStage` — the Clang-AST-style analysis that drops
   ``-fopenmp`` from the identity of TUs containing no OpenMP constructs.
4. :class:`VectorizeStage` — vectorization delay: ``-msimd``/``-O`` flags
   leave the identity entirely; the ISA binds at deployment.
5. :class:`IRCompileStage` — compile one IR per surviving equivalence
   class (cache-aware, parallel); :class:`StatsOnlyIRStage` is the
   dedup-analysis-only variant the statistics benchmarks use.
6. :class:`ImageAssemblyStage` — pack IRs, sources, manifests and
   annotations into the OCI image (architecture ``llvm-ir``).

The old ``stages=`` ablation tuple is now literally "which stages to
register": :func:`build_ir_pipeline` constructs the engine accordingly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.buildsys import configure_cached, make_include_resolver
from repro.compiler import Compiler
from repro.compiler.driver import classify_flags, compile_to_ir_cached
from repro.compiler.parser import parse
from repro.compiler.passes import detect_openmp
from repro.containers.image import (
    ANNOTATION_IR_FORMAT,
    ANNOTATION_SPECIALIZATION,
    Image,
    ImageConfig,
    Layer,
    Platform,
)
from repro.pipeline.engine import Pipeline, Stage
from repro.pipeline.parallel import parallel_map
from repro.util.hashing import content_digest, stable_hash

IR_FORMAT = "xaas-region-ir-v1"

#: Dedup stages in paper order; the ablation tuple selects a subset.
DEDUP_STAGES = ("preprocess", "openmp", "vectorize")


@dataclass(frozen=True)
class TranslationUnit:
    """One compilation task inside one configuration."""

    config: str
    target: str
    source: str
    flags: tuple[str, ...]


def config_name(options: dict[str, str]) -> str:
    """Canonical name of a build configuration (stable across callers)."""
    return "-".join(f"{k.lower()}_{v.lower()}" for k, v in sorted(options.items())) \
        or "default"


def tree_fingerprint(tree) -> str:
    """Content digest over a whole source tree — the cache's coarse guard:
    any source or header edit invalidates every derived artifact."""
    return tree.fingerprint()


def ast_confirms_openmp(preprocessed: str) -> bool:
    """The authoritative AST check; falls back to the textual scan on
    sources outside the C subset."""
    try:
        return detect_openmp(parse(preprocessed))
    except Exception:
        return True


def _family_of(target_flags: tuple[str, ...], default: str) -> str:
    for flag in target_flags:
        if flag.startswith("--target="):
            return flag.split("=", 1)[1]
    return default


# -- stage 1: configuration ----------------------------------------------------


class ConfigureStage(Stage):
    """Generate every configuration; share TUs with identical commands.

    Configurations resolve through the artifact cache
    (:func:`~repro.buildsys.configure_cached`): on a warm store the
    build-script interpreter never runs, which is what keeps the per-job
    warm rebuilds of the cluster scheduler cheap.
    """

    name = "configure"
    consumes = ("app", "configs", "env", "stats", "cache")
    produces = ("configurations", "tus", "gen_digest", "tree_digest", "groups")

    def run(self, ctx) -> None:
        app = ctx.require("app")
        stats = ctx.require("stats")
        env = ctx.require("env")
        cache = ctx.require("cache")
        tree_digest = tree_fingerprint(app.tree)
        configurations = {}
        tus: list[TranslationUnit] = []
        for options in ctx.require("configs"):
            name = config_name(options)
            cfg, fresh = configure_cached(app.tree, options, env=env,
                                          name=name, build_dir="/xaas/build",
                                          cache=cache, tree_digest=tree_digest)
            stats.configure_ops += 1 if fresh else 0
            stats.count_lookup("configure", hit=not fresh)
            configurations[name] = cfg
            for cmd in cfg.compile_commands:
                tus.append(TranslationUnit(name, cmd.target, cmd.source, cmd.flags))
        stats.total_tus = len(tus)

        # Configuration-stage identity: the full command *plus* the content
        # of the generated build directory (config headers) — two
        # configurations with identical command lines still differ if
        # configure emitted different headers into the build dir.
        gen_digest = {name: stable_hash(sorted(
            (p, content_digest(c)) for p, c in cfg.generated_files.items()))
            for name, cfg in configurations.items()}
        groups: dict[str, list[TranslationUnit]] = {}
        for tu in tus:
            key = stable_hash({"t": tu.target, "s": tu.source,
                               "f": list(tu.flags), "gen": gen_digest[tu.config]})
            groups.setdefault(key, []).append(tu)
        stats.after_configuration = len(groups)

        # Fraction of repeat TUs whose raw flags match no earlier config.
        per_task: dict[tuple[str, str], set[str]] = {}
        for tu in tus:
            per_task.setdefault((tu.target, tu.source), set()).add(
                stable_hash([list(tu.flags), gen_digest[tu.config]]))
        repeats = sum(len(v) - 1 for v in per_task.values() if len(v) > 1)
        total_repeat_slots = stats.total_tus - len(per_task)
        stats.incompatible_flag_fraction = (
            repeats / total_repeat_slots if total_repeat_slots else 0.0)

        ctx.publish("configurations", configurations)
        ctx.publish("tus", tus)
        ctx.publish("gen_digest", gen_digest)
        ctx.publish("tree_digest", tree_digest)
        ctx.publish("groups", groups)


# -- stage 2: preprocessing ----------------------------------------------------


class PreprocessStage(Stage):
    """Preprocess each distinct TU identity once; partition by output text.

    Distinct identities are preprocessed through the artifact cache (misses
    run concurrently); TUs whose canonical output coincides can share an IR
    unless distinguished by remaining non-define flags.
    """

    name = "preprocess"
    consumes = ("app", "tus", "configurations", "gen_digest", "tree_digest",
                "stats", "cache", "max_workers")
    produces = ("tu_attrs", "groups")

    def run(self, ctx) -> None:
        app = ctx.require("app")
        tus = ctx.require("tus")
        configurations = ctx.require("configurations")
        gen_digest = ctx.require("gen_digest")
        tree_digest = ctx.require("tree_digest")
        stats = ctx.require("stats")
        cache = ctx.require("cache")

        # One classification + cache-key per TU; unique keys in first-seen
        # order so the parallel fan-out stays deterministic.
        per_tu: list[dict] = []
        unique: dict[str, tuple[dict, TranslationUnit]] = {}
        for tu in tus:
            cls = classify_flags(list(tu.flags))
            # -fopenmp belongs in the identity: Compiler.preprocess defines
            # _OPENMP under it, so TUs differing only in -fopenmp may
            # preprocess differently. (The old monolith's in-build cache
            # aliased them; a persistent cache must not.)
            parts = {
                "s": tu.source, "tree": tree_digest,
                "gen": gen_digest[tu.config],
                "fe": sorted(f for f in cls.frontend
                             if f.startswith(("-D", "-U", "-I"))
                             or f == "-fopenmp"),
            }
            key = cache.cache_key("preprocess", parts)
            per_tu.append({"cls": cls, "pp_key": key,
                           "fopenmp": "-fopenmp" in cls.frontend})
            unique.setdefault(key, (parts, tu))

        # Resolve every unique identity: cache hit or concurrent preprocess.
        resolved: dict[str, tuple[str, bool]] = {}  # key -> (text digest, omp)
        missing: list[tuple[str, dict, TranslationUnit]] = []
        for key, (parts, tu) in unique.items():
            entry = cache.get("preprocess", parts)
            stats.count_lookup("preprocess", hit=entry is not None)
            if entry is not None:
                payload = json.loads(entry.payload)
                resolved[key] = (payload["text_digest"], payload["has_omp"])
            else:
                missing.append((key, parts, tu))

        def _preprocess(item):
            _key, _parts, tu = item
            cfg = configurations[tu.config]
            compiler = Compiler(make_include_resolver(app.tree, cfg))
            pre = compiler.preprocess(app.tree.read(tu.source),
                                      list(tu.flags), tu.source)
            has_omp = pre.has_openmp_pragma and ast_confirms_openmp(pre.text)
            return pre.text, has_omp

        results = parallel_map(_preprocess, missing, ctx.require("max_workers"))
        stats.preprocess_ops += len(missing)
        # The canonical text goes in its own content-addressed blob —
        # this is what lets a cold process on a persistent/remote store
        # (repro.store backends) replay it via text_digest; the indexed
        # payload stays small so warm hits are O(1) in text size. Every
        # result exists by now and none was durable before, so the stage
        # publishes them as one batch: one blob write and one index save
        # instead of one of each per translation unit.
        items = []
        for (key, parts, _tu), (text, has_omp) in zip(missing, results):
            text_digest = content_digest(text)
            resolved[key] = (text_digest, has_omp)
            items.append((parts, json.dumps(
                {"text_digest": text_digest, "has_omp": has_omp},
                sort_keys=True)))
        cache.put_many("preprocess", items,
                       blobs=(text for text, _has_omp in results))

        groups: dict[str, list[TranslationUnit]] = {}
        for tu, attrs in zip(tus, per_tu):
            text_digest, has_omp = resolved[attrs["pp_key"]]
            attrs["pp"] = text_digest
            attrs["has_omp"] = has_omp
            # Until the OpenMP stage refines it, -fopenmp always splits.
            attrs["omp_relevant"] = attrs["fopenmp"]
            cls = attrs["cls"]
            key = stable_hash({"s": tu.source, "pp": text_digest,
                               "omp": attrs["fopenmp"],
                               "tgt": list(cls.target), "opt": list(cls.opt)})
            groups.setdefault(key, []).append(tu)
        stats.after_preprocessing = len(groups)

        ctx.publish("tu_attrs", per_tu)
        ctx.publish("groups", groups)


# -- stage 3: OpenMP detection -------------------------------------------------


class OpenMPStage(Stage):
    """Drop ``-fopenmp`` from the identity of TUs without OpenMP constructs."""

    name = "openmp"
    consumes = ("tus", "tu_attrs", "stats")
    produces = ("tu_attrs", "groups")

    def run(self, ctx) -> None:
        tus = ctx.require("tus")
        tu_attrs = ctx.require("tu_attrs")
        stats = ctx.require("stats")
        groups: dict[str, list[TranslationUnit]] = {}
        for tu, attrs in zip(tus, tu_attrs):
            attrs["omp_relevant"] = attrs["fopenmp"] and attrs["has_omp"]
            cls = attrs["cls"]
            key = stable_hash({"s": tu.source, "pp": attrs["pp"],
                               "omp": attrs["omp_relevant"],
                               "tgt": list(cls.target), "opt": list(cls.opt)})
            groups.setdefault(key, []).append(tu)
        stats.after_openmp = len(groups)
        ctx.publish("tu_attrs", tu_attrs)
        ctx.publish("groups", groups)


# -- stage 4: vectorization delay ----------------------------------------------


class VectorizeStage(Stage):
    """Strip ``-msimd``/``-O`` from the identity: the ISA binds at deploy."""

    name = "vectorize"
    consumes = ("tus", "tu_attrs", "arch_family", "stats")
    produces = ("groups",)

    def run(self, ctx) -> None:
        arch_family = ctx.require("arch_family")
        groups: dict[str, list[TranslationUnit]] = {}
        for tu, attrs in zip(ctx.require("tus"), ctx.require("tu_attrs")):
            key = stable_hash({"s": tu.source, "pp": attrs["pp"],
                               "omp": attrs["omp_relevant"],
                               "family": _family_of(attrs["cls"].target,
                                                    arch_family)})
            groups.setdefault(key, []).append(tu)
        ctx.publish("groups", groups)


# -- stage 5: IR compilation ---------------------------------------------------


class IRCompileStage(Stage):
    """Compile one IR per equivalence class — cache-aware and parallel."""

    name = "ir-compile"
    consumes = ("app", "configurations", "tus", "groups", "cache", "stats",
                "max_workers")
    produces = ("ir_files", "ir_modules", "group_to_ir")

    def run(self, ctx) -> None:
        app = ctx.require("app")
        configurations = ctx.require("configurations")
        groups = ctx.require("groups")
        cache = ctx.require("cache")
        stats = ctx.require("stats")
        stats.final_irs = len(groups)
        # The preprocess stage already stored each TU's text; without it
        # (the stages=() ablation) compile_to_ir_cached preprocesses.
        text_digest = {tu: attrs["pp"] for tu, attrs
                       in zip(ctx.require("tus"), ctx.get("tu_attrs", ()))}

        def _compile_one(item):
            _key, members = item
            rep = members[0]
            frontend_flags = [f for f in rep.flags
                              if f.startswith(("-D", "-U", "-I")) or f == "-fopenmp"]
            cfg = configurations[rep.config]
            compiler = Compiler(make_include_resolver(app.tree, cfg))
            return compile_to_ir_cached(
                compiler, app.tree.read(rep.source), frontend_flags, rep.source,
                cache=cache, text_digest=text_digest.get(rep))

        items = list(groups.items())
        compiled = parallel_map(_compile_one, items,
                                ctx.require("max_workers"))
        ir_files: dict[str, str] = {}
        ir_modules: dict[str, object] = {}
        group_to_ir: dict[str, str] = {}
        for (key, _members), (text, module, fresh) in zip(items, compiled):
            digest = content_digest(text)
            ir_files[digest] = text
            ir_modules[digest] = module
            group_to_ir[key] = digest
            stats.ir_compile_ops += 1 if fresh else 0
            stats.count_lookup("ir", hit=not fresh)
        ctx.publish("ir_files", ir_files)
        ctx.publish("ir_modules", ir_modules)
        ctx.publish("group_to_ir", group_to_ir)


class StatsOnlyIRStage(Stage):
    """Dedup analysis without compiling IRs (large-scale statistics runs)."""

    name = "ir-compile"
    consumes = ("groups", "stats")
    produces = ("ir_files", "ir_modules", "group_to_ir")

    def run(self, ctx) -> None:
        groups = ctx.require("groups")
        ctx.require("stats").final_irs = len(groups)
        ctx.publish("ir_files", {})
        ctx.publish("ir_modules", {})
        ctx.publish("group_to_ir", {key: "sha256:" + "0" * 64 for key in groups})


# -- stage 6: image assembly ---------------------------------------------------


class ImageAssemblyStage(Stage):
    """Per-configuration manifests + OCI image (architecture ``llvm-ir``)."""

    name = "assemble-image"
    consumes = ("app", "configs", "configurations", "groups", "group_to_ir",
                "ir_files", "store", "arch_family", "stats")
    produces = ("manifests", "image")

    def run(self, ctx) -> None:
        app = ctx.require("app")
        configs = ctx.require("configs")
        configurations = ctx.require("configurations")
        group_to_ir = ctx.require("group_to_ir")

        manifests: dict[str, list[dict]] = {name: [] for name in configurations}
        for key, members in ctx.require("groups").items():
            for tu in members:
                cls = classify_flags(list(tu.flags))
                manifests[tu.config].append({
                    "target": tu.target, "source": tu.source,
                    "ir": group_to_ir[key],
                    "lowering_flags": list(cls.target) + list(cls.opt),
                })
        image = assemble_image(app, configs, ctx.require("ir_files"), manifests,
                               ctx.require("store"), ctx.require("arch_family"),
                               ctx.require("stats"))
        ctx.publish("manifests", manifests)
        ctx.publish("image", image)


def assemble_image(app, configs, ir_files, manifests, store,
                   arch_family, stats) -> Image:
    source_layer = Layer({f"/xaas/src/{p}": c for p, c in app.tree.files.items()},
                         comment="application source (system-dependent files + install)")
    ir_layer = Layer({f"/xaas/ir/{d.split(':', 1)[1][:24]}.ir": text
                      for d, text in ir_files.items()},
                     comment="deduplicated IR files")
    manifest_layer = Layer(
        {f"/xaas/manifests/{name}.json": json.dumps(entries, sort_keys=True, indent=1)
         for name, entries in manifests.items()},
        comment="per-configuration install manifests")
    toolchain_layer = Layer({
        "/xaas/toolchain/clang": "clang-19 (repro simulated toolchain)",
        "/xaas/toolchain/llvm-link": "llvm-link (repro)",
    }, comment="LLVM toolchain for deployment-time lowering")
    config_layer = Layer({
        "/xaas/configs.json": json.dumps(configs, sort_keys=True, indent=1),
        "/xaas/stats.json": json.dumps({
            "total_tus": stats.total_tus, "final_irs": stats.final_irs,
            "reduction": stats.reduction}, sort_keys=True),
    }, comment="available build configurations")
    platform = Platform("llvm-ir", variant=arch_family)
    annotations = {
        ANNOTATION_IR_FORMAT: IR_FORMAT,
        ANNOTATION_SPECIALIZATION: json.dumps(
            {k: sorted({c.get(k, "") for c in configs})
             for k in sorted({key for c in configs for key in c})},
            sort_keys=True),
        "org.xaas.app": app.name,
    }
    return Image.build(
        [toolchain_layer, source_layer, ir_layer, manifest_layer, config_layer],
        ImageConfig(platform=platform, labels={"org.xaas.kind": "ir-container"}),
        store, annotations)


# -- pipeline construction -----------------------------------------------------

PIPELINE_INPUTS = ("app", "configs", "env", "store", "arch_family",
                   "stats", "cache", "max_workers")


def build_ir_pipeline(stages: tuple[str, ...] = DEDUP_STAGES,
                      compile_irs: bool = True) -> Pipeline:
    """Wire the IR-container pipeline; ``stages`` selects the dedup stages.

    The OpenMP and vectorization stages consume the preprocessing stage's
    outputs, so without ``"preprocess"`` they cannot be registered and the
    pipeline degrades to configuration-stage identity — exactly the
    paper's ablation semantics.
    """
    pipeline = Pipeline("ir-container", inputs=PIPELINE_INPUTS)
    pipeline.register(ConfigureStage())
    if "preprocess" in stages:
        pipeline.register(PreprocessStage())
        if "openmp" in stages:
            pipeline.register(OpenMPStage())
        if "vectorize" in stages:
            pipeline.register(VectorizeStage())
    pipeline.register(IRCompileStage() if compile_irs else StatsOnlyIRStage())
    pipeline.register(ImageAssemblyStage())
    return pipeline
