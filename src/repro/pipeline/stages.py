"""The IR-container build front (paper Sec. 4.2-4.3, Fig. 7).

The build front is five stage functions, which the core's ``run_front``
calls in the paper's order; each takes what it needs and returns what it
makes:

1. :func:`configure_stage` — run every build configuration, collect the
   translation units (of one source share, on the build farm), and share
   TUs whose full command (plus generated build-dir content) already
   coincides.
2. :func:`preprocess_stage` — preprocess each distinct (source, config
   headers, frontend defines) combination once — through the
   :class:`~repro.containers.store.ArtifactCache`, so repeated builds skip
   the work entirely — and partition TUs by preprocessed text.
3. :func:`openmp_stage` — the Clang-AST-style analysis that drops
   ``-fopenmp`` from the identity of TUs containing no OpenMP constructs.
4. :func:`vectorize_stage` — vectorization delay: ``-msimd``/``-O`` flags
   leave the identity entirely; the ISA binds at deployment.
5. :func:`ir_compile_stage` — compile one IR per surviving equivalence
   class (cache-aware) with :func:`ir_frontend_flags`.

Each grouping stage counts nothing: it returns every TU's identity at its
level, a function of the TU and its own configuration, and the caller
keeps them as the front's funnel. :func:`front_summary` carries a front's
manifests and keys, and :func:`joint_stats` over the fronts of any split
of a configuration set derives its funnel. Image assembly is not a stage:
:func:`assemble_image` packs the image (architecture ``llvm-ir``).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from repro.buildsys import configure_cached, make_include_resolver
from repro.buildsys.model import configuration_from_payload, configuration_to_payload
from repro.compiler import Compiler
from repro.compiler.driver import classify_flags, compile_to_ir_cached
from repro.compiler.parser import parse
from repro.compiler.passes import detect_openmp
from repro.containers.image import (
    ANNOTATION_CONFIGURATIONS,
    ANNOTATION_IR_FORMAT,
    ANNOTATION_SPECIALIZATION,
    Descriptor,
    Image,
    ImageConfig,
    Layer,
    Manifest,
    Platform,
)
from repro.pipeline.stats import PipelineStats
from repro.util.hashing import canonical_json, content_digest, stable_hash

IR_FORMAT = "xaas-region-ir-v1"

#: Dedup stages in paper order; the ablation tuple selects a subset.
DEDUP_STAGES = ("preprocess", "openmp", "vectorize")

#: The build container's fixed build-dir mount path (Sec. 4.2): every
#: configuration configures there, so the path never splits an identity.
BUILD_DIR = "/xaas/build"

#: The funnel's levels after the raw TU count, each an identity per TU:
#: a joint build's count at a level is the number of distinct keys.
FUNNEL_LEVELS = ("configuration", "preprocess", "openmp", "vectorize")


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


def ast_confirms_openmp(preprocessed: str) -> bool:
    """The authoritative AST check; falls back to the textual scan on
    sources outside the C subset."""
    try:
        return detect_openmp(parse(preprocessed))
    except Exception:
        return True


def ir_frontend_flags(frontend: tuple[str, ...], omp_relevant: bool) -> list[str]:
    """The flags an IR class compiles with — what its identity kept: the
    ``-D``/``-U``/``-I`` of ``classify_flags``, and ``-fopenmp`` only when
    the class is ``omp_relevant`` (Sec. 4.2, Fig. 7)."""
    return [f for f in frontend if f != "-fopenmp" or omp_relevant]


def _family_of(target_flags: tuple[str, ...], default: str) -> str:
    for flag in target_flags:
        if flag.startswith("--target="):
            return flag.split("=", 1)[1]
    return default


def _class_key(tu: TranslationUnit, attrs: dict, omp: bool) -> str:
    """Preprocess- and OpenMP-stage identity: the preprocessed text, the
    target and optimization flags, and whether ``-fopenmp`` still splits
    (``omp``)."""
    cls = attrs["cls"]
    return stable_hash({"s": tu.source, "pp": attrs["pp"], "omp": omp,
                        "tgt": list(cls.target), "opt": list(cls.opt)})


def _group(keys: list[str]) -> dict[str, list[int]]:
    """The TUs' positions grouped by their identity ``keys`` (one per TU,
    in order), groups in first-seen order."""
    groups: dict[str, list[int]] = {}
    for index, key in enumerate(keys):
        groups.setdefault(key, []).append(index)
    return groups


def flag_fraction(tasks: list[tuple[str, str, str]]) -> float:
    """Fraction of repeat TUs whose configuration identity matches no
    earlier configuration's; ``tasks`` are ``(target, source,
    configuration key)`` per TU."""
    per_task: dict[tuple[str, str], set[str]] = {}
    for target, source, key in tasks:
        per_task.setdefault((target, source), set()).add(key)
    repeats = sum(len(keys) - 1 for keys in per_task.values())
    slots = len(tasks) - len(per_task)
    return repeats / slots if slots else 0.0


def configure_all(app, configs: list[dict[str, str]], env, cache):
    """Every build configuration at :data:`BUILD_DIR`, through the artifact
    cache as one batch: ``(configuration, freshly configured)`` each."""
    return configure_cached(app.tree, [(options, config_name(options))
                                       for options in configs], cache,
                            env=env, build_dir=BUILD_DIR)


# -- stage 1: configuration ----------------------------------------------------


def configure_stage(app, configs: list[dict[str, str]], env, cache,
                    stats: PipelineStats, part: tuple[int, int] | None = None):
    """Generate every configuration; share TUs with identical commands:
    ``(configurations, tus, gen_digest, keys)``.

    Configurations resolve through the artifact cache
    (:func:`~repro.buildsys.configure_cached`): on a warm store the
    build-script interpreter never runs, and a deployment that opens a
    built image gets its configuration the same way. ``gen_digest`` is
    each configuration's digest of its generated build directory.

    A ``part`` of ``(index, count)`` keeps the TUs of one source share:
    the sorted sources dealt out round-robin to ``count`` fronts, of
    which this is front ``index``. Every artifact key holds its source, so
    the shares' fronts build disjoint artifacts; ``None`` keeps every TU.
    """
    configurations = {}
    tus: list[TranslationUnit] = []
    for cfg, fresh in configure_all(app, configs, env, cache):
        stats.configure_ops += 1 if fresh else 0
        stats.count_lookup("configure", hit=not fresh)
        configurations[cfg.name] = cfg
        for cmd in cfg.compile_commands:
            tus.append(TranslationUnit(cfg.name, cmd.target, cmd.source,
                                       cmd.flags))
    if part is not None:
        index, count = part
        share = set(sorted({tu.source for tu in tus})[index::count])
        tus = [tu for tu in tus if tu.source in share]

    gen_digest = {name: stable_hash(sorted(
        (p, content_digest(c)) for p, c in cfg.generated_files.items()))
        for name, cfg in configurations.items()}
    # Configuration-stage identity: the full command *plus* the content of
    # the generated build directory (config headers) — two configurations
    # with identical command lines still differ if configure emitted
    # different headers into the build dir.
    keys = [stable_hash({"t": tu.target, "s": tu.source, "f": list(tu.flags),
                         "gen": gen_digest[tu.config]})
            for tu in tus]
    return configurations, tus, gen_digest, keys


# -- stage 2: preprocessing ----------------------------------------------------


def preprocess_stage(app, tus: list[TranslationUnit], configurations,
                     gen_digest: dict[str, str], cache, stats: PipelineStats):
    """Preprocess each distinct TU identity once; partition by output text:
    ``(attrs, keys)``, one attribute dict per TU.

    Distinct identities are preprocessed through the artifact cache (misses
    run in turn, in first-seen order); TUs whose canonical output coincides
    can share an IR unless distinguished by remaining non-define flags.
    """
    tree_digest = app.tree.fingerprint()
    # One classification + cache-key per TU; unique keys in first-seen order.
    per_tu: list[dict] = []
    unique: dict[str, tuple[dict, TranslationUnit]] = {}
    for tu in tus:
        cls = classify_flags(list(tu.flags))
        # -fopenmp belongs in this identity: Compiler.preprocess defines
        # _OPENMP under it, so TUs differing only in -fopenmp may
        # preprocess differently.
        parts = {"s": tu.source, "tree": tree_digest,
                 "gen": gen_digest[tu.config], "fe": sorted(cls.frontend)}
        key = cache.cache_key("preprocess", parts)
        per_tu.append({"cls": cls, "pp_key": key,
                       "fopenmp": "-fopenmp" in cls.frontend})
        unique.setdefault(key, (parts, tu))

    # Resolve every unique identity: a cache hit, or preprocess it here.
    resolved: dict[str, tuple[str, bool]] = {}  # key -> (text digest, omp)
    confirmed: dict[str, bool] = {}  # text digest -> the AST's verdict
    items, texts = [], []
    for key, (parts, tu) in unique.items():
        entry = cache.get("preprocess", parts)
        stats.count_lookup("preprocess", hit=entry is not None)
        if entry is not None:
            payload = json.loads(entry.payload)
            resolved[key] = (payload["text_digest"], payload["has_omp"])
            continue
        compiler = Compiler(make_include_resolver(
            app.tree, configurations[tu.config]))
        pre = compiler.preprocess(app.tree.read(tu.source),
                                  list(tu.flags), tu.source)
        text_digest = content_digest(pre.text)
        # A full parse: each distinct text is confirmed once.
        if pre.has_openmp_pragma and text_digest not in confirmed:
            confirmed[text_digest] = ast_confirms_openmp(pre.text)
        has_omp = pre.has_openmp_pragma and confirmed[text_digest]
        resolved[key] = (text_digest, has_omp)
        items.append((parts, canonical_json(
            {"text_digest": text_digest, "has_omp": has_omp})))
        texts.append(pre.text)
    stats.preprocess_ops += len(items)
    # The canonical text goes in its own content-addressed blob — this is
    # what lets a cold process on a persistent/remote store (repro.store
    # backends) replay it via text_digest; the indexed payload stays small
    # so warm hits are O(1) in text size. None of the misses was durable
    # before, so the stage publishes them as one batch: one blob write and
    # one index save instead of one of each per translation unit.
    cache.put_many("preprocess", items, blobs=texts)

    for attrs in per_tu:
        attrs["pp"], attrs["has_omp"] = resolved[attrs["pp_key"]]
        # Until the OpenMP stage refines it, -fopenmp always splits.
        attrs["omp_relevant"] = attrs["fopenmp"]
    return per_tu, [_class_key(tu, attrs, attrs["fopenmp"])
                    for tu, attrs in zip(tus, per_tu)]


# -- stage 3: OpenMP detection -------------------------------------------------


def openmp_stage(tus: list[TranslationUnit], attrs: list[dict]) -> list[str]:
    """Drop ``-fopenmp`` from the identity of TUs without OpenMP constructs:
    refines each TU's ``omp_relevant`` in ``attrs`` and returns the keys."""
    for tu_attrs in attrs:
        tu_attrs["omp_relevant"] = tu_attrs["fopenmp"] and tu_attrs["has_omp"]
    return [_class_key(tu, tu_attrs, tu_attrs["omp_relevant"])
            for tu, tu_attrs in zip(tus, attrs)]


# -- stage 4: vectorization delay ----------------------------------------------


def vectorize_stage(tus: list[TranslationUnit], attrs: list[dict],
                    arch_family: str) -> list[str]:
    """Strip ``-msimd``/``-O`` from the identity: the ISA binds at deploy."""
    return [stable_hash({"s": tu.source, "pp": tu_attrs["pp"],
                         "omp": tu_attrs["omp_relevant"],
                         "family": _family_of(tu_attrs["cls"].target,
                                              arch_family)})
            for tu, tu_attrs in zip(tus, attrs)]


# -- stage 5: IR compilation ---------------------------------------------------


def ir_compile_stage(app, configurations, tus: list[TranslationUnit],
                     attrs: list[dict] | None, keys: list[str], cache,
                     stats: PipelineStats):
    """Compile one IR per equivalence class of ``keys``, through the cache:
    ``(ir_files, ir_modules, irs)``, ``irs`` each TU's IR digest.
    ``attrs`` is ``None`` without the preprocess stage (the ``stages=()``
    ablation): a class is one full command, and compile_to_ir_cached
    preprocesses it. The misses, compiled in first-seen order, are
    published as one batch when the stage ends."""
    ir_files: dict[str, str] = {}
    ir_modules: dict[str, object] = {}
    irs = [""] * len(tus)
    compilers = {name: Compiler(make_include_resolver(app.tree, cfg))
                 for name, cfg in configurations.items()}
    classes = list(_group(keys).values())
    requests = []
    for members in classes:
        rep = tus[members[0]]
        rep_attrs = attrs[members[0]] if attrs is not None else {
            "cls": classify_flags(list(rep.flags)), "omp_relevant": True,
            "pp": None}
        requests.append((compilers[rep.config], app.tree.read(rep.source),
                         ir_frontend_flags(rep_attrs["cls"].frontend,
                                           rep_attrs["omp_relevant"]),
                         rep.source, rep_attrs["pp"]))
    for members, (text, module, fresh) in zip(
            classes, compile_to_ir_cached(requests, cache)):
        digest = content_digest(text)
        ir_files[digest] = text
        ir_modules[digest] = module
        for index in members:
            irs[index] = digest
        stats.ir_compile_ops += 1 if fresh else 0
        stats.count_lookup("ir", hit=not fresh)
    return ir_files, ir_modules, irs


# -- what a front tells the image ----------------------------------------------


def front_summary(tus: list[TranslationUnit], configurations,
                  irs: list[str], funnel: dict[str, list[str]]) -> dict:
    """What a build front run through IR compile tells the image it is part
    of: per-configuration manifest rows — each configuration's own compile
    commands in their order, whatever else was built beside it — and each
    TU's key at every funnel level the front ran, in the same order (by
    configuration name, then compile command), so that :func:`joint_stats`
    pairs each key with its own row. ``irs`` is each TU's IR digest."""
    order = sorted(range(len(tus)), key=lambda i: tus[i].config)
    manifests: dict[str, list[dict]] = {name: [] for name in
                                        sorted(configurations)}
    for i in order:
        tu = tus[i]
        cls = classify_flags(list(tu.flags))
        manifests[tu.config].append({
            "target": tu.target, "source": tu.source, "ir": irs[i],
            "lowering_flags": list(cls.target) + list(cls.opt),
        })
    return {"manifests": manifests,
            "funnel": {level: [keys[i] for i in order]
                       for level, keys in funnel.items()}}


def joint_stats(fronts: list[dict]) -> PipelineStats:
    """The one derivation of a configuration set's funnel from the fronts
    that built it, each a ``PipelineStats.to_json()`` with its
    :func:`front_summary` under ``"summary"``: a level's count is its
    number of distinct keys (a level the ``stages=`` ablation did not
    run has the previous level's keys), configurations and TUs are
    the manifests', and operations, cache traffic and seconds are sums."""
    names: set[str] = set()
    seen: dict[str, set[str]] = {level: set() for level in FUNNEL_LEVELS}
    tasks = []
    sums = {name: Counter() for name in
            ("cache_hits", "cache_misses", "stage_seconds")}
    for front in fronts:
        manifests, funnel = (front["summary"][part]
                             for part in ("manifests", "funnel"))
        names.update(manifests)
        keys: list[str] = []
        for level in FUNNEL_LEVELS:
            keys = funnel.get(level, keys)
            seen[level].update(keys)
        rows = [row for rows in manifests.values() for row in rows]
        tasks += [(row["target"], row["source"], key)
                  for row, key in zip(rows, funnel["configuration"])]
        for name, total in sums.items():
            total.update(front[name])
    configured, preprocessed, openmp, final = (
        len(seen[level]) for level in FUNNEL_LEVELS)
    return PipelineStats(
        configurations=len(names), total_tus=len(tasks),
        after_configuration=configured, after_preprocessing=preprocessed,
        after_openmp=openmp, final_irs=final,
        incompatible_flag_fraction=flag_fraction(tasks),
        openmp_flag_dropped=preprocessed - openmp,
        vector_flag_dropped=openmp - final,
        **{name: sum(front[name] for front in fronts) for name in
           ("configure_ops", "preprocess_ops", "ir_compile_ops")},
        **{name: dict(total) for name, total in sums.items()})


# -- the image -----------------------------------------------------------------


def assemble_image(app, configs, manifests, configurations, store,
                   arch_family, stats) -> Image:
    """The IR container, toolchain and source first, then an index over
    blobs the build published: each IR is a raw layer (its ``ir``
    payload), each configuration two, named in ``ANNOTATION_CONFIGURATIONS``
    — its :func:`rows_layer` and ``configure`` payload."""
    source_layer = Layer({f"/xaas/src/{p}": c for p, c in app.tree.files.items()},
                         comment="application source (system-dependent files + install)")
    toolchain_layer = Layer({
        "/xaas/toolchain/clang": "clang-19 (repro simulated toolchain)",
        "/xaas/toolchain/llvm-link": "llvm-link (repro)",
    }, comment="LLVM toolchain for deployment-time lowering")
    config_layer = Layer({
        "/xaas/configs.json": json.dumps(sorted(configs, key=config_name),
                                         sort_keys=True, indent=1),
        "/xaas/stats.json": json.dumps({
            "total_tus": stats.total_tus, "final_irs": stats.final_irs,
            "reduction": stats.reduction}, sort_keys=True),
    }, comment="available build configurations")
    layers = {name: [
        store.put(rows_layer(entries)),
        content_digest(configuration_to_payload(configurations[name]))]
        for name, entries in manifests.items()}
    annotations = {
        ANNOTATION_IR_FORMAT: IR_FORMAT,
        ANNOTATION_SPECIALIZATION: canonical_json(
            {k: sorted({c.get(k, "") for c in configs})
             for k in {key for c in configs for key in c}}),
        ANNOTATION_CONFIGURATIONS: canonical_json(layers),
        "org.xaas.app": app.name,
    }
    return Image.build(
        [toolchain_layer, source_layer, config_layer,
         *map(Descriptor, dict.fromkeys(d for pair in layers.values()
                                        for d in pair)),
         *map(Descriptor, sorted({row["ir"] for entries in manifests.values()
                                  for row in entries}))],
        ImageConfig(platform=Platform("llvm-ir", variant=arch_family),
                    labels={"org.xaas.kind": "ir-container"}),
        store, annotations)


def rows_layer(entries: list[dict]) -> str:
    """A configuration's manifest rows as its image layer stores them:
    ``{"flags": [lowering flags, ...], "rows": [[target, source, ir,
    index into flags], ...]}`` — rows share a handful of flag lists."""
    flags = list(dict.fromkeys(tuple(row["lowering_flags"]) for row in entries))
    index = {f: i for i, f in enumerate(flags)}
    return canonical_json({"flags": flags, "rows": [
        [row["target"], row["source"], row["ir"],
         index[tuple(row["lowering_flags"])]] for row in entries]})


def configuration_layers(manifest, name: str) -> list[str]:
    """What a deployment of configuration ``name`` keeps of an image
    :func:`assemble_image` built, by digest: toolchain, source, and the
    configuration's manifest rows and build configuration."""
    return manifest.layer_digests[:2] + json.loads(
        manifest.annotations[ANNOTATION_CONFIGURATIONS])[name]


def configuration_annotation(manifest, name: str) -> dict[str, str]:
    """The ``ANNOTATION_CONFIGURATIONS`` of a deployment of configuration
    ``name``: that configuration's entry alone, so the deployed image
    names the one configuration it carries."""
    own = json.loads(manifest.annotations[ANNOTATION_CONFIGURATIONS])[name]
    return {ANNOTATION_CONFIGURATIONS: canonical_json({name: own})}


def open_image(digest: str, store, name: str):
    """``(image, rows, build configuration, IR texts)`` of configuration
    ``name`` in the image ``digest``: its manifest and config, that
    configuration's two layers and its IRs are all it reads. An older
    image fails first, on its configuration codec's ``ValueError``."""
    manifest = Manifest.deserialize(store.get(digest))
    *_base, rows_digest, cfg_digest = configuration_layers(manifest, name)
    blobs = store.get_many([manifest.config_digest, rows_digest, cfg_digest])
    configuration = configuration_from_payload(blobs[cfg_digest].decode())
    layer = json.loads(blobs[rows_digest])
    rows = [{"target": target, "source": source, "ir": ir,
             "lowering_flags": list(layer["flags"][flags])}
            for target, source, ir, flags in layer["rows"]]
    texts = store.get_many(sorted({row["ir"] for row in rows}))
    image = Image(manifest, ImageConfig.deserialize(blobs[manifest.config_digest]),
                  list(manifest.layers))
    return (image, rows, configuration,
            {ir: text.decode() for ir, text in texts.items()})
