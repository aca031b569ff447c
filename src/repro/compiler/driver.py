"""Clang-like compiler driver: flag parsing, classification, and pipelines.

The XaaS IR pipeline treats the compiler as a black box with a known flag
taxonomy (Sec. 4.3): ``-D``/``-I``/``-fopenmp`` shape the IR; ``-m<isa>`` and
``-O`` only shape the final machine code. :func:`classify_flags` encodes that
taxonomy and is what lets the pipeline drop target/optimization flags when
deciding whether two compile commands can share one IR file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler import ir
from repro.compiler.frontend import lower_unit
from repro.compiler.lowering import MachineModule, lower_module
from repro.compiler.parser import parse
from repro.compiler.preprocessor import IncludeResolver, Preprocessor, PreprocessResult
from repro.compiler.target import ALL_TARGETS, TargetMachine, get_target


class DriverError(ValueError):
    pass


# Flags the driver understands, by pipeline stage.
_SIMD_FLAG_PREFIX = "-msimd="
_TARGET_FLAG_PREFIX = "--target="


@dataclass(frozen=True)
class FlagClassification:
    """Compile-command flags split by the pipeline stage that consumes them."""

    frontend: tuple[str, ...]  # -D / -U / -I / -fopenmp: shape the IR
    target: tuple[str, ...]    # -msimd= / --target=: shape machine code only
    opt: tuple[str, ...]       # -O levels: shape machine code only
    other: tuple[str, ...]     # -c, -o, warnings...: no effect on output


def classify_flags(flags: list[str]) -> FlagClassification:
    """Split flags by consuming stage; order within a class is preserved."""
    frontend: list[str] = []
    target: list[str] = []
    opt: list[str] = []
    other: list[str] = []
    i = 0
    while i < len(flags):
        flag = flags[i]
        if flag.startswith(("-D", "-U")) or flag == "-fopenmp":
            frontend.append(flag)
        elif flag == "-I":
            if i + 1 >= len(flags):
                raise DriverError("-I requires an argument")
            frontend.append(f"-I{flags[i + 1]}")
            i += 1
        elif flag.startswith("-I"):
            frontend.append(flag)
        elif flag.startswith(_SIMD_FLAG_PREFIX) or flag.startswith(_TARGET_FLAG_PREFIX) \
                or flag.startswith("-march=") or flag.startswith("-mcpu="):
            target.append(flag)
        elif flag.startswith("-O"):
            opt.append(flag)
        elif flag in ("-o", "-MF", "-MT"):
            i += 1  # skip the argument too
            other.append(flag)
        else:
            other.append(flag)
        i += 1
    return FlagClassification(tuple(frontend), tuple(target), tuple(opt), tuple(other))


@dataclass
class CompileOptions:
    """Parsed form of a compile command's flags."""

    defines: dict[str, str | None] = field(default_factory=dict)
    include_dirs: list[str] = field(default_factory=list)
    fopenmp: bool = False
    opt_level: int = 0
    simd: str | None = None       # GROMACS-style SIMD name, e.g. "AVX_512"
    target_family: str = "x86_64"

    @classmethod
    def from_flags(cls, flags: list[str]) -> "CompileOptions":
        opts = cls()
        i = 0
        while i < len(flags):
            flag = flags[i]
            if flag.startswith("-D"):
                body = flag[2:]
                if "=" in body:
                    name, value = body.split("=", 1)
                    opts.defines[name] = value
                else:
                    opts.defines[body] = None
            elif flag.startswith("-U"):
                opts.defines.pop(flag[2:], None)
            elif flag == "-I":
                opts.include_dirs.append(flags[i + 1])
                i += 1
            elif flag.startswith("-I"):
                opts.include_dirs.append(flag[2:])
            elif flag == "-fopenmp":
                opts.fopenmp = True
            elif flag.startswith("-O"):
                level = flag[2:] or "1"
                opts.opt_level = {"0": 0, "1": 1, "2": 2, "3": 3, "s": 2, "fast": 3}.get(level, 2)
            elif flag.startswith(_SIMD_FLAG_PREFIX):
                opts.simd = flag[len(_SIMD_FLAG_PREFIX):]
            elif flag.startswith(_TARGET_FLAG_PREFIX):
                opts.target_family = flag[len(_TARGET_FLAG_PREFIX):]
            i += 1
        return opts

    def resolve_target(self) -> TargetMachine:
        """Pick the TargetMachine named by -msimd=, or the scalar default.

        The scalar level exists in both families, so "None" resolves
        through --target: aarch64 builds get the ARM scalar machine.
        """
        arm = self.target_family in ("aarch64", "arm64")
        if self.simd is None or self.simd == "None":
            return get_target("ARM_None" if arm else "None")
        return get_target(self.simd)


@dataclass
class CompileResult:
    """Everything produced for one translation unit."""

    name: str
    preprocessed: PreprocessResult
    module: ir.Module
    uses_openmp: bool


class Compiler:
    """The full simulated toolchain: preprocess -> parse -> IR -> lower.

    An include resolver maps header names to text; the build system supplies
    one backed by its virtual source tree.
    """

    def __init__(self, include_resolver: IncludeResolver | None = None):
        self.include_resolver = include_resolver

    def preprocess(self, source: str, flags: list[str],
                   filename: str = "<source>") -> PreprocessResult:
        opts = CompileOptions.from_flags(flags)
        defines = dict(opts.defines)
        if opts.fopenmp:
            defines.setdefault("_OPENMP", "202011")
        pp = Preprocessor(defines, self.include_resolver)
        return pp.preprocess(source, filename)

    def compile_to_ir(self, source: str, flags: list[str],
                      name: str = "unit") -> CompileResult:
        """Frontend half of the pipeline — this is what IR containers store.

        Only frontend-relevant flags are baked into the module; the
        classification is recorded so later stages can audit it.
        """
        pre = self.preprocess(source, flags, name)
        module, uses_openmp = self.compile_preprocessed(pre.text, flags, name)
        return CompileResult(name, pre, module, uses_openmp)

    def compile_preprocessed(self, text: str, flags: list[str],
                             name: str = "unit") -> tuple[ir.Module, bool]:
        """:meth:`compile_to_ir` from text that is already preprocessed:
        ``(module, uses OpenMP)``. The include resolver is never
        consulted, so the text and the frontend flags are the whole input.
        """
        opts = CompileOptions.from_flags(flags)
        unit = parse(text)
        classification = classify_flags(flags)
        module = lower_unit(unit, name=name, fopenmp=opts.fopenmp,
                            frontend_flags=classification.frontend)
        from repro.compiler.passes import detect_openmp
        return module, detect_openmp(unit)

    def lower(self, module: ir.Module, flags: list[str]) -> MachineModule:
        """Backend half — run at deployment time in IR containers."""
        opts = CompileOptions.from_flags(flags)
        target = opts.resolve_target()
        return lower_module(module, target, opt_level=opts.opt_level)

    def compile(self, source: str, flags: list[str],
                name: str = "unit") -> tuple[CompileResult, MachineModule]:
        """Traditional one-shot compilation (what specialized builds do)."""
        result = self.compile_to_ir(source, flags, name)
        return result, self.lower(result.module, flags)


def compile_to_ir_cached(compiler: Compiler, source: str, flags: list[str],
                         name: str = "unit", cache=None,
                         text_digest: str | None = None,
                         ) -> tuple[str, ir.Module, bool]:
    """Cache-aware frontend: ``(canonical IR text, module, freshly compiled)``.

    The cache key is what the frontend consumes: the digest of the
    preprocessed text, the unit name and the frontend-relevant flags —
    the paper's sharing rule (Sec. 4.2-4.3), so two configurations whose
    headers differ elsewhere still share the IR of a unit they preprocess
    alike. ``text_digest`` names that text in ``cache.store`` (the
    preprocess stage stores it); without one, or when the blob is gone,
    ``source`` is preprocessed here and yields the same digest. Entries
    are payload-only artifacts (``cache`` is an
    :class:`~repro.containers.store.ArtifactCache`): the payload *is* the
    canonical IR text, and :func:`repro.compiler.ir.parse_module` rebuilds
    the live module when the hit comes from a persistent store another
    process warmed — zero frontend work in the cold process.
    """
    if cache is None:
        result = compiler.compile_to_ir(source, flags, name)
        return result.module.render(), result.module, True
    from repro.store.backend import BlobNotFound
    from repro.util.hashing import content_digest
    pre_text = None
    if text_digest is None:
        pre_text = compiler.preprocess(source, flags, name).text
        text_digest = content_digest(pre_text)
    parts = {"pp": text_digest, "name": name,
             "fe": sorted(classify_flags(list(flags)).frontend)}
    entry = cache.get("ir", parts)
    if entry is not None:
        module = entry.obj
        if module is None:
            module = ir.parse_module(entry.payload)
            # Promote the parsed module so later hits in this process share
            # one live identity (deployments compare modules by object).
            cache.put("ir", parts, entry.payload, obj=module)
        return entry.payload, module, False
    if pre_text is None:
        try:
            pre_text = cache.store.get_text(text_digest)
        except BlobNotFound:
            pre_text = compiler.preprocess(source, flags, name).text
    module, _uses_openmp = compiler.compile_preprocessed(pre_text, flags, name)
    text = module.render()
    cache.put("ir", parts, text, obj=module)
    return text, module, True


def make_resolver(headers: dict[str, str]) -> IncludeResolver:
    """Build an include resolver from a name -> text mapping."""

    def resolver(name: str, system: bool) -> str | None:
        return headers.get(name)

    return resolver
