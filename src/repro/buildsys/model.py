"""Build-system data model: source trees, targets, compile commands.

The compile-commands database (:class:`CompileCommand` lists) is the central
artifact: the paper's pipeline obtains it from CMake "without analyzing the
internal structure of each build system" (Sec. 4.3) and diffs it across
configurations. We reproduce its essential structure — one entry per
(target, source) pair with the full flag list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.util.hashing import content_digest, stable_hash


class SourceTreeError(KeyError):
    pass


@dataclass
class SourceTree:
    """A virtual project file system: path -> text content.

    Paths are POSIX-style and relative to the project root. The tree also
    serves as the include universe for the compiler's preprocessor.
    """

    files: dict[str, str] = field(default_factory=dict)

    def read(self, path: str) -> str:
        try:
            return self.files[path]
        except KeyError:
            raise SourceTreeError(f"no such file in source tree: {path!r}") from None

    def write(self, path: str, content: str) -> None:
        self.files[path] = content
        self.__dict__.pop("_fingerprint", None)

    def exists(self, path: str) -> bool:
        return path in self.files

    def paths(self) -> list[str]:
        return sorted(self.files)

    def copy(self) -> "SourceTree":
        return SourceTree(dict(self.files))

    def fingerprint(self) -> str:
        """Content digest over the whole tree — the coarse cache guard: any
        source or header edit invalidates every derived artifact.

        Cached until the next :meth:`write` — hashing a GROMACS-sized tree
        is measurable, and every pipeline stage keys on it. Mutate files
        through :meth:`write` (not ``tree.files[...]``) or the cache goes
        stale.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = stable_hash(sorted(
                (path, content_digest(text))
                for path, text in self.files.items()))
            self.__dict__["_fingerprint"] = cached
        return cached


@dataclass
class Target:
    """A build target (library or executable)."""

    name: str
    kind: str  # "library" | "executable"
    sources: list[str] = field(default_factory=list)
    compile_definitions: list[str] = field(default_factory=list)
    compile_options: list[str] = field(default_factory=list)
    include_dirs: list[str] = field(default_factory=list)
    link_libraries: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class CompileCommand:
    """One entry of the compile-commands database.

    ``flags`` is the complete, ordered flag list exactly as the build system
    would pass it to the compiler — global flags first, then target flags,
    then per-configuration include paths. The IR pipeline's configuration
    stage compares these lists verbatim (before any normalization), which is
    why per-config build-directory includes make 96% of GROMACS commands
    differ across configurations (Sec. 6.4).
    """

    target: str
    source: str
    flags: tuple[str, ...]
    output: str
    directory: str

    def key(self) -> tuple[str, str]:
        """Identity of the compilation *task* (target + source), per Sec 4.3:
        commands are compared per target, not per file, because one source
        can be built into several targets with different flags."""
        return (self.target, self.source)

    def fingerprint(self) -> str:
        """Digest of the full command — the configuration-stage identity."""
        return stable_hash({
            "target": self.target, "source": self.source,
            "flags": list(self.flags), "directory": self.directory,
        })


@dataclass
class BuildConfiguration:
    """The result of configuring a project with one set of option values."""

    name: str
    options: dict[str, str]
    targets: dict[str, Target]
    compile_commands: list[CompileCommand]
    generated_files: dict[str, str]  # build-dir relative path -> content
    build_dir: str
    link_flags: list[str] = field(default_factory=list)
    dependencies: list[str] = field(default_factory=list)  # found packages
    messages: list[str] = field(default_factory=list)

    def command_for(self, target: str, source: str) -> CompileCommand:
        for cmd in self.compile_commands:
            if cmd.target == target and cmd.source == source:
                return cmd
        raise KeyError(f"no compile command for {target}:{source}")

    @property
    def translation_units(self) -> int:
        return len(self.compile_commands)


CONFIGURATION_FORMAT = "xaas-build-configuration-v1"


def configuration_to_payload(cfg: BuildConfiguration) -> str:
    """Serialize a configuration to deterministic JSON text.

    Together with :func:`configuration_from_payload` this makes
    ``configure`` cache entries payload-only artifacts: any process holding
    the blob can rebuild the targets, compile-commands database, and
    generated headers without re-running the build-script interpreter.
    """
    return json.dumps({
        "format": CONFIGURATION_FORMAT,
        "name": cfg.name,
        "options": cfg.options,
        "targets": {name: {
            "kind": t.kind, "sources": t.sources,
            "compile_definitions": t.compile_definitions,
            "compile_options": t.compile_options,
            "include_dirs": t.include_dirs,
            "link_libraries": t.link_libraries,
        } for name, t in sorted(cfg.targets.items())},
        "compile_commands": [
            [c.target, c.source, list(c.flags), c.output, c.directory]
            for c in cfg.compile_commands],
        "generated_files": cfg.generated_files,
        "build_dir": cfg.build_dir,
        "link_flags": cfg.link_flags,
        "dependencies": cfg.dependencies,
        "messages": cfg.messages,
    }, sort_keys=True)


def configuration_from_payload(payload: str) -> BuildConfiguration:
    """Inverse of :func:`configuration_to_payload`."""
    blob = json.loads(payload)
    if blob.get("format") != CONFIGURATION_FORMAT:
        raise ValueError(f"not a serialized configuration: "
                         f"{blob.get('format')!r}")
    return BuildConfiguration(
        name=blob["name"],
        options=dict(blob["options"]),
        targets={name: Target(name=name, kind=t["kind"],
                              sources=list(t["sources"]),
                              compile_definitions=list(t["compile_definitions"]),
                              compile_options=list(t["compile_options"]),
                              include_dirs=list(t["include_dirs"]),
                              link_libraries=list(t["link_libraries"]))
                 for name, t in blob["targets"].items()},
        compile_commands=[CompileCommand(target, source, tuple(flags),
                                         output, directory)
                          for target, source, flags, output, directory
                          in blob["compile_commands"]],
        generated_files=dict(blob["generated_files"]),
        build_dir=blob["build_dir"],
        link_flags=list(blob["link_flags"]),
        dependencies=list(blob["dependencies"]),
        messages=list(blob["messages"]),
    )
