"""Interpreter for the mini-CMake language: the configuration stage.

Evaluating a build script with a set of cache options yields a
:class:`~repro.buildsys.model.BuildConfiguration`: resolved targets, generated
configuration headers, and the compile-commands database. The interpreter
also records every declared option (:class:`OptionSpec`) — these records are
the *ground truth* against which the simulated LLM discovery is scored in the
Table 4 experiment.

Supported commands cover what HPC build systems use to encode specialization
points: ``option``, multichoice options (any ``*_option_multichoice``
command, mirroring GROMACS' ``gmx_option_multichoice``), ``set``, ``list``,
``if``/``elseif``/``else``/``endif``, ``foreach``, ``find_package``,
``configure_file``, target commands, and diagnostics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.buildsys.model import (
    BuildConfiguration,
    CompileCommand,
    SourceTree,
    Target,
    configuration_from_payload,
    configuration_to_payload,
)
from repro.buildsys.parser import BuildScriptError, Command, parse_script

_FALSE_VALUES = {"off", "false", "no", "0", "", "notfound", "ignore", "n"}


def is_truthy(value: str) -> bool:
    v = value.lower()
    if v in _FALSE_VALUES or v.endswith("-notfound"):
        return False
    return True


@dataclass(frozen=True)
class OptionSpec:
    """A declared specialization point, as the build system defines it."""

    name: str
    kind: str  # "bool" | "multichoice"
    default: str
    doc: str = ""
    choices: tuple[str, ...] = ()

    @property
    def build_flag(self) -> str:
        return f"-D{self.name}"


@dataclass
class BuildEnvironment:
    """What ``find_package`` can see: the packages installed on the system.

    ``packages`` maps canonical package name to version string. The
    deployment pipeline constructs this from the discovered system features
    (:mod:`repro.discovery.system`).
    """

    packages: dict[str, str] = field(default_factory=dict)
    compiler: str = "clang"
    compiler_version: str = "19.0"

    def find(self, name: str) -> str | None:
        # CMake package lookup is case-sensitive in principle, case-chaotic in
        # practice; we match case-insensitively like most find modules do.
        for pkg, version in self.packages.items():
            if pkg.lower() == name.lower():
                return version
        return None


class ConfigureError(RuntimeError):
    """Raised for missing REQUIRED packages, bad options, FATAL_ERROR, etc."""


class _Interpreter:
    def __init__(self, tree: SourceTree, cache: dict[str, str],
                 env: BuildEnvironment, build_dir: str):
        self.tree = tree
        self.cache = dict(cache)
        self.env = env
        self.build_dir = build_dir.rstrip("/")
        self.variables: dict[str, str] = {
            "CMAKE_BINARY_DIR": self.build_dir,
            "CMAKE_SOURCE_DIR": "",
            "CMAKE_C_COMPILER_ID": env.compiler,
            "CMAKE_SYSTEM_PROCESSOR": "x86_64",
        }
        self.options: dict[str, OptionSpec] = {}
        self.targets: dict[str, Target] = {}
        self.global_definitions: list[str] = []
        self.global_options: list[str] = []
        self.global_includes: list[str] = []
        self.generated: dict[str, str] = {}
        self.dependencies: list[str] = []
        self.messages: list[str] = []
        self.project_name = "project"

    # -- variable handling -----------------------------------------------------

    def _get(self, name: str) -> str:
        if name in self.cache:
            return self.cache[name]
        return self.variables.get(name, "")

    def expand(self, text: str) -> str:
        """Expand ``${VAR}`` references (innermost-first, bounded)."""
        for _ in range(16):
            m = re.search(r"\$\{([A-Za-z0-9_.]+)\}", text)
            if not m:
                return text
            text = text[:m.start()] + self._get(m.group(1)) + text[m.end():]
        return text

    def _expand_args(self, cmd: Command) -> list[str]:
        out: list[str] = []
        for arg, quoted in cmd.arg_pairs():
            expanded = self.expand(arg)
            if quoted:
                out.append(expanded)
            else:
                # Unquoted expansion splits on semicolons (CMake list semantics).
                out.extend(p for p in expanded.split(";") if p != "")
        return out

    # -- main loop ------------------------------------------------------------------

    def run(self, commands: list[Command], filename: str) -> None:
        self._exec_block(commands, 0, len(commands), filename)

    def _exec_block(self, commands: list[Command], start: int, end: int,
                    filename: str) -> None:
        i = start
        while i < end:
            cmd = commands[i]
            if cmd.name == "if":
                i = self._exec_if(commands, i, end, filename)
            elif cmd.name == "foreach":
                i = self._exec_foreach(commands, i, end, filename)
            elif cmd.name in ("else", "elseif", "endif", "endforeach"):
                raise BuildScriptError(f"{filename}:{cmd.line}: stray {cmd.name}()")
            else:
                self._dispatch(cmd, filename)
                i += 1

    def _find_block_end(self, commands: list[Command], start: int, end: int,
                        open_name: str, close_name: str, filename: str) -> int:
        depth = 0
        for i in range(start, end):
            if commands[i].name == open_name:
                depth += 1
            elif commands[i].name == close_name:
                depth -= 1
                if depth == 0:
                    return i
        raise BuildScriptError(
            f"{filename}:{commands[start].line}: missing {close_name}() for {open_name}()")

    def _exec_if(self, commands: list[Command], start: int, end: int,
                 filename: str) -> int:
        endif = self._find_block_end(commands, start, end, "if", "endif", filename)
        # Collect branch boundaries at depth 1.
        branches: list[tuple[Command, int]] = [(commands[start], start)]
        depth = 0
        for i in range(start, endif):
            name = commands[i].name
            if name in ("if", "foreach"):
                depth += 1
            elif name in ("endif", "endforeach"):
                depth -= 1
            elif name in ("elseif", "else") and depth == 1:
                branches.append((commands[i], i))
        branches.append((commands[endif], endif))
        for (branch_cmd, branch_start), (_, branch_end) in zip(branches, branches[1:]):
            if branch_cmd.name == "else":
                taken = True
            else:
                taken = self._eval_condition(self._expand_args_for_condition(branch_cmd),
                                             filename, branch_cmd.line)
            if taken:
                self._exec_block(commands, branch_start + 1, branch_end, filename)
                break
        return endif + 1

    def _expand_args_for_condition(self, cmd: Command) -> list[tuple[str, bool]]:
        # In conditions, bare words may be variable references; keep both the
        # raw and expanded forms so the evaluator can do CMake's auto-deref.
        return [(arg, quoted) for arg, quoted in cmd.arg_pairs()]

    def _exec_foreach(self, commands: list[Command], start: int, end: int,
                      filename: str) -> int:
        endfe = self._find_block_end(commands, start, end, "foreach", "endforeach", filename)
        args = self._expand_args(commands[start])
        if not args:
            raise BuildScriptError(f"{filename}:{commands[start].line}: foreach needs a variable")
        var, items = args[0], args[1:]
        saved = self.variables.get(var)
        for item in items:
            self.variables[var] = item
            self._exec_block(commands, start + 1, endfe, filename)
        if saved is None:
            self.variables.pop(var, None)
        else:
            self.variables[var] = saved
        return endfe + 1

    # -- condition evaluation -----------------------------------------------------------

    def _eval_condition(self, parts: list[tuple[str, bool]], filename: str,
                        line: int) -> bool:
        tokens = [(self.expand(raw), raw, quoted) for raw, quoted in parts]
        return _ConditionParser(tokens, self, filename, line).parse()

    def _deref(self, expanded: str, raw: str, quoted: bool) -> str:
        """CMake auto-dereference: a bare word naming a variable reads it."""
        if quoted or "${" in raw:
            return expanded
        if expanded in self.cache or expanded in self.variables:
            return self._get(expanded)
        return expanded

    # -- command dispatch -------------------------------------------------------------------

    def _dispatch(self, cmd: Command, filename: str) -> None:
        handler = getattr(self, f"_cmd_{cmd.name}", None)
        if handler is not None:
            handler(cmd, filename)
            return
        if cmd.name.endswith("option_multichoice"):
            self._multichoice(cmd, filename)
            return
        if cmd.name.endswith("dependent_option"):
            self._dependent_option(cmd, filename)
            return
        # Unknown commands are tolerated (real CMake projects call dozens of
        # helper macros the pipeline never needs to understand).
        self.messages.append(f"ignored: {cmd.name}")

    def _cmd_cmake_minimum_required(self, cmd: Command, filename: str) -> None:
        pass

    def _cmd_project(self, cmd: Command, filename: str) -> None:
        args = self._expand_args(cmd)
        if args:
            self.project_name = args[0]
            self.variables["PROJECT_NAME"] = args[0]

    def _cmd_option(self, cmd: Command, filename: str) -> None:
        args = self._expand_args(cmd)
        if not args:
            raise BuildScriptError(f"{filename}:{cmd.line}: option() needs a name")
        name = args[0]
        doc = args[1] if len(args) > 1 else ""
        default = args[2] if len(args) > 2 else "OFF"
        self.options[name] = OptionSpec(name, "bool", default, doc)
        if name not in self.cache:
            self.variables.setdefault(name, default)

    def _multichoice(self, cmd: Command, filename: str) -> None:
        args = self._expand_args(cmd)
        if len(args) < 3:
            raise BuildScriptError(
                f"{filename}:{cmd.line}: {cmd.name}() needs NAME DOC DEFAULT CHOICES...")
        name, doc, default = args[0], args[1], args[2]
        choices = tuple(args[2:])  # default is also a valid choice
        self.options[name] = OptionSpec(name, "multichoice", default, doc, choices)
        value = self.cache.get(name, self.variables.get(name, default))
        if value not in choices and value != default:
            raise ConfigureError(
                f"{name}={value!r} is not one of the allowed choices {list(choices)}")
        self.variables.setdefault(name, default)

    def _dependent_option(self, cmd: Command, filename: str) -> None:
        # <prefix>_dependent_option(NAME DOC DEFAULT DEPENDS_ON)
        args = self._expand_args(cmd)
        if len(args) < 4:
            raise BuildScriptError(f"{filename}:{cmd.line}: dependent option needs 4 args")
        name, doc, default, depends = args[0], args[1], args[2], args[3]
        self.options[name] = OptionSpec(name, "bool", default, f"{doc} (requires {depends})")
        enabled = is_truthy(self._get(depends))
        if name not in self.cache:
            self.variables.setdefault(name, default if enabled else "OFF")
        elif is_truthy(self.cache[name]) and not enabled:
            raise ConfigureError(f"option {name} requires {depends}")

    def _cmd_set(self, cmd: Command, filename: str) -> None:
        args = self._expand_args(cmd)
        if not args:
            raise BuildScriptError(f"{filename}:{cmd.line}: set() needs a variable")
        name = args[0]
        values = [a for a in args[1:] if a not in ("CACHE", "STRING", "BOOL", "FORCE", "INTERNAL", "PARENT_SCOPE")]
        if not values:
            self.variables.pop(name, None)
        else:
            self.variables[name] = ";".join(values)

    def _cmd_list(self, cmd: Command, filename: str) -> None:
        args = self._expand_args(cmd)
        if len(args) < 2:
            raise BuildScriptError(f"{filename}:{cmd.line}: malformed list()")
        action, var = args[0].upper(), args[1]
        current = [v for v in self._get(var).split(";") if v]
        if action == "APPEND":
            current.extend(args[2:])
        elif action == "REMOVE_ITEM":
            current = [v for v in current if v not in args[2:]]
        else:
            raise BuildScriptError(f"{filename}:{cmd.line}: unsupported list({action})")
        self.variables[var] = ";".join(current)

    def _cmd_math(self, cmd: Command, filename: str) -> None:
        args = self._expand_args(cmd)
        if len(args) != 3 or args[0].upper() != "EXPR":
            raise BuildScriptError(f"{filename}:{cmd.line}: math(EXPR var expr)")
        from repro.util.exprs import eval_expr
        self.variables[args[1]] = str(int(eval_expr(args[2], {})))

    def _cmd_message(self, cmd: Command, filename: str) -> None:
        args = self._expand_args(cmd)
        level = "STATUS"
        if args and args[0] in ("STATUS", "WARNING", "FATAL_ERROR", "AUTHOR_WARNING", "NOTICE"):
            level = args[0]
            args = args[1:]
        text = " ".join(args)
        self.messages.append(f"{level}: {text}")
        if level == "FATAL_ERROR":
            raise ConfigureError(text)

    def _cmd_include(self, cmd: Command, filename: str) -> None:
        args = self._expand_args(cmd)
        if not args:
            return
        path = args[0]
        if not self.tree.exists(path):
            if "OPTIONAL" in args:
                return
            raise ConfigureError(f"include({path}): file not found")
        self.run(parse_script(self.tree.read(path), path), path)

    def _cmd_find_package(self, cmd: Command, filename: str) -> None:
        args = self._expand_args(cmd)
        if not args:
            raise BuildScriptError(f"{filename}:{cmd.line}: find_package() needs a name")
        name = args[0]
        required = "REQUIRED" in args
        min_version = None
        if len(args) > 1 and re.fullmatch(r"[\d.]+", args[1]):
            min_version = args[1]
        version = self.env.find(name)
        if version is not None and min_version is not None \
                and _version_tuple(version) < _version_tuple(min_version):
            version = None
        if version is None:
            self.variables[f"{name}_FOUND"] = "FALSE"
            self.variables[f"{name}_VERSION"] = ""
            if required:
                raise ConfigureError(
                    f"find_package({name}{' ' + min_version if min_version else ''} REQUIRED)"
                    f" failed: package not available on this system")
            return
        self.variables[f"{name}_FOUND"] = "TRUE"
        self.variables[f"{name}_VERSION"] = version
        self.dependencies.append(name)

    def _cmd_add_definitions(self, cmd: Command, filename: str) -> None:
        self.global_definitions.extend(self._expand_args(cmd))

    def _cmd_add_compile_definitions(self, cmd: Command, filename: str) -> None:
        self.global_definitions.extend(
            a if a.startswith("-D") else f"-D{a}" for a in self._expand_args(cmd))

    def _cmd_add_compile_options(self, cmd: Command, filename: str) -> None:
        self.global_options.extend(self._expand_args(cmd))

    def _cmd_include_directories(self, cmd: Command, filename: str) -> None:
        self.global_includes.extend(self._expand_args(cmd))

    def _cmd_add_library(self, cmd: Command, filename: str) -> None:
        self._add_target(cmd, "library", filename)

    def _cmd_add_executable(self, cmd: Command, filename: str) -> None:
        self._add_target(cmd, "executable", filename)

    def _add_target(self, cmd: Command, kind: str, filename: str) -> None:
        args = self._expand_args(cmd)
        if not args:
            raise BuildScriptError(f"{filename}:{cmd.line}: target needs a name")
        name = args[0]
        sources = [a for a in args[1:] if a not in ("STATIC", "SHARED", "OBJECT", "INTERFACE")]
        if name in self.targets:
            raise ConfigureError(f"duplicate target {name!r}")
        self.targets[name] = Target(name, kind, sources)

    def _target_cmd(self, cmd: Command, filename: str, attr: str,
                    transform=lambda a: a) -> None:
        args = self._expand_args(cmd)
        if not args:
            raise BuildScriptError(f"{filename}:{cmd.line}: {cmd.name} needs a target")
        name = args[0]
        if name not in self.targets:
            raise ConfigureError(f"{cmd.name}: unknown target {name!r}")
        values = [transform(a) for a in args[1:]
                  if a not in ("PRIVATE", "PUBLIC", "INTERFACE")]
        getattr(self.targets[name], attr).extend(values)

    def _cmd_target_compile_definitions(self, cmd: Command, filename: str) -> None:
        self._target_cmd(cmd, filename, "compile_definitions",
                         lambda a: a if a.startswith("-D") else f"-D{a}")

    def _cmd_target_compile_options(self, cmd: Command, filename: str) -> None:
        self._target_cmd(cmd, filename, "compile_options")

    def _cmd_target_include_directories(self, cmd: Command, filename: str) -> None:
        self._target_cmd(cmd, filename, "include_dirs")

    def _cmd_target_link_libraries(self, cmd: Command, filename: str) -> None:
        self._target_cmd(cmd, filename, "link_libraries")

    def _cmd_target_sources(self, cmd: Command, filename: str) -> None:
        self._target_cmd(cmd, filename, "sources")

    def _cmd_configure_file(self, cmd: Command, filename: str) -> None:
        args = self._expand_args(cmd)
        if len(args) < 2:
            raise BuildScriptError(f"{filename}:{cmd.line}: configure_file(in out)")
        template = self.tree.read(args[0])
        self.generated[args[1]] = self._substitute_template(template)

    def _substitute_template(self, template: str) -> str:
        out_lines = []
        for line in template.split("\n"):
            m = re.match(r"\s*#\s*cmakedefine01\s+(\w+)", line)
            if m:
                value = "1" if is_truthy(self._get(m.group(1))) else "0"
                out_lines.append(f"#define {m.group(1)} {value}")
                continue
            m = re.match(r"\s*#\s*cmakedefine\s+(\w+)(.*)", line)
            if m:
                name, rest = m.group(1), m.group(2).strip()
                if is_truthy(self._get(name)):
                    value = self.expand(rest.replace(f"@{name}@", self._get(name))) if rest else ""
                    value = re.sub(r"@(\w+)@", lambda mm: self._get(mm.group(1)), value)
                    out_lines.append(f"#define {name}{(' ' + value) if value else ''}")
                else:
                    out_lines.append(f"/* #undef {name} */")
                continue
            out_lines.append(re.sub(r"@(\w+)@", lambda mm: self._get(mm.group(1)), line))
        return "\n".join(out_lines)

    # -- compile-commands generation ---------------------------------------------------------------

    def emit_configuration(self, name: str) -> BuildConfiguration:
        commands: list[CompileCommand] = []
        for target in self.targets.values():
            flags: list[str] = []
            flags.extend(self.global_options)
            flags.extend(self.global_definitions)
            flags.extend(target.compile_options)
            flags.extend(target.compile_definitions)
            # Build-directory include first (generated config headers), then
            # project include dirs. The per-configuration build path is what
            # makes raw flag comparison fail across configurations (Sec 6.4).
            flags.append(f"-I{self.build_dir}/include")
            for inc in self.global_includes + target.include_dirs:
                flags.append(f"-I{inc}")
            for source in target.sources:
                commands.append(CompileCommand(
                    target=target.name,
                    source=source,
                    flags=tuple(flags),
                    directory=self.build_dir,
                ))
        return BuildConfiguration(
            name=name,
            options=dict(self.cache),
            targets=dict(self.targets),
            compile_commands=commands,
            generated_files=dict(self.generated),
            build_dir=self.build_dir,
            dependencies=list(self.dependencies),
            messages=list(self.messages),
        )


class _ConditionParser:
    """Evaluates if() conditions: OR < AND < NOT < comparisons < truthiness."""

    def __init__(self, tokens: list[tuple[str, str, bool]], interp: _Interpreter,
                 filename: str, line: int):
        self.tokens = tokens
        self.interp = interp
        self.where = f"{filename}:{line}"
        self.pos = 0

    def parse(self) -> bool:
        value = self._or()
        if self.pos != len(self.tokens):
            raise BuildScriptError(f"{self.where}: trailing condition tokens")
        return value

    def _peek_word(self) -> str | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def _or(self) -> bool:
        value = self._and()
        while self._peek_word() == "OR":
            self.pos += 1
            rhs = self._and()
            value = value or rhs
        return value

    def _and(self) -> bool:
        value = self._not()
        while self._peek_word() == "AND":
            self.pos += 1
            rhs = self._not()
            value = value and rhs
        return value

    def _not(self) -> bool:
        if self._peek_word() == "NOT":
            self.pos += 1
            return not self._not()
        return self._primary()

    _BINARY = {
        "STREQUAL": lambda a, b: a == b,
        "MATCHES": lambda a, b: re.search(b, a) is not None,
        "EQUAL": lambda a, b: _as_int(a) == _as_int(b),
        "GREATER": lambda a, b: _as_int(a) > _as_int(b),
        "LESS": lambda a, b: _as_int(a) < _as_int(b),
        "GREATER_EQUAL": lambda a, b: _as_int(a) >= _as_int(b),
        "LESS_EQUAL": lambda a, b: _as_int(a) <= _as_int(b),
        "VERSION_LESS": lambda a, b: _version_tuple(a) < _version_tuple(b),
        "VERSION_GREATER": lambda a, b: _version_tuple(a) > _version_tuple(b),
        "VERSION_GREATER_EQUAL": lambda a, b: _version_tuple(a) >= _version_tuple(b),
        "VERSION_LESS_EQUAL": lambda a, b: _version_tuple(a) <= _version_tuple(b),
        "VERSION_EQUAL": lambda a, b: _version_tuple(a) == _version_tuple(b),
    }

    def _primary(self) -> bool:
        if self.pos >= len(self.tokens):
            raise BuildScriptError(f"{self.where}: empty condition")
        expanded, raw, quoted = self.tokens[self.pos]
        if expanded == "DEFINED":
            self.pos += 1
            if self.pos >= len(self.tokens):
                raise BuildScriptError(f"{self.where}: DEFINED needs a variable")
            name = self.tokens[self.pos][0]
            self.pos += 1
            return name in self.interp.cache or name in self.interp.variables
        self.pos += 1
        if self.pos < len(self.tokens) and self.tokens[self.pos][0] in self._BINARY:
            op = self.tokens[self.pos][0]
            self.pos += 1
            if self.pos >= len(self.tokens):
                raise BuildScriptError(f"{self.where}: {op} needs a right operand")
            rhs_exp, rhs_raw, rhs_quoted = self.tokens[self.pos]
            self.pos += 1
            lhs = self.interp._deref(expanded, raw, quoted)
            rhs = self.interp._deref(rhs_exp, rhs_raw, rhs_quoted)
            return self._BINARY[op](lhs, rhs)
        # Boolean context: CMake treats a bare word as a variable reference;
        # an *undefined* variable is false, not a truthy string.
        if not quoted and "${" not in raw:
            if expanded in self.interp.cache or expanded in self.interp.variables:
                return is_truthy(self.interp._get(expanded))
            return is_truthy(expanded) and expanded.lower() in ("on", "true", "yes", "y") \
                or expanded.isdigit() and int(expanded) != 0
        return is_truthy(expanded)


def _as_int(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        return 0


def _version_tuple(version: str) -> tuple[int, ...]:
    parts = []
    for piece in version.split("."):
        m = re.match(r"\d+", piece)
        parts.append(int(m.group(0)) if m else 0)
    return tuple(parts) or (0,)


def configure(tree: SourceTree, cache: dict[str, str] | None = None,
              env: BuildEnvironment | None = None, name: str = "default",
              build_dir: str | None = None,
              script: str = "CMakeLists.txt") -> BuildConfiguration:
    """Configure a project: evaluate its build script with the given options.

    ``build_dir`` defaults to ``/build/<name>`` so that different
    configurations get different (and therefore flag-visible) build paths,
    which reproduces the paper's observation about per-configuration include
    paths. The paper's pipeline mounts build dirs at a *fixed* path inside the
    build container — pass an explicit ``build_dir`` to model that.
    """
    interp = _Interpreter(tree, cache or {}, env or BuildEnvironment(),
                          build_dir or f"/build/{name}")
    interp.run(parse_script(tree.read(script), script), script)
    return interp.emit_configuration(name)


def configure_cached(tree: SourceTree, requests, cache,
                     env: BuildEnvironment | None = None,
                     build_dir: str | None = None,
                     script: str = "CMakeLists.txt"
                     ) -> list[tuple[BuildConfiguration, bool]]:
    """Cache-aware configure of a batch: ``(configuration, freshly
    configured)`` per ``(options, name)`` request, in order.

    The cache key covers the source tree, the option values, the package
    environment, and the build-dir path (per-configuration include paths
    make the path flag-visible). ``cache`` is an
    :class:`~repro.containers.store.ArtifactCache` (duck-typed, like the
    compiler's cached wrappers); entries are payload-only artifacts —
    :func:`~repro.buildsys.model.configuration_from_payload` rebuilds the
    targets and compile-commands database when the hit comes from a
    persistent store another process warmed, so a warm rebuild never runs
    the build-script interpreter at all. Each request names a distinct
    configuration; the misses are published with one ``cache.put_many``:
    one index save per batch.
    """
    env = env or BuildEnvironment()
    tree_digest = tree.fingerprint()
    results, misses = [], []
    for options, name in requests:
        parts = {
            "tree": tree_digest,
            "opts": dict(options),
            "env": {"pkgs": dict(env.packages), "cc": env.compiler,
                    "ccv": env.compiler_version},
            "name": name, "bd": build_dir, "script": script,
        }
        entry = cache.get("configure", parts)
        if entry is None:
            cfg = configure(tree, options, env=env, name=name,
                            build_dir=build_dir, script=script)
            misses.append((parts, configuration_to_payload(cfg), cfg))
        else:
            cfg = entry.obj if entry.obj is not None \
                else configuration_from_payload(entry.payload)
        results.append((cfg, entry is None))
    cache.put_many("configure", misses)
    return results


def declared_options(tree: SourceTree, env: BuildEnvironment | None = None,
                     script: str = "CMakeLists.txt") -> dict[str, OptionSpec]:
    """Extract every option the build script declares (the discovery ground truth).

    Runs the script with defaults; options declared inside non-default
    branches are found by a breadth pass over raw commands as a fallback, so
    the ground truth includes conditionally-declared options too.
    """
    interp = _Interpreter(tree, {}, env or BuildEnvironment(), "/build/discovery")
    commands = parse_script(tree.read(script), script)
    try:
        interp.run(commands, script)
    except ConfigureError:
        pass  # defaults may fail on missing packages; option records survive
    # Fallback sweep for options in branches the default run skipped.
    for cmd in _walk_all_commands(tree, commands, depth=0):
        if cmd.name == "option" and len(cmd.args) >= 1:
            name = cmd.args[0]
            if name not in interp.options and "${" not in name:
                doc = cmd.args[1] if len(cmd.args) > 1 else ""
                default = cmd.args[2] if len(cmd.args) > 2 else "OFF"
                interp.options[name] = OptionSpec(name, "bool", default, doc)
        elif cmd.name.endswith("option_multichoice") and len(cmd.args) >= 3:
            name = cmd.args[0]
            if name not in interp.options and "${" not in name:
                interp.options[name] = OptionSpec(
                    name, "multichoice", cmd.args[2], cmd.args[1], tuple(cmd.args[2:]))
    return dict(interp.options)


def _walk_all_commands(tree: SourceTree, commands: list[Command], depth: int):
    if depth > 8:
        return
    for cmd in commands:
        yield cmd
        if cmd.name == "include" and cmd.args and tree.exists(cmd.args[0]):
            yield from _walk_all_commands(
                tree, parse_script(tree.read(cmd.args[0]), cmd.args[0]), depth + 1)
