"""Structured intermediate representation (IR) for the XaaS pipeline.

This is our analog of the LLVM IR the paper stores inside IR containers.  Two
properties matter for the reproduction:

1. **Target independence** — the IR depends on the preprocessed source and on
   frontend-relevant flags (``-D``, ``-fopenmp``) but *not* on ``-m<isa>`` or
   ``-O`` flags, which are consumed later by :mod:`repro.compiler.lowering`.
   This is the property that lets the IR-container pipeline drop
   vectorization flags when comparing configurations (Sec. 4.3).
2. **Canonical fingerprinting** — :meth:`Module.fingerprint` renders the IR
   to a canonical text (virtual registers renumbered, deterministic field
   order) and hashes it, giving the dedup pipeline its identity notion.
3. **Serializability** — :func:`parse_module` is the inverse of
   :meth:`Module.render`: the canonical text is a complete serialization,
   so a cold process can reconstruct a live module from a persistent
   artifact store (:mod:`repro.store`) without re-running the frontend.
   Renumbering preserves *name classes* (frontend temporaries keep their
   ``.`` prefix, globals their ``@``) because the optimizer and the
   vectorization legality analysis treat the classes differently — a
   parsed module must fold, DCE and vectorize exactly like the original.

Unlike LLVM we keep *structured* control flow (regions with ``for``/``if``
ops, in the spirit of MLIR's ``scf`` dialect) instead of a flat CFG: loop
structure is what the deployment-time vectorizer and the performance model
consume, and a region IR keeps those analyses honest and simple.
"""

from __future__ import annotations

import ast
import threading
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.util.hashing import content_digest

# -- types -------------------------------------------------------------------

SCALAR_TYPES = ("i1", "i8", "i32", "i64", "f32", "f64", "void")


def is_float_type(t: str) -> bool:
    return t.startswith("f")


def type_bits(t: str) -> int:
    if t.startswith("ptr"):
        return 64
    return {"i1": 1, "i8": 8, "i32": 32, "i64": 64, "f32": 32, "f64": 64, "void": 0}[t]


def pointer_to(elem: str) -> str:
    return f"ptr.{elem}"


def pointee(t: str) -> str:
    if not t.startswith("ptr."):
        raise ValueError(f"{t} is not a pointer type")
    return t[len("ptr."):]


# -- values -------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    """An immediate operand."""

    value: Union[int, float]
    type: str

    def render(self, names: dict[str, str]) -> str:
        if is_float_type(self.type):
            return f"{self.type} {float(self.value)!r}"
        return f"{self.type} {int(self.value)}"


@dataclass(frozen=True)
class Ref:
    """A reference to a virtual register (temporary or named variable)."""

    name: str
    type: str

    def render(self, names: dict[str, str]) -> str:
        return f"{self.type} %{names.get(self.name, self.name)}"


Value = Union[Const, Ref]


# -- operations -----------------------------------------------------------------

class Op:
    """Base class for region items."""

    def operands(self) -> Iterator[Value]:
        return iter(())

    def regions(self) -> Iterator["Region"]:
        return iter(())


@dataclass
class Instr(Op):
    """Three-address instruction: ``dest = op(operands)``.

    ``op`` names follow an LLVM-ish convention with the type suffixed:
    ``add.f64``, ``mul.i32``, ``cmp.lt.f64``, ``cast.sitofp``, ``neg.f64``,
    ``not.i1``.
    """

    op: str
    dest: Optional[str]
    args: list[Value]
    type: str

    def operands(self):
        yield from self.args


@dataclass
class LoadOp(Op):
    """``dest = load base[index]``."""

    dest: str
    base: Ref
    index: Value
    type: str  # element type loaded

    def operands(self):
        yield self.base
        yield self.index


@dataclass
class StoreOp(Op):
    """``store base[index] = value``."""

    base: Ref
    index: Value
    value: Value
    type: str

    def operands(self):
        yield self.base
        yield self.index
        yield self.value


@dataclass
class CallOp(Op):
    """``dest = call callee(args)``; dest None for void calls."""

    dest: Optional[str]
    callee: str
    args: list[Value]
    type: str

    def operands(self):
        yield from self.args


@dataclass
class Region:
    """An ordered list of operations (a structured block)."""

    ops: list[Op] = field(default_factory=list)

    def walk(self) -> Iterator[Op]:
        for op in self.ops:
            yield op
            for region in op.regions():
                yield from region.walk()


@dataclass
class ForOp(Op):
    """Counted loop: ``for var = start; var < bound; var += step``.

    ``attrs`` carries the pipeline metadata:

    * ``omp_parallel`` — lowered from ``#pragma omp parallel for`` under
      ``-fopenmp``;
    * ``omp_reductions`` — reduction variables from the pragma clause;
    * ``vectorizable`` / ``vector_reductions`` / ``gather`` — set by the
      legality analysis in :mod:`repro.compiler.passes`;
    * ``vector_width`` — set at lowering time once the ISA is known;
    * ``bound_src`` — source-level text of the bound expression, used by the
      performance model to resolve symbolic trip counts.
    """

    var: str
    start: Value
    bound: Value
    step: Value
    body: Region
    attrs: dict = field(default_factory=dict)

    def operands(self):
        yield self.start
        yield self.bound
        yield self.step

    def regions(self):
        yield self.body


@dataclass
class WhileOp(Op):
    """General loop: re-evaluate ``cond_region`` ending in ``cond``; run body while true."""

    cond_region: Region
    cond: Value
    body: Region

    def operands(self):
        yield self.cond

    def regions(self):
        yield self.cond_region
        yield self.body


@dataclass
class IfOp(Op):
    cond: Value
    then: Region
    orelse: Region = field(default_factory=Region)

    def operands(self):
        yield self.cond

    def regions(self):
        yield self.then
        yield self.orelse


@dataclass
class ReturnOp(Op):
    value: Optional[Value] = None

    def operands(self):
        if self.value is not None:
            yield self.value


@dataclass
class BreakOp(Op):
    pass


@dataclass
class ContinueOp(Op):
    pass


# -- functions & modules -----------------------------------------------------------

@dataclass
class Function:
    name: str
    params: list[tuple[str, str]]  # (name, ir type)
    ret_type: str
    body: Region
    attrs: dict = field(default_factory=dict)

    def walk(self) -> Iterator[Op]:
        yield from self.body.walk()

    def loops(self) -> Iterator[ForOp]:
        for op in self.walk():
            if isinstance(op, ForOp):
                yield op


@dataclass
class GlobalVar:
    name: str
    type: str
    init: Optional[Union[int, float]] = None


@dataclass
class Module:
    """A translation unit in IR form."""

    name: str
    functions: list[Function] = field(default_factory=list)
    globals: list[GlobalVar] = field(default_factory=list)
    # Frontend-relevant compilation context recorded for provenance; the
    # canonical render (and therefore the fingerprint) includes it because two
    # IRs built with different frontend flags are distinct artifacts even if
    # their code happens to coincide textually.
    frontend_flags: tuple[str, ...] = ()

    def function(self, name: str) -> Function:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"module {self.name}: no function {name!r}")

    def render(self) -> str:
        """Canonical textual form; temporaries renumbered deterministically."""
        out: list[str] = [f"module @{self.name}"]
        if self.frontend_flags:
            out.append(f"; flags: {' '.join(self.frontend_flags)}")
        for g in self.globals:
            init = "" if g.init is None else f" = {g.init!r}"
            out.append(f"global @{g.name} : {g.type}{init}")
        for fn in self.functions:
            out.extend(_render_function(fn))
        return "\n".join(out) + "\n"

    def fingerprint(self) -> str:
        """Content digest of the canonical form — the dedup identity."""
        return content_digest(self.render())

    def clone(self) -> "Module":
        """A copy that in-place passes may rewrite without touching this
        module: functions, globals, regions, ops, operand lists and
        ``attrs`` dicts are new; the frozen :class:`Const` and :class:`Ref`
        operands are shared."""
        return Module(
            self.name,
            [Function(fn.name, list(fn.params), fn.ret_type,
                      _clone_region(fn.body), dict(fn.attrs))
             for fn in self.functions],
            [GlobalVar(g.name, g.type, g.init) for g in self.globals],
            self.frontend_flags)


def frontend_flags_of(ir_text: str) -> list[str]:
    """Read the recorded frontend flags back out of a canonical IR text.

    Inverse of the ``; flags:`` comment :meth:`Module.render` emits: tools
    inspecting an IR container's layers recover the compilation context
    without the live module objects.
    """
    for line in ir_text.splitlines():
        if line.startswith("; flags: "):
            return line[len("; flags: "):].split()
        if not line.startswith(("module", ";")):
            break
    return []


# -- cloning ------------------------------------------------------------------------


def _clone_region(region: Region) -> Region:
    return Region([_CLONE_OP[type(op)](op) for op in region.ops])


#: One structural copy per op class (see :meth:`Module.clone`).
_CLONE_OP = {
    Instr: lambda op: Instr(op.op, op.dest, list(op.args), op.type),
    LoadOp: lambda op: LoadOp(op.dest, op.base, op.index, op.type),
    StoreOp: lambda op: StoreOp(op.base, op.index, op.value, op.type),
    CallOp: lambda op: CallOp(op.dest, op.callee, list(op.args), op.type),
    ForOp: lambda op: ForOp(op.var, op.start, op.bound, op.step,
                            _clone_region(op.body), dict(op.attrs)),
    WhileOp: lambda op: WhileOp(_clone_region(op.cond_region), op.cond,
                                _clone_region(op.body)),
    IfOp: lambda op: IfOp(op.cond, _clone_region(op.then),
                          _clone_region(op.orelse)),
    ReturnOp: lambda op: ReturnOp(op.value),
    BreakOp: lambda op: BreakOp(),
    ContinueOp: lambda op: ContinueOp(),
}


# -- rendering ----------------------------------------------------------------------

#: ForOp attributes included in the canonical render (all set by the
#: frontend; deployment-time vectorization attrs are excluded on purpose).
_SEMANTIC_FOR_ATTRS = ("bound_src", "omp_parallel", "omp_reductions",
                       "omp_simd", "start_src")


def _render_function(fn: Function) -> list[str]:
    names: dict[str, str] = {}
    counter = [0]

    def canon(name: str) -> str:
        # Globals stay verbatim; temporaries keep their '.' class marker.
        # The optimizer folds/DCEs only '.'-temps and the vectorizer's
        # scalar-write classification keys on the same distinction, so the
        # canonical text must preserve which class each register is in for
        # parse_module() to reconstruct a faithfully-optimizable module.
        if name.startswith("@"):
            return name
        if name not in names:
            prefix = "." if name.startswith(".") else ""
            names[name] = f"{prefix}v{counter[0]}"
            counter[0] += 1
        return names[name]

    for pname, _ in fn.params:
        canon(pname)

    lines = []
    params = ", ".join(f"%{canon(p)}: {t}" for p, t in fn.params)
    attrs = ""
    if fn.attrs:
        attrs = " attrs{" + ", ".join(f"{k}={fn.attrs[k]!r}" for k in sorted(fn.attrs)) + "}"
    lines.append(f"func @{fn.name}({params}) -> {fn.ret_type}{attrs} {{")
    lines.extend(_render_region(fn.body, canon, names, indent=1))
    lines.append("}")
    return lines


def _render_value(value: Value, canon, names) -> str:
    if isinstance(value, Ref):
        canon(value.name)
    return value.render(names)


def _render_region(region: Region, canon, names, indent: int) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    for op in region.ops:
        if isinstance(op, Instr):
            args = ", ".join(_render_value(a, canon, names) for a in op.args)
            if op.dest is None:
                lines.append(f"{pad}{op.op} {args}")
            else:
                lines.append(f"{pad}%{canon(op.dest)} = {op.op} {args} : {op.type}")
        elif isinstance(op, LoadOp):
            base = _render_value(op.base, canon, names)
            idx = _render_value(op.index, canon, names)
            lines.append(f"{pad}%{canon(op.dest)} = load {base}[{idx}] : {op.type}")
        elif isinstance(op, StoreOp):
            base = _render_value(op.base, canon, names)
            idx = _render_value(op.index, canon, names)
            val = _render_value(op.value, canon, names)
            lines.append(f"{pad}store {base}[{idx}], {val} : {op.type}")
        elif isinstance(op, CallOp):
            args = ", ".join(_render_value(a, canon, names) for a in op.args)
            if op.dest is None:
                lines.append(f"{pad}call @{op.callee}({args}) : {op.type}")
            else:
                lines.append(f"{pad}%{canon(op.dest)} = call @{op.callee}({args}) : {op.type}")
        elif isinstance(op, ForOp):
            start = _render_value(op.start, canon, names)
            bound = _render_value(op.bound, canon, names)
            step = _render_value(op.step, canon, names)
            attrs = ""
            # Frontend-semantic attributes only: they exist before any
            # deployment-time pass runs, so they belong to the IR identity
            # (and must survive a render/parse round trip — the perf model
            # resolves symbolic trip counts through bound_src/start_src).
            # Vectorization attributes are per-target deployment state and
            # deliberately stay out of the canonical form.
            semantic = {k: v for k, v in sorted(op.attrs.items())
                        if k in _SEMANTIC_FOR_ATTRS}
            if semantic:
                attrs = " attrs{" + ", ".join(f"{k}={v!r}" for k, v in semantic.items()) + "}"
            lines.append(f"{pad}for %{canon(op.var)} = {start} to {bound} step {step}{attrs} {{")
            lines.extend(_render_region(op.body, canon, names, indent + 1))
            lines.append(f"{pad}}}")
        elif isinstance(op, WhileOp):
            lines.append(f"{pad}while {{")
            lines.extend(_render_region(op.cond_region, canon, names, indent + 1))
            lines.append(f"{pad}}} cond {_render_value(op.cond, canon, names)} do {{")
            lines.extend(_render_region(op.body, canon, names, indent + 1))
            lines.append(f"{pad}}}")
        elif isinstance(op, IfOp):
            lines.append(f"{pad}if {_render_value(op.cond, canon, names)} {{")
            lines.extend(_render_region(op.then, canon, names, indent + 1))
            if op.orelse.ops:
                lines.append(f"{pad}}} else {{")
                lines.extend(_render_region(op.orelse, canon, names, indent + 1))
            lines.append(f"{pad}}}")
        elif isinstance(op, ReturnOp):
            if op.value is None:
                lines.append(f"{pad}return")
            else:
                lines.append(f"{pad}return {_render_value(op.value, canon, names)}")
        elif isinstance(op, BreakOp):
            lines.append(f"{pad}break")
        elif isinstance(op, ContinueOp):
            lines.append(f"{pad}continue")
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown op {type(op).__name__}")
    return lines


# -- parsing ------------------------------------------------------------------------


class IRParseError(ValueError):
    """Raised when a text is not well-formed canonical IR."""


def parse_module(text: str) -> Module:
    """Reconstruct a :class:`Module` from its canonical render.

    Inverse of :meth:`Module.render` — the round-trip property
    ``parse_module(m.render()).render() == m.render()`` holds for every
    module the frontend (or the optimizer) produces, which is what lets a
    persistent artifact store treat ``ir`` cache entries as payload-only
    blobs: a cold process parses the cached text instead of recompiling.
    """
    return _ModuleParser(text).parse()


def _parse_value(text: str) -> Value:
    """Parse ``<type> %name`` (Ref) or ``<type> <literal>`` (Const)."""
    typ, sep, rest = text.strip().partition(" ")
    if not sep:
        raise IRParseError(f"malformed value {text!r}")
    rest = rest.strip()
    if rest.startswith("%"):
        return Ref(rest[1:], typ)
    try:
        return Const(float(rest) if is_float_type(typ) else int(rest), typ)
    except ValueError:
        raise IRParseError(f"malformed constant {text!r}") from None


def _split_top_level(body: str) -> list[str]:
    """Split on commas outside quotes/brackets (attr dicts, value lists)."""
    parts: list[str] = []
    cur: list[str] = []
    depth = 0
    quote: str | None = None
    escaped = False
    for ch in body:
        if quote is not None:
            cur.append(ch)
            # Track escape state explicitly: in repr output, '\\' before a
            # quote is an escaped backslash, not an escaped quote.
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
            cur.append(ch)
        elif ch in "([{":
            depth += 1
            cur.append(ch)
        elif ch in ")]}":
            depth -= 1
            cur.append(ch)
        elif ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if "".join(cur).strip():
        parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


_LITERAL_LOCK = threading.Lock()


def _literal(text: str):
    """``ast.literal_eval`` one at a time: CPython 3.11's AST validator
    keeps its recursion depth in shared state, and two threads parsing IR
    at once can fail it with a ``SystemError``."""
    with _LITERAL_LOCK:
        return ast.literal_eval(text)


def _parse_attr_dict(body: str) -> dict:
    """Parse ``k=<repr>, ...`` as rendered for function and loop attrs."""
    attrs: dict = {}
    for item in _split_top_level(body):
        key, sep, value = item.partition("=")
        if not sep:
            raise IRParseError(f"malformed attribute {item!r}")
        try:
            attrs[key.strip()] = _literal(value.strip())
        except (ValueError, SyntaxError):
            raise IRParseError(f"unparseable attribute value {item!r}") from None
    return attrs


class _ModuleParser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def _fail(self, message: str) -> IRParseError:
        return IRParseError(f"line {self.pos}: {message}")

    # -- top level -------------------------------------------------------------

    def parse(self) -> Module:
        name: Optional[str] = None
        flags: tuple[str, ...] = ()
        globals_: list[GlobalVar] = []
        functions: list[Function] = []
        while self.pos < len(self.lines):
            line = self.lines[self.pos].strip()
            if not line:
                self.pos += 1
            elif line.startswith("module @"):
                name = line[len("module @"):]
                self.pos += 1
            elif line.startswith("; flags: "):
                flags = tuple(line[len("; flags: "):].split())
                self.pos += 1
            elif line.startswith(";"):
                self.pos += 1
            elif line.startswith("global @"):
                globals_.append(self._parse_global(line))
                self.pos += 1
            elif line.startswith("func @"):
                functions.append(self._parse_function(line))
            else:
                raise self._fail(f"unexpected top-level line {line!r}")
        if name is None:
            raise IRParseError("missing 'module @<name>' header")
        return Module(name, functions, globals_, flags)

    def _parse_global(self, line: str) -> GlobalVar:
        head, sep, init_text = line.partition(" = ")
        gname, tsep, gtype = head[len("global @"):].partition(" : ")
        if not tsep or not gname:
            raise self._fail(f"malformed global {line!r}")
        init: Optional[Union[int, float]] = None
        if sep:
            try:
                init = _literal(init_text)
            except (ValueError, SyntaxError):
                raise self._fail(f"malformed global initializer {line!r}") from None
        return GlobalVar(gname, gtype.strip(), init)

    def _parse_function(self, header: str) -> Function:
        if not header.endswith(" {"):
            raise self._fail(f"malformed function header {header!r}")
        sig = header[:-2]
        attrs: dict = {}
        if sig.endswith("}") and " attrs{" in sig:
            sig, attr_body = sig.rsplit(" attrs{", 1)
            attrs = _parse_attr_dict(attr_body[:-1])
        open_p = sig.find("(")
        close_p = sig.rfind(")")
        arrow = sig.rfind(" -> ")
        if open_p < 0 or close_p < open_p or arrow < close_p:
            raise self._fail(f"malformed function signature {sig!r}")
        fname = sig[len("func @"):open_p]
        params: list[tuple[str, str]] = []
        for part in _split_top_level(sig[open_p + 1:close_p]):
            pname, psep, ptype = part.partition(": ")
            if not psep or not pname.startswith("%"):
                raise self._fail(f"malformed parameter {part!r}")
            params.append((pname[1:], ptype.strip()))
        ret_type = sig[arrow + len(" -> "):].strip()
        self.pos += 1
        body, terminator = self._parse_region()
        if terminator != "}":
            raise self._fail(f"expected '}}' closing function, got {terminator!r}")
        return Function(fname, params, ret_type, body, attrs)

    # -- regions & ops ---------------------------------------------------------

    def _parse_region(self) -> tuple[Region, str]:
        """Parse ops until a closing line; returns (region, that line)."""
        ops: list[Op] = []
        while self.pos < len(self.lines):
            line = self.lines[self.pos].strip()
            self.pos += 1
            if not line or line.startswith(";"):
                continue
            if line.startswith("}"):
                return Region(ops), line
            ops.append(self._parse_op(line))
        raise IRParseError("unterminated region (missing '}')")

    def _parse_op(self, line: str) -> Op:
        if line.startswith("for %"):
            return self._parse_for(line)
        if line == "while {":
            return self._parse_while()
        if line.startswith("if ") and line.endswith(" {"):
            return self._parse_if(line)
        if line == "return":
            return ReturnOp()
        if line.startswith("return "):
            return ReturnOp(_parse_value(line[len("return "):]))
        if line == "break":
            return BreakOp()
        if line == "continue":
            return ContinueOp()
        if line.startswith("store "):
            return self._parse_store(line)
        if line.startswith("call @"):
            return self._parse_call(None, line)
        if line.startswith("%"):
            dest, sep, rest = line[1:].partition(" = ")
            if not sep:
                raise self._fail(f"malformed instruction {line!r}")
            if rest.startswith("load "):
                return self._parse_load(dest, rest)
            if rest.startswith("call @"):
                return self._parse_call(dest, rest)
            return self._parse_instr(dest, rest)
        # Dest-less instruction: rendered without a ': type' suffix, so the
        # type is reconstructed from the first operand (render ignores it).
        op, _, args_text = line.partition(" ")
        args = [_parse_value(a) for a in _split_top_level(args_text)]
        return Instr(op, None, args, args[0].type if args else "void")

    def _split_typed(self, rest: str, what: str) -> tuple[str, str]:
        body, sep, typ = rest.rpartition(" : ")
        if not sep:
            raise self._fail(f"missing type on {what} {rest!r}")
        return body, typ.strip()

    def _parse_instr(self, dest: str, rest: str) -> Instr:
        body, typ = self._split_typed(rest, "instruction")
        op, _, args_text = body.partition(" ")
        args = [_parse_value(a) for a in _split_top_level(args_text)]
        return Instr(op, dest, args, typ)

    def _parse_indexed(self, inner: str) -> tuple[Ref, Value]:
        bracket = inner.find("[")
        if bracket < 0 or not inner.endswith("]"):
            raise self._fail(f"malformed memory operand {inner!r}")
        base = _parse_value(inner[:bracket])
        if not isinstance(base, Ref):
            raise self._fail(f"memory base must be a register in {inner!r}")
        return base, _parse_value(inner[bracket + 1:-1])

    def _parse_load(self, dest: str, rest: str) -> LoadOp:
        body, typ = self._split_typed(rest, "load")
        base, index = self._parse_indexed(body[len("load "):])
        return LoadOp(dest, base, index, typ)

    def _parse_store(self, line: str) -> StoreOp:
        body, typ = self._split_typed(line, "store")
        inner = body[len("store "):]
        split_at = inner.find("], ")
        if split_at < 0:
            raise self._fail(f"malformed store {line!r}")
        base, index = self._parse_indexed(inner[:split_at + 1])
        value = _parse_value(inner[split_at + len("], "):])
        return StoreOp(base, index, value, typ)

    def _parse_call(self, dest: Optional[str], rest: str) -> CallOp:
        body, typ = self._split_typed(rest, "call")
        inner = body[len("call @"):]
        open_p = inner.find("(")
        close_p = inner.rfind(")")
        if open_p < 0 or close_p < open_p:
            raise self._fail(f"malformed call {rest!r}")
        callee = inner[:open_p]
        args = [_parse_value(a) for a in _split_top_level(inner[open_p + 1:close_p])]
        return CallOp(dest, callee, args, typ)

    def _parse_for(self, line: str) -> ForOp:
        if not line.endswith(" {"):
            raise self._fail(f"malformed for header {line!r}")
        core = line[:-2]
        attrs: dict = {}
        if core.endswith("}") and " attrs{" in core:
            core, attr_body = core.rsplit(" attrs{", 1)
            attrs = _parse_attr_dict(attr_body[:-1])
        var, sep, bounds = core[len("for %"):].partition(" = ")
        start_text, to_sep, rest = bounds.partition(" to ")
        bound_text, step_sep, step_text = rest.partition(" step ")
        if not (sep and to_sep and step_sep):
            raise self._fail(f"malformed for header {line!r}")
        body, terminator = self._parse_region()
        if terminator != "}":
            raise self._fail(f"expected '}}' closing for, got {terminator!r}")
        return ForOp(var, _parse_value(start_text), _parse_value(bound_text),
                     _parse_value(step_text), body, attrs)

    def _parse_while(self) -> WhileOp:
        cond_region, terminator = self._parse_region()
        if not (terminator.startswith("} cond ") and terminator.endswith(" do {")):
            raise self._fail(f"expected '}} cond ... do {{', got {terminator!r}")
        cond = _parse_value(terminator[len("} cond "):-len(" do {")])
        body, terminator = self._parse_region()
        if terminator != "}":
            raise self._fail(f"expected '}}' closing while, got {terminator!r}")
        return WhileOp(cond_region, cond, body)

    def _parse_if(self, line: str) -> IfOp:
        cond = _parse_value(line[len("if "):-2])
        then, terminator = self._parse_region()
        orelse = Region()
        if terminator == "} else {":
            orelse, terminator = self._parse_region()
        if terminator != "}":
            raise self._fail(f"expected '}}' closing if, got {terminator!r}")
        return IfOp(cond, then, orelse)
