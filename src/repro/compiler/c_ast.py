"""AST node definitions for the C subset.

The frontend (:mod:`repro.compiler.frontend`) lowers these nodes to the
structured IR; the OpenMP-detection pass (:mod:`repro.compiler.passes`)
walks them looking for ``omp`` pragma annotations, mirroring the Clang AST
analysis described in Sec. 4.3 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional


@dataclass(frozen=True)
class CType:
    """A scalar C type with optional pointer depth (``double*`` etc.)."""

    name: str  # int | long | float | double | void | char | bool
    pointer: int = 0
    const: bool = False
    unsigned: bool = False

    def __str__(self) -> str:
        out = ("const " if self.const else "") + ("unsigned " if self.unsigned else "") + self.name
        return out + "*" * self.pointer

    @property
    def is_pointer(self) -> bool:
        return self.pointer > 0

    @property
    def elem_bits(self) -> int:
        """Bit width of the scalar element (pointers report their pointee)."""
        return {"char": 8, "bool": 8, "int": 32, "long": 64,
                "float": 32, "double": 64, "void": 0}[self.name]

    def pointee(self) -> "CType":
        if not self.is_pointer:
            raise ValueError(f"{self} is not a pointer type")
        return CType(self.name, self.pointer - 1, self.const, self.unsigned)


# -- expressions ------------------------------------------------------------

class Expr:
    """Base class for expressions (children() enables generic walks)."""

    def children(self) -> Iterator["Expr"]:
        return iter(())


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class FloatLit(Expr):
    value: float
    is_single: bool = False  # 1.0f vs 1.0


@dataclass
class StrLit(Expr):
    value: str


@dataclass
class Name(Expr):
    ident: str


@dataclass
class BinOp(Expr):
    op: str  # + - * / % < > <= >= == != && || & | ^ << >>
    lhs: Expr
    rhs: Expr

    def children(self):
        yield self.lhs
        yield self.rhs


@dataclass
class UnOp(Expr):
    op: str  # - ! ~
    operand: Expr

    def children(self):
        yield self.operand


@dataclass
class Cast(Expr):
    type: CType
    operand: Expr

    def children(self):
        yield self.operand


@dataclass
class Call(Expr):
    callee: str
    args: list[Expr]

    def children(self):
        yield from self.args


@dataclass
class Index(Expr):
    base: Expr
    index: Expr

    def children(self):
        yield self.base
        yield self.index


@dataclass
class Assign(Expr):
    """Assignment and compound assignment (target = Name or Index)."""

    op: str  # = += -= *= /=
    target: Expr
    value: Expr

    def children(self):
        yield self.target
        yield self.value


# -- statements ---------------------------------------------------------------

class Stmt:
    """Base class for statements; ``pragmas`` holds attached #pragma text."""

    pragmas: list[str] = []

    def children_stmts(self) -> Iterator["Stmt"]:
        return iter(())

    def children_exprs(self) -> Iterator[Expr]:
        return iter(())


@dataclass
class Decl(Stmt):
    type: CType
    name: str
    init: Optional[Expr] = None
    pragmas: list[str] = field(default_factory=list)

    def children_exprs(self):
        if self.init is not None:
            yield self.init


@dataclass
class ExprStmt(Stmt):
    expr: Expr
    pragmas: list[str] = field(default_factory=list)

    def children_exprs(self):
        yield self.expr


@dataclass
class If(Stmt):
    cond: Expr
    then: "Block"
    orelse: Optional["Block"] = None
    pragmas: list[str] = field(default_factory=list)

    def children_stmts(self):
        yield self.then
        if self.orelse is not None:
            yield self.orelse

    def children_exprs(self):
        yield self.cond


@dataclass
class For(Stmt):
    init: Optional[Stmt]
    cond: Optional[Expr]
    step: Optional[Expr]
    body: "Block"
    pragmas: list[str] = field(default_factory=list)

    def children_stmts(self):
        if self.init is not None:
            yield self.init
        yield self.body

    def children_exprs(self):
        if self.cond is not None:
            yield self.cond
        if self.step is not None:
            yield self.step


@dataclass
class While(Stmt):
    cond: Expr
    body: "Block"
    pragmas: list[str] = field(default_factory=list)

    def children_stmts(self):
        yield self.body

    def children_exprs(self):
        yield self.cond


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None
    pragmas: list[str] = field(default_factory=list)

    def children_exprs(self):
        if self.value is not None:
            yield self.value


@dataclass
class Break(Stmt):
    pragmas: list[str] = field(default_factory=list)


@dataclass
class Continue(Stmt):
    pragmas: list[str] = field(default_factory=list)


@dataclass
class Block(Stmt):
    stmts: list[Stmt] = field(default_factory=list)
    pragmas: list[str] = field(default_factory=list)

    def children_stmts(self):
        yield from self.stmts


# -- top level ----------------------------------------------------------------

@dataclass
class Param:
    type: CType
    name: str


@dataclass
class FuncDef:
    ret_type: CType
    name: str
    params: list[Param]
    body: Optional[Block]  # None => extern declaration
    is_static: bool = False
    pragmas: list[str] = field(default_factory=list)

    @property
    def is_declaration(self) -> bool:
        return self.body is None


@dataclass
class GlobalDecl:
    type: CType
    name: str
    init: Optional[Expr] = None
    is_extern: bool = False


@dataclass
class TranslationUnitAST:
    """A parsed file: functions and globals, in declaration order."""

    functions: list[FuncDef] = field(default_factory=list)
    globals: list[GlobalDecl] = field(default_factory=list)

    def function(self, name: str) -> FuncDef:
        for fn in self.functions:
            if fn.name == name and not fn.is_declaration:
                return fn
        raise KeyError(f"no function definition named {name!r}")

    def walk_stmts(self) -> Iterator[Stmt]:
        """Depth-first iteration over every statement in the unit."""
        stack: list[Stmt] = [fn.body for fn in self.functions if fn.body is not None]
        while stack:
            stmt = stack.pop()
            yield stmt
            stack.extend(stmt.children_stmts())
