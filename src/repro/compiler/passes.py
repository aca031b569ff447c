"""Analysis and transformation passes over the structured IR (and the AST).

Three of these are load-bearing for the paper's pipeline:

* :func:`detect_openmp` — the Clang-AST-style analysis from Sec. 4.3 that
  decides whether a translation unit *uses* OpenMP at all. If two build
  configurations differ only in ``-fopenmp`` and the file contains no OpenMP
  constructs, their IR is identical and the flag can be dropped from the
  comparison.
* :func:`analyze_vectorizable` — the legality analysis that lets the
  deployment step vectorize loops once the ISA is known. LLVM's vectorizers
  work at the IR level, which is precisely why the paper can strip
  ``-m<isa>`` flags before IR comparison; we mirror that structure.
* :func:`vectorize` — applied at *deployment*, annotates legal loops with the
  target's vector width (Sec. 4.3 "Vectorization ... will be applied during
  deployment once the final ISA is known").

Plus conventional cleanups (constant folding, dead-code elimination) used by
the ``-O`` pipeline at lowering time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler import c_ast as A
from repro.compiler import ir
from repro.compiler.target import TargetMachine

# -- OpenMP detection (AST level) ----------------------------------------------


def detect_openmp(unit: A.TranslationUnitAST) -> bool:
    """True if any statement in the unit carries an ``omp`` pragma.

    This is the authoritative check the pipeline uses to decide whether the
    ``-fopenmp`` flag can affect the produced IR for this file.
    """
    for stmt in unit.walk_stmts():
        for pragma in stmt.pragmas:
            if pragma.split()[:1] == ["omp"]:
                return True
    return False


def detect_openmp_ir(module: ir.Module) -> bool:
    """IR-level counterpart: any loop with OpenMP attributes."""
    for fn in module.functions:
        for op in fn.walk():
            if isinstance(op, ir.ForOp) and (
                    op.attrs.get("omp_parallel") or op.attrs.get("omp_simd")):
                return True
    return False


# -- vectorization legality ------------------------------------------------------

@dataclass
class VectorizationReport:
    """Outcome of the legality analysis for one loop."""

    legal: bool
    reason: str = ""
    reductions: list[str] = field(default_factory=list)
    has_gather: bool = False
    elem_bits: int = 64  # widest element the loop touches


def analyze_vectorizable(loop: ir.ForOp) -> VectorizationReport:
    """Decide whether ``loop`` can be vectorized.

    Legality conditions (a practical subset of LLVM's LoopVectorize):

    * unit step;
    * innermost (no nested For/While);
    * no ``break``/``continue``/``return`` in the body;
    * calls only to pure math builtins;
    * every store index is affine in the induction variable
      (non-affine loads become gathers — legal but slower);
    * scalar variables defined outside the loop and written inside must
      follow a reduction pattern (``acc = acc + e`` / ``acc = acc * e`` /
      min/max), recorded in the report.
    """
    if not (isinstance(loop.step, ir.Const) and loop.step.value == 1):
        return VectorizationReport(False, "non-unit step")

    body_ops = list(loop.body.walk())
    for op in body_ops:
        if isinstance(op, (ir.ForOp, ir.WhileOp)):
            return VectorizationReport(False, "not innermost")
        if isinstance(op, (ir.BreakOp, ir.ContinueOp, ir.ReturnOp)):
            return VectorizationReport(False, "early exit in body")
        if isinstance(op, ir.CallOp):
            from repro.compiler.frontend import PURE_BUILTINS
            if op.callee not in PURE_BUILTINS:
                return VectorizationReport(False, f"call to non-pure function {op.callee!r}")

    defs = _collect_defs(loop.body)
    affine = _AffineAnalysis(loop.var, defs)

    has_gather = False
    # The vectorization factor is chosen from the widest *data* element the
    # loop touches (loads, stores, float arithmetic). Index arithmetic is
    # i64 but does not count — real vectorizers widen addresses separately.
    data_bits: list[int] = []
    for op in body_ops:
        if isinstance(op, ir.LoadOp):
            data_bits.append(ir.type_bits(op.type))
            if not affine.is_affine(op.index):
                has_gather = True
        elif isinstance(op, ir.StoreOp):
            data_bits.append(ir.type_bits(op.type))
            if not affine.is_affine(op.index):
                return VectorizationReport(False, "non-affine store (scatter)")
        elif isinstance(op, ir.Instr) and ir.is_float_type(op.type):
            data_bits.append(ir.type_bits(op.type))
        elif isinstance(op, ir.CallOp) and ir.is_float_type(op.type):
            data_bits.append(ir.type_bits(op.type))
    elem_bits = max(data_bits) if data_bits else 64

    reductions, bad = _classify_scalar_writes(loop, defs)
    if bad:
        return VectorizationReport(False, f"loop-carried scalar dependence on {bad!r}")
    return VectorizationReport(True, "", reductions, has_gather, max(elem_bits, 8))


def _collect_defs(region: ir.Region) -> dict[str, ir.Op]:
    """Map register name -> defining op, for the ops in this region tree."""
    defs: dict[str, ir.Op] = {}
    for op in region.walk():
        dest = getattr(op, "dest", None)
        if dest:
            defs[dest] = op
    return defs


class _AffineAnalysis:
    """Checks whether a value is affine in the induction variable."""

    def __init__(self, ivar: str, defs: dict[str, ir.Op]):
        self.ivar = ivar
        self.defs = defs

    def is_affine(self, value: ir.Value, depth: int = 0) -> bool:
        if depth > 32:
            return False
        if isinstance(value, ir.Const):
            return True
        assert isinstance(value, ir.Ref)
        if value.name == self.ivar:
            return True
        op = self.defs.get(value.name)
        if op is None:
            return True  # defined outside the loop => invariant
        if isinstance(op, ir.Instr):
            base = op.op.split(".")[0]
            if base in ("add", "sub"):
                return all(self.is_affine(a, depth + 1) for a in op.args)
            if base == "mul":
                lhs, rhs = op.args
                const_side = isinstance(lhs, ir.Const) or isinstance(rhs, ir.Const) \
                    or self._is_invariant(lhs) or self._is_invariant(rhs)
                return const_side and all(self.is_affine(a, depth + 1) for a in op.args)
            if base in ("copy", "cast"):
                return self.is_affine(op.args[0], depth + 1)
        return False

    def _is_invariant(self, value: ir.Value) -> bool:
        if isinstance(value, ir.Const):
            return True
        return value.name != self.ivar and value.name not in self.defs


def _classify_scalar_writes(loop: ir.ForOp, defs: dict[str, ir.Op]) -> tuple[list[str], str | None]:
    """Split outer-scope scalar writes into reductions vs. blocking deps.

    A register counts as "outer" if it is written by a ``copy`` whose dest is
    not a frontend temporary (temps start with ``.``) and is not declared in
    the loop body. Frontend temps are single-assignment within an iteration
    and never carry values across iterations.
    """
    declared_inside: set[str] = set()
    writes: dict[str, list[ir.Instr]] = {}
    order: list[ir.Op] = list(loop.body.walk())
    first_def_index: dict[str, int] = {}
    for i, op in enumerate(order):
        dest = getattr(op, "dest", None)
        if dest and dest not in first_def_index:
            first_def_index[dest] = i
    # A scalar declared inside the body appears first as a 'copy' def and is
    # never read before that def. We approximate "declared inside" by: every
    # read of the name happens at an index >= its first def.
    reads_before_def: set[str] = set()
    for i, op in enumerate(order):
        for operand in op.operands():
            if isinstance(operand, ir.Ref):
                fd = first_def_index.get(operand.name)
                if fd is not None and i <= fd:
                    reads_before_def.add(operand.name)
    for op in order:
        if isinstance(op, ir.Instr) and op.op == "copy" and not op.dest.startswith("."):
            if op.dest == loop.var:
                return [], op.dest  # writing the induction variable
            writes.setdefault(op.dest, []).append(op)
    for name, ops in list(writes.items()):
        if name not in reads_before_def:
            declared_inside.add(name)
            del writes[name]

    reductions: list[str] = []
    for name, copy_ops in writes.items():
        for copy_op in copy_ops:
            if not _is_reduction_chain(name, copy_op.args[0], defs):
                return [], name
        reductions.append(name)
    return sorted(reductions), None


# Reduction kinds and the instruction bases each admits. A true reduction
# uses one associative operation throughout the accumulator chain; mixing op
# kinds (``acc = x + acc * 0.5``) is a linear recurrence, not a reduction,
# and must block vectorization.
_REDUCTION_KINDS = {
    "sum": {"add", "sub"},
    "product": {"mul"},
    "minmax": set(),  # handled via fmin/fmax calls
}


def _is_reduction_chain(acc: str, value: ir.Value, defs: dict[str, ir.Op]) -> bool:
    """True if ``value`` computes ``acc (op) expr`` for one reduction kind."""
    return any(_chain_of_kind(acc, value, defs, kind, 0)
               for kind in _REDUCTION_KINDS)


def _chain_of_kind(acc: str, value: ir.Value, defs: dict[str, ir.Op],
                   kind: str, depth: int) -> bool:
    if depth > 16 or not isinstance(value, ir.Ref):
        return False
    if value.name == acc:
        return True
    op = defs.get(value.name)
    if op is None:
        return False
    if isinstance(op, ir.Instr):
        base = op.op.split(".")[0]
        if base in ("copy", "cast"):
            return _chain_of_kind(acc, op.args[0], defs, kind, depth + 1)
        if base in _REDUCTION_KINDS[kind]:
            # The accumulator must flow through exactly one operand; the other
            # operand(s) must not reference it at all.
            hits = [_reaches_acc(acc, a, defs, 0) for a in op.args]
            if sum(hits) != 1:
                return False
            idx = hits.index(True)
            return _chain_of_kind(acc, op.args[idx], defs, kind, depth + 1)
    if isinstance(op, ir.CallOp) and kind == "minmax" and op.callee in ("fmin", "fmax"):
        hits = [_reaches_acc(acc, a, defs, 0) for a in op.args]
        if sum(hits) != 1:
            return False
        return _chain_of_kind(acc, op.args[hits.index(True)], defs, kind, depth + 1)
    return False


def _reaches_acc(acc: str, value: ir.Value, defs: dict[str, ir.Op], depth: int) -> bool:
    """Does the dataflow of ``value`` read the accumulator anywhere?"""
    if depth > 16 or not isinstance(value, ir.Ref):
        return False
    if value.name == acc:
        return True
    op = defs.get(value.name)
    if op is None:
        return False
    return any(_reaches_acc(acc, a, defs, depth + 1) for a in op.operands())


# -- deployment-time vectorization --------------------------------------------------

def vectorize(module: ir.Module, target: TargetMachine) -> int:
    """Annotate all legal loops with the target's vector width.

    Returns the number of loops vectorized. Runs at deployment, not at IR
    build — calling it earlier would bake an ISA into the portable IR, which
    is exactly what XaaS containers avoid.
    """
    count = 0
    for fn in module.functions:
        for loop in fn.loops():
            report = analyze_vectorizable(loop)
            loop.attrs["vectorizable"] = report.legal
            if not report.legal:
                loop.attrs["vector_width"] = 1
                loop.attrs["novector_reason"] = report.reason
                continue
            lanes = target.lanes(report.elem_bits)
            loop.attrs["vector_width"] = lanes
            loop.attrs["vector_elem_bits"] = report.elem_bits
            loop.attrs["vector_reductions"] = report.reductions
            loop.attrs["gather"] = report.has_gather
            if lanes > 1:
                count += 1
    return count


# -- constant folding -----------------------------------------------------------------

_FOLDABLE = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
}


def fold_constants(module: ir.Module) -> int:
    """Fold arithmetic on constant operands; returns number of folds."""
    folded = 0
    for fn in module.functions:
        folded += _fold_region(fn.body)
    return folded


def _fold_region(region: ir.Region) -> int:
    folded = 0
    replacements: dict[str, ir.Const] = {}

    def subst(value: ir.Value) -> ir.Value:
        if isinstance(value, ir.Ref) and value.name in replacements:
            return replacements[value.name]
        return value

    new_ops: list[ir.Op] = []
    for op in region.ops:
        if isinstance(op, ir.Instr):
            op.args = [subst(a) for a in op.args]
            base = op.op.split(".")[0]
            if base in _FOLDABLE and all(isinstance(a, ir.Const) for a in op.args):
                val = _FOLDABLE[base](op.args[0].value, op.args[1].value)
                if not ir.is_float_type(op.type):
                    val = int(val)
                # Fold only frontend temporaries: they are single-assignment,
                # so substituting them is always sound. Named variables can be
                # reassigned (loops) and must keep their copies.
                if op.dest and op.dest.startswith("."):
                    replacements[op.dest] = ir.Const(val, op.type)
                    folded += 1
                    continue
            if base == "copy" and op.dest and op.dest.startswith(".") \
                    and isinstance(op.args[0], ir.Const):
                replacements[op.dest] = op.args[0]
                folded += 1
                continue
        elif isinstance(op, (ir.LoadOp,)):
            op.index = subst(op.index)
        elif isinstance(op, ir.StoreOp):
            op.index = subst(op.index)
            op.value = subst(op.value)
        elif isinstance(op, ir.CallOp):
            op.args = [subst(a) for a in op.args]
        elif isinstance(op, ir.ForOp):
            op.start = subst(op.start)
            op.bound = subst(op.bound)
            folded += _fold_region(op.body)
        elif isinstance(op, ir.WhileOp):
            folded += _fold_region(op.cond_region)
            folded += _fold_region(op.body)
        elif isinstance(op, ir.IfOp):
            op.cond = subst(op.cond)
            folded += _fold_region(op.then)
            folded += _fold_region(op.orelse)
        elif isinstance(op, ir.ReturnOp) and op.value is not None:
            op.value = subst(op.value)
        new_ops.append(op)
    region.ops = new_ops
    return folded


# -- dead code elimination ----------------------------------------------------------------

def eliminate_dead_code(module: ir.Module) -> int:
    """Remove pure instructions whose results are never used."""
    removed = 0
    for fn in module.functions:
        removed += _dce_region(fn.body, _collect_uses(fn.body))
    return removed


def _collect_uses(region: ir.Region) -> set[str]:
    used: set[str] = set()
    for op in region.walk():
        for operand in op.operands():
            if isinstance(operand, ir.Ref):
                used.add(operand.name)
    return used


def _dce_region(region: ir.Region, used: set[str]) -> int:
    removed = 0
    new_ops: list[ir.Op] = []
    for op in region.ops:
        for sub in op.regions():
            removed += _dce_region(sub, used)
        if isinstance(op, (ir.Instr, ir.LoadOp)):
            dest = op.dest
            if dest is not None and dest not in used and dest.startswith("."):
                removed += 1
                continue
        new_ops.append(op)
    region.ops = new_ops
    return removed


def run_optimization_pipeline(module: ir.Module, level: int) -> dict[str, int]:
    """Run the -O pipeline; returns per-pass statistics."""
    stats = {"fold": 0, "dce": 0}
    if level <= 0:
        return stats
    for _ in range(2 if level == 1 else 4):
        f = fold_constants(module)
        d = eliminate_dead_code(module)
        stats["fold"] += f
        stats["dce"] += d
        if f == 0 and d == 0:
            break
    return stats


# -- loop statistics (used by cost model & tests) ---------------------------------------------

def loop_summary(module: ir.Module) -> list[dict]:
    """Per-loop metadata snapshot for inspection and the perf executor."""
    out = []
    for fn in module.functions:
        for loop in fn.loops():
            out.append({
                "function": fn.name,
                "var": loop.var,
                "bound_src": loop.attrs.get("bound_src"),
                "omp_parallel": bool(loop.attrs.get("omp_parallel")),
                "vectorizable": loop.attrs.get("vectorizable"),
                "vector_width": loop.attrs.get("vector_width", 1),
                "body_ops": sum(1 for _ in loop.body.walk()),
            })
    return out
