"""Lowering: structured IR -> target machine code.

This is the deployment-time step of the IR-container pipeline (Sec. 4.3
"Code Generation"): once the destination node's ISA is known, every IR file
of the selected configuration is optimized, vectorized and lowered. The
output is a machine-code tree whose instructions carry ISA-specific opcodes
and cycle costs; :mod:`repro.perf` executes the tree symbolically to predict
runtimes.

Machine code mirrors the IR's structure (straight-line segments, loops,
branches) because the performance model needs trip counts, not a flat
instruction list.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import Union

from repro.compiler import ir
from repro.compiler.passes import run_optimization_pipeline, vectorize
from repro.compiler.target import TargetMachine, get_target

# Scalar per-op costs in cycles (throughput-ish, one lane). Division and
# square roots are the classic expensive ops in MD kernels; their relative
# cost drives the benefit of rsqrt-style SIMD approximations.
_OP_CYCLES = {
    "add": 1.0, "sub": 1.0, "mul": 1.0, "div": 8.0, "rem": 9.0,
    "neg": 0.5, "not": 0.5, "bnot": 0.5, "and": 0.5, "or": 0.5, "xor": 0.5,
    "shl": 0.5, "shr": 0.5, "cmp": 1.0, "copy": 0.25, "cast": 0.5,
}
_CALL_CYCLES = {
    "sqrt": 12.0, "sqrtf": 10.0, "rsqrt": 4.0, "fabs": 0.5, "fabsf": 0.5,
    "exp": 16.0, "expf": 14.0, "log": 16.0, "logf": 14.0,
    "sin": 18.0, "cos": 18.0, "pow": 30.0,
    "fmin": 1.0, "fmax": 1.0, "floor": 1.0, "ceil": 1.0,
}
_LOAD_CYCLES = 2.0
_STORE_CYCLES = 2.0
_GATHER_PENALTY = 2.5  # per-lane extra cost of gather addressing
_EXTERNAL_CALL_CYCLES = 40.0  # opaque library call overhead


@dataclass
class MachineInstr:
    opcode: str
    cycles: float


@dataclass
class MLoop:
    """Machine loop with symbolic trip count.

    ``bound_src``/``start_src`` come from the frontend; the perf executor
    evaluates them against workload bindings. ``vector_width`` is the nominal
    SIMD lane count chosen at lowering; ``parallel`` marks OpenMP loops.
    """

    body: list["MItem"] = field(default_factory=list)
    bound_src: str | None = None
    start_src: str | None = None
    const_trip: int | None = None
    vector_width: int = 1
    gather: bool = False
    parallel: bool = False
    header_cycles: float = 2.0
    var: str = ""


@dataclass
class MIf:
    cond_cycles: float
    then: list["MItem"] = field(default_factory=list)
    orelse: list["MItem"] = field(default_factory=list)
    # Without profile data, assume even branch probability; kernels that need
    # a different split set it via loop metadata in the app models.
    selectivity: float = 0.5


@dataclass
class MCall:
    callee: str
    cycles: float
    internal: bool = False  # True when the callee is lowered in this module


MItem = Union[MachineInstr, MLoop, MIf, MCall]


@dataclass
class MachineFunction:
    name: str
    target: TargetMachine
    body: list[MItem] = field(default_factory=list)

    def instruction_count(self) -> int:
        return _count_items(self.body)


@dataclass
class MachineModule:
    """All machine functions lowered from one IR module for one target."""

    name: str
    target: TargetMachine
    functions: dict[str, MachineFunction] = field(default_factory=dict)

    def function(self, name: str) -> MachineFunction:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"machine module {self.name}: no function {name!r}") from None


def _count_items(items: list[MItem]) -> int:
    total = 0
    for item in items:
        if isinstance(item, MachineInstr):
            total += 1
        elif isinstance(item, MLoop):
            total += 1 + _count_items(item.body)
        elif isinstance(item, MIf):
            total += 1 + _count_items(item.then) + _count_items(item.orelse)
        elif isinstance(item, MCall):
            total += 1
    return total


# -- lowering ----------------------------------------------------------------------


def lower_module(module: ir.Module, target: TargetMachine, opt_level: int = 2,
                 apply_vectorization: bool = True) -> MachineModule:
    """Optimize, vectorize and lower an IR module for ``target``.

    Lowering is *pure*: optimization and vectorization run on a private
    copy, so the input module — the immutable artifact an IR container
    ships — is never mutated. One module can therefore be lowered
    concurrently for many targets and at mixed ``-O`` levels, and every
    ``(IR fingerprint, ISA, -O)`` result is deterministic and cacheable.
    """
    work = copy.deepcopy(module)
    run_optimization_pipeline(work, opt_level)
    if apply_vectorization and target.vector_bits > 0:
        vectorize(work, target)
    else:
        # Reset explicitly: the caller may hand us a module that was
        # annotated by an explicit vectorize() call; a scalar build must
        # not inherit those widths.
        for fn in work.functions:
            for loop in fn.loops():
                loop.attrs["vector_width"] = 1
    local_names = {fn.name for fn in work.functions}
    mmod = MachineModule(work.name, target)
    for fn in work.functions:
        mfn = MachineFunction(fn.name, target)
        mfn.body = _lower_region(fn.body, target, vector_width=1, local_names=local_names)
        mmod.functions[fn.name] = mfn
    return mmod


def lower_module_cached(module: ir.Module, target: TargetMachine,
                        opt_level: int = 2, cache=None,
                        ir_digest: str | None = None
                        ) -> tuple[MachineModule, bool]:
    """Cache-aware lowering: ``(machine module, freshly lowered)`` for
    ``(IR, ISA, -O)``.

    This is what lets a batch deployment fan one IR container out to many
    systems and lower each IR once per distinct ISA rather than once per
    system. ``cache`` is an :class:`~repro.containers.store.ArtifactCache`
    (``None`` falls back to plain :func:`lower_module`); ``ir_digest``
    supplies the module's content digest when the caller already knows it
    (manifest entries do), avoiding a re-render.

    The cache payload is the full serialized machine module
    (:func:`machine_module_to_payload`), so a hit against a persistent
    store warmed by another process reconstructs the machine module from
    the payload alone — a cold deployment performs zero lowering work.
    """
    if cache is None:
        return lower_module(module, target, opt_level), True
    parts = {"ir": ir_digest or module.fingerprint(),
             "target": target.name, "opt": opt_level}
    entry = cache.get("lower", parts)
    if entry is not None:
        mmod = entry.obj
        if mmod is None:
            mmod = machine_module_from_payload(entry.payload)
            # Promote the reconstructed object so later hits in this
            # process share one machine module identity.
            cache.put("lower", parts, entry.payload, obj=mmod)
        return mmod, False
    mmod = lower_module(module, target, opt_level)
    cache.put("lower", parts, machine_module_to_payload(mmod), obj=mmod)
    return mmod, True


# -- machine-module serialization ----------------------------------------------


def _item_to_json(item: MItem) -> dict:
    if isinstance(item, MachineInstr):
        return {"kind": "instr", "opcode": item.opcode, "cycles": item.cycles}
    if isinstance(item, MLoop):
        return {"kind": "loop", "body": [_item_to_json(i) for i in item.body],
                "bound_src": item.bound_src, "start_src": item.start_src,
                "const_trip": item.const_trip,
                "vector_width": item.vector_width, "gather": item.gather,
                "parallel": item.parallel, "header_cycles": item.header_cycles,
                "var": item.var}
    if isinstance(item, MIf):
        return {"kind": "if", "cond_cycles": item.cond_cycles,
                "then": [_item_to_json(i) for i in item.then],
                "orelse": [_item_to_json(i) for i in item.orelse],
                "selectivity": item.selectivity}
    if isinstance(item, MCall):
        return {"kind": "call", "callee": item.callee, "cycles": item.cycles,
                "internal": item.internal}
    raise TypeError(f"cannot serialize machine item {type(item).__name__}")


def _item_from_json(blob: dict) -> MItem:
    kind = blob.get("kind")
    if kind == "instr":
        return MachineInstr(blob["opcode"], blob["cycles"])
    if kind == "loop":
        return MLoop(body=[_item_from_json(i) for i in blob["body"]],
                     bound_src=blob["bound_src"], start_src=blob["start_src"],
                     const_trip=blob["const_trip"],
                     vector_width=blob["vector_width"], gather=blob["gather"],
                     parallel=blob["parallel"],
                     header_cycles=blob["header_cycles"], var=blob["var"])
    if kind == "if":
        return MIf(cond_cycles=blob["cond_cycles"],
                   then=[_item_from_json(i) for i in blob["then"]],
                   orelse=[_item_from_json(i) for i in blob["orelse"]],
                   selectivity=blob["selectivity"])
    if kind == "call":
        return MCall(blob["callee"], blob["cycles"], internal=blob["internal"])
    raise ValueError(f"unknown machine item kind {kind!r}")


def machine_module_to_payload(mmod: MachineModule) -> str:
    """Serialize a machine module to deterministic JSON text.

    Together with :func:`machine_module_from_payload` this makes ``lower``
    cache entries payload-only artifacts: any process holding the blob can
    rebuild the machine tree (the target is recovered by name through the
    target registry — targets are code, not data).
    """
    return json.dumps({
        "format": "xaas-machine-module-v1",
        "name": mmod.name,
        "target": mmod.target.name,
        "functions": {name: [_item_to_json(i) for i in fn.body]
                      for name, fn in sorted(mmod.functions.items())},
    }, sort_keys=True)


def machine_module_from_payload(payload: str) -> MachineModule:
    """Inverse of :func:`machine_module_to_payload`."""
    blob = json.loads(payload)
    target = get_target(blob["target"])
    mmod = MachineModule(blob["name"], target)
    for name, body in blob["functions"].items():
        mfn = MachineFunction(name, target)
        mfn.body = [_item_from_json(i) for i in body]
        mmod.functions[name] = mfn
    return mmod


def _suffix(target: TargetMachine, width: int) -> str:
    if width <= 1:
        return "s" if target.family == "x86_64" else "sc"
    if target.family == "aarch64":
        return f"v{width}.neon" if target.vector_bits == 128 else f"v{width}.sve"
    reg = {128: "xmm", 256: "ymm", 512: "zmm"}.get(target.vector_bits, "xmm")
    return f"v{width}.{reg}"


def _lower_region(region: ir.Region, target: TargetMachine, vector_width: int,
                  local_names: set[str]) -> list[MItem]:
    items: list[MItem] = []
    suffix = _suffix(target, vector_width)
    pending_mul: int = 0  # count of mul results awaiting fma fusion

    for op in region.ops:
        if isinstance(op, ir.Instr):
            base = op.op.split(".")[0]
            cycles = _OP_CYCLES.get(base, 1.0)
            opcode = f"{op.op}.{suffix}"
            if target.fma and base == "mul" and ir.is_float_type(op.type):
                pending_mul += 1
            elif target.fma and base in ("add", "sub") and ir.is_float_type(op.type) and pending_mul:
                # Fuse with an earlier multiply: the pair costs one issue slot.
                pending_mul -= 1
                opcode = f"fma.{op.type}.{suffix}"
                cycles = 0.0
            items.append(MachineInstr(opcode, cycles / max(target.issue_width, 1e-9)))
        elif isinstance(op, ir.LoadOp):
            items.append(MachineInstr(f"load.{op.type}.{suffix}", _LOAD_CYCLES))
        elif isinstance(op, ir.StoreOp):
            items.append(MachineInstr(f"store.{op.type}.{suffix}", _STORE_CYCLES))
        elif isinstance(op, ir.CallOp):
            if op.callee in _CALL_CYCLES:
                items.append(MCall(op.callee, _CALL_CYCLES[op.callee]))
            elif op.callee in local_names:
                items.append(MCall(op.callee, 5.0, internal=True))
            else:
                items.append(MCall(op.callee, _EXTERNAL_CALL_CYCLES))
        elif isinstance(op, ir.ForOp):
            width = int(op.attrs.get("vector_width", 1))
            loop = MLoop(
                bound_src=op.attrs.get("bound_src"),
                start_src=op.attrs.get("start_src"),
                const_trip=_const_trip(op),
                vector_width=width,
                gather=bool(op.attrs.get("gather")),
                parallel=bool(op.attrs.get("omp_parallel")),
                var=op.var,
            )
            loop.body = _lower_region(op.body, target, width, local_names)
            if loop.gather and width > 1:
                loop.body.append(MachineInstr(
                    f"gather.fixup.{suffix}", _GATHER_PENALTY * width * 0.25))
            items.append(loop)
        elif isinstance(op, ir.WhileOp):
            # General loops keep scalar code; trip count is unknown, so the
            # perf executor charges them via the 'while_iters' binding.
            loop = MLoop(bound_src="while_iters", vector_width=1, var="<while>")
            loop.body = _lower_region(op.cond_region, target, 1, local_names) + \
                _lower_region(op.body, target, 1, local_names)
            items.append(loop)
        elif isinstance(op, ir.IfOp):
            items.append(MIf(
                cond_cycles=1.0,
                then=_lower_region(op.then, target, vector_width, local_names),
                orelse=_lower_region(op.orelse, target, vector_width, local_names),
            ))
        elif isinstance(op, ir.ReturnOp):
            items.append(MachineInstr("ret", 1.0))
        elif isinstance(op, (ir.BreakOp, ir.ContinueOp)):
            items.append(MachineInstr("jmp", 1.0))
        else:  # pragma: no cover - defensive
            raise TypeError(f"cannot lower op {type(op).__name__}")
    return items


def _const_trip(op: ir.ForOp) -> int | None:
    if isinstance(op.start, ir.Const) and isinstance(op.bound, ir.Const) \
            and isinstance(op.step, ir.Const) and op.step.value > 0:
        trips = (int(op.bound.value) - int(op.start.value) + int(op.step.value) - 1) \
            // int(op.step.value)
        return max(0, trips)
    return None
