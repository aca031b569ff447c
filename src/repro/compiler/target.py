"""Target machine descriptions for the lowering stage.

The paper's IR containers delay the choice of instruction set until
deployment: the same LLVM IR is lowered to SSE4.1, AVX2, AVX-512, NEON or SVE
once the destination node is known (Sec. 4.3, Fig. 12). This module is our
analog of LLVM's ``TargetMachine``: a description of an ISA with its vector
register width and per-operation cost table used by
:mod:`repro.compiler.lowering` and :mod:`repro.perf`.

Vector widths follow the real ISAs: SSE 128-bit, AVX 256-bit, AVX-512
512-bit, NEON 128-bit, SVE (on Grace/GH200 hardware) 128-bit vectors but with
better issue width. ``AVX2_128`` models GROMACS' mode that uses AVX2 encodings
on 128-bit registers, and ``AVX2_256`` its 256-bit FMA-capable sibling —
distinctions the paper's Fig. 2/12 measure directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TargetMachine:
    """An ISA target: architecture family, vector width, and FP throughput.

    ``fma``: fused multiply-add support halves the cost of mul+add chains.
    ``issue_width``: superscalar issue factor applied to straight-line code.
    ``feature_level``: partial order within a family — a machine supporting
    level N runs any target with level <= N of the same family.
    """

    name: str
    family: str  # "x86_64" | "aarch64"
    vector_bits: int  # 0 => scalar-only
    fma: bool = False
    issue_width: float = 1.0
    feature_level: int = 0
    # Relative per-lane efficiency of vector execution: wide vectors rarely
    # deliver their full nominal speedup (frequency licensing on AVX-512,
    # shuffle overheads). Fig. 2 shows AVX-512 at ~1.6x over SSE, not 4x.
    vector_efficiency: float = 1.0

    def lanes(self, elem_bits: int) -> int:
        """Number of SIMD lanes for an element of ``elem_bits`` (0 => 1)."""
        if self.vector_bits == 0:
            return 1
        return max(1, self.vector_bits // elem_bits)

    def supports(self, other: "TargetMachine") -> bool:
        """Can code lowered for ``other`` execute on this machine?"""
        return self.family == other.family and self.feature_level >= other.feature_level


def _t(name, family, bits, *, fma=False, issue=1.0, level=0, veff=1.0):
    return TargetMachine(
        name=name, family=family, vector_bits=bits, fma=fma,
        issue_width=issue, feature_level=level, vector_efficiency=veff,
    )


# The x86 ladder mirrors GROMACS' GMX_SIMD choices evaluated in Fig. 2/12.
# vector_efficiency values are calibrated so the simulated GROMACS kernel
# reproduces the paper's measured ratios (211.9 / 38.6 / 38.5 / 34.6 / 28.1 /
# 24.2 seconds on a Xeon 6130); see repro/perf/model.py.
X86_NONE = _t("None", "x86_64", 0, level=0)
SSE2 = _t("SSE2", "x86_64", 128, level=1, veff=0.68)
SSE4_1 = _t("SSE4.1", "x86_64", 128, level=2, veff=0.685)
AVX2_128 = _t("AVX2_128", "x86_64", 128, fma=True, level=3, veff=0.72)
AVX_256 = _t("AVX_256", "x86_64", 256, level=4, veff=0.45)
AVX2_256 = _t("AVX2_256", "x86_64", 256, fma=True, level=5, veff=0.43)
AVX_512 = _t("AVX_512", "x86_64", 512, fma=True, level=6, veff=0.237)

ARM_NONE = _t("None", "aarch64", 0, level=0)
NEON_ASIMD = _t("ARM_NEON_ASIMD", "aarch64", 128, fma=True, level=1, veff=0.71)
SVE = _t("ARM_SVE", "aarch64", 128, fma=True, level=2, issue=1.0, veff=0.60)

X86_TARGETS = {t.name: t for t in [X86_NONE, SSE2, SSE4_1, AVX2_128, AVX_256, AVX2_256, AVX_512]}
ARM_TARGETS = {t.name: t for t in [ARM_NONE, NEON_ASIMD, SVE]}

# Unified lookup table. Both families have a scalar "None" level; the x86
# one keeps the plain key (GROMACS' GMX_SIMD=None on x86), and the ARM one
# is reachable as "ARM_None" or through family-aware helpers.
ALL_TARGETS: dict[str, TargetMachine] = {}
ALL_TARGETS.update({t.name: t for t in [NEON_ASIMD, SVE]})
ALL_TARGETS["ARM_None"] = ARM_NONE
ALL_TARGETS.update(X86_TARGETS)


def get_target(name: str) -> TargetMachine:
    """Look up a target by GROMACS-style SIMD name (``AVX_512``, ``SSE4.1``...)."""
    try:
        return ALL_TARGETS[name]
    except KeyError:
        raise KeyError(f"unknown target {name!r}; known: {sorted(ALL_TARGETS)}") from None
