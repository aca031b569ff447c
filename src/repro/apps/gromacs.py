"""Synthetic GROMACS: the paper's primary case study.

Structurally faithful to GROMACS 2025 where it matters to the experiments:

* the build script declares the real specialization points (Table 1 /
  Fig. 4a): ``GMX_SIMD`` with nine x86 + two ARM levels, ``GMX_GPU`` with
  four backends, CPU/GPU FFT library multichoices, MPI/OpenMP/thread-MPI,
  BLAS/LAPACK switches, own-FFTW internal build;
* the source tree is sized like the real one as seen by the IR pipeline —
  1742 translation units per CPU configuration at ``scale=1.0``, of which
  ~13.7% have preprocessed text depending on the SIMD level, ~37% on the
  CUDA define, ~12.6% on MPI, ~17.8% carrying OpenMP pragmas (fractions
  reverse-engineered from the paper's Sec. 6.4 reduction statistics);
* the hot kernels (non-bonded pair interactions, PME spread, integrator,
  bonded forces) are real code in the C subset: the reference (no-SIMD)
  non-bonded path does ~1.8x the pair work of the cluster path, which — not
  a magic constant — is what produces the big None→SIMD drop of Fig. 2.
"""

from __future__ import annotations

from repro.apps.base import AppModel, Workload, kernel_filler_source
from repro.buildsys import SourceTree
from repro.util.rng import DeterministicRNG

# File-population statistics at scale=1.0, reverse-engineered from Sec. 6.4
# (checked by benchmarks/test_sec64_tu_reduction.py): 5 ISA configs 8710 TUs -> ~2695 IRs; +CUDA 7052 -> ~2694;
# MPI x OpenMP 6976 -> ~2333.
TOTAL_CPU_FILES = 1742
SIMD_DEP_FILES = 238
CUDA_DEP_FILES = 638
CUDA_SIMD_OVERLAP = 34
MPI_DEP_FILES = 219
OMP_FILES = 310
MPI_OMP_OVERLAP = 60
CUDA_ONLY_FILES = 42

SIMD_LEVELS = {
    "None": 0, "SSE2": 1, "SSE4.1": 2, "AVX2_128": 3, "AVX_256": 4,
    "AVX2_256": 5, "AVX_512": 6, "ARM_NEON_ASIMD": 1, "ARM_SVE": 2,
}

X86_SWEEP_5ISA = ["None", "SSE4.1", "AVX2_128", "AVX_256", "AVX_512"]


NONBONDED_C = """\
#include "config.h"

#if GMX_SIMD_LEVEL >= 1
double nb_kernel(float* pos, float* fbuf, int* pi, int* pj, int n_pairs, float cutoff2) {
    double vtot = 0.0;
    #pragma omp parallel for reduction(+: vtot)
    for (int k = 0; k < n_pairs; k++) {
        float dx = pos[pi[k]] - pos[pj[k]];
        float dy = pos[pi[k] + 1] - pos[pj[k] + 1];
        float dz = pos[pi[k] + 2] - pos[pj[k] + 2];
        float r2 = dx * dx + dy * dy + dz * dz;
        float rinv = rsqrt(r2 + 0.001f);
        float rinv2 = rinv * rinv;
        float rinv6 = rinv2 * rinv2 * rinv2;
        float vlj = rinv6 * rinv6 - rinv6;
        float fscal = (12.0f * rinv6 * rinv6 - 6.0f * rinv6) * rinv2;
        fbuf[k] = fscal * dx + fscal * dy + fscal * dz;
        vtot += vlj;
    }
    return vtot;
}
#else
double nb_kernel(float* pos, float* fbuf, int* pi, int* pj, int n_pairs_ref, float cutoff2) {
    double vtot = 0.0;
    #pragma omp parallel for reduction(+: vtot)
    for (int k = 0; k < n_pairs_ref; k++) {
        float dx = pos[pi[k]] - pos[pj[k]];
        float dy = pos[pi[k] + 1] - pos[pj[k] + 1];
        float dz = pos[pi[k] + 2] - pos[pj[k] + 2];
        float r2 = dx * dx + dy * dy + dz * dz;
        float rr = sqrtf(r2 + 0.001f);
        float rinv = 1.0f / rr;
        float rinv2 = rinv * rinv;
        float rinv6 = rinv2 * rinv2 * rinv2;
        float vlj = rinv6 * rinv6 - rinv6;
        float fscal = (12.0f * rinv6 * rinv6 - 6.0f * rinv6) * rinv2;
        fbuf[k] = fscal * dx + fscal * dy + fscal * dz;
        vtot += vlj;
    }
    return vtot;
}
#endif
"""

PME_C = """\
#include "config.h"

void pme_spread(float* charges, float* grid, int* cell, int n_atoms) {
    #pragma omp parallel for
    for (int i = 0; i < n_atoms; i++) {
        float q = charges[i];
        float w0 = q * 0.25f;
        float w1 = q * 0.5f;
        float w2 = q * 0.25f;
        grid[i] = w0 + w1 * 0.5f + w2 * 0.25f;
    }
}

double pme_solve(float* grid, int n_grid) {
    double energy = 0.0;
    #pragma omp parallel for reduction(+: energy)
    for (int g = 0; g < n_grid; g++) {
        float k2 = grid[g] * grid[g] + 0.1f;
        energy += grid[g] * grid[g] / k2;
    }
    return energy;
}
"""

UPDATE_C = """\
#include "config.h"

void integrate(float* x, float* v, float* f, float* invmass, int n_dof, float dt) {
    #pragma omp parallel for
    for (int i = 0; i < n_dof; i++) {
        v[i] = v[i] + f[i] * invmass[i] * dt;
        x[i] = x[i] + v[i] * dt;
    }
}
"""

BONDED_C = """\
#include "config.h"

double bonded_forces(float* x, float* fbuf, int* ai, int* aj, int n_bonds, float kb) {
    double epot = 0.0;
    #pragma omp parallel for reduction(+: epot)
    for (int b = 0; b < n_bonds; b++) {
        float dx = x[ai[b]] - x[aj[b]];
        float dr = sqrtf(dx * dx + 0.0001f) - 1.0f;
        fbuf[b] = 2.0f * kb * dr;
        epot += kb * dr * dr;
    }
    return epot;
}
"""

DOMDEC_C = """\
#include "config.h"

#if GMX_MPI
int dd_partition(int* home, int n_atoms, int n_ranks) {
    int moved = 0;
    for (int i = 0; i < n_atoms; i++) {
        home[i] = i % n_ranks;
        moved += 1;
    }
    return moved;
}
#else
int dd_partition(int* home, int n_atoms, int n_ranks) {
    for (int i = 0; i < n_atoms; i++) { home[i] = 0; }
    return 0;
}
#endif
"""

MAIN_C = """\
#include "config.h"

#if GMX_MPI
int mdrun_ranks(int requested) { return requested; }
#else
int mdrun_ranks(int requested) { return 1; }
#endif

int mdrun_steps(int nsteps) { return nsteps; }
"""

CONFIG_H_IN = """\
#cmakedefine01 GMX_MPI
#cmakedefine01 GMX_THREAD_MPI
#cmakedefine01 GMX_OPENMP
#cmakedefine01 GMX_DOUBLE
#cmakedefine01 GMX_GPU_CUDA
#cmakedefine01 GMX_GPU_OPENCL
#cmakedefine01 GMX_GPU_SYCL
#cmakedefine01 GMX_GPU_HIP
#define GMX_SIMD_LEVEL @GMX_SIMD_LEVEL@
#define GMX_FFT_BACKEND "@GMX_FFT_LIBRARY@"
"""

# Flag-bearing kernel files the perf model executes, with fixed roles.
HANDWRITTEN = {
    "src/kernels/nonbonded.c": (NONBONDED_C, {"simd": True, "omp": True}),
    "src/kernels/pme.c": (PME_C, {"omp": True}),
    "src/kernels/update.c": (UPDATE_C, {"omp": True}),
    "src/kernels/bonded.c": (BONDED_C, {"omp": True}),
    "src/domdec.c": (DOMDEC_C, {"mpi": True}),
    "src/main.c": (MAIN_C, {"mpi": True}),
}

CUDA_KERNEL_TEMPLATE = """\
#include "config.h"

#if GMX_GPU_CUDA
void cuda_nb_launch_{i}(float* d_pos, float* d_f, int n_pairs_gpu) {{
    for (int k = 0; k < n_pairs_gpu; k++) {{
        float r = d_pos[k] * {a}.0f + {b}.5f;
        d_f[k] = r * r;
    }}
}}
#endif
"""


def _cmake_script(cpu_sources: list[str], cuda_sources: list[str]) -> str:
    src_lines = "\n  ".join(cpu_sources)
    cuda_lines = "\n  ".join(cuda_sources)
    return f"""\
cmake_minimum_required(VERSION 3.18)
project(GROMACS)

# Parallelism ------------------------------------------------------------
option(GMX_MPI "Build a parallel (message-passing) version of GROMACS" OFF)
option(GMX_THREAD_MPI "Build a thread-MPI-based multithreaded version of GROMACS" ON)
option(GMX_OPENMP "Enable OpenMP-based multithreading" ON)

# Precision and performance ------------------------------------------------
option(GMX_DOUBLE "Use double precision computation" OFF)
option(GMX_CYCLE_SUBCOUNTERS "Enable cycle subcounters" OFF)
gmx_option_multichoice(GMX_SIMD "SIMD instruction set level for CPU kernels"
  AUTO None SSE2 SSE4.1 AVX2_128 AVX_256 AVX2_256 AVX_512 ARM_NEON_ASIMD ARM_SVE)

# GPU acceleration ---------------------------------------------------------
gmx_option_multichoice(GMX_GPU "GPU acceleration backend" OFF CUDA OpenCL SYCL HIP)
gmx_option_multichoice(GMX_GPU_FFT_LIBRARY "GPU FFT library"
  cuFFT VkFFT clFFT rocFFT MKL)

# FFT and linear algebra ------------------------------------------------------
gmx_option_multichoice(GMX_FFT_LIBRARY "CPU FFT library"
  fftw3 mkl fftpack)
option(GMX_BUILD_OWN_FFTW "Download and build FFTW 3 internally" OFF)
option(GMX_EXTERNAL_BLAS "Use external BLAS instead of the bundled one" OFF)
option(GMX_EXTERNAL_LAPACK "Use external LAPACK instead of the bundled one" OFF)

# Misc external dependencies ------------------------------------------------
option(GMX_HWLOC "Use hwloc for hardware topology detection" ON)
option(GMX_USE_LMFIT "Use lmfit for curve fitting" ON)

if(GMX_SIMD STREQUAL "AUTO")
  message(STATUS "SIMD AUTO resolves at deployment from system discovery")
  set(GMX_SIMD_LEVEL 0)
elseif(GMX_SIMD STREQUAL "None")
  set(GMX_SIMD_LEVEL 0)
elseif(GMX_SIMD STREQUAL "SSE2")
  set(GMX_SIMD_LEVEL 1)
  add_compile_options(-msimd=SSE2)
elseif(GMX_SIMD STREQUAL "SSE4.1")
  set(GMX_SIMD_LEVEL 2)
  add_compile_options(-msimd=SSE4.1)
elseif(GMX_SIMD STREQUAL "AVX2_128")
  set(GMX_SIMD_LEVEL 3)
  add_compile_options(-msimd=AVX2_128)
elseif(GMX_SIMD STREQUAL "AVX_256")
  set(GMX_SIMD_LEVEL 4)
  add_compile_options(-msimd=AVX_256)
elseif(GMX_SIMD STREQUAL "AVX2_256")
  set(GMX_SIMD_LEVEL 5)
  add_compile_options(-msimd=AVX2_256)
elseif(GMX_SIMD STREQUAL "AVX_512")
  set(GMX_SIMD_LEVEL 6)
  add_compile_options(-msimd=AVX_512)
elseif(GMX_SIMD STREQUAL "ARM_NEON_ASIMD")
  set(GMX_SIMD_LEVEL 1)
  add_compile_options(-msimd=ARM_NEON_ASIMD)
  add_compile_options(--target=aarch64)
elseif(GMX_SIMD STREQUAL "ARM_SVE")
  set(GMX_SIMD_LEVEL 2)
  add_compile_options(-msimd=ARM_SVE)
  add_compile_options(--target=aarch64)
endif()

if(GMX_MPI)
  find_package(MPI 3.0 REQUIRED)
endif()
if(GMX_OPENMP)
  add_compile_options(-fopenmp)
endif()

set(GMX_GPU_CUDA OFF)
set(GMX_GPU_OPENCL OFF)
set(GMX_GPU_SYCL OFF)
set(GMX_GPU_HIP OFF)
if(GMX_GPU STREQUAL "CUDA")
  find_package(CUDA 12.1 REQUIRED)
  set(GMX_GPU_CUDA ON)
elseif(GMX_GPU STREQUAL "OpenCL")
  find_package(OpenCL 3.0 REQUIRED)
  set(GMX_GPU_OPENCL ON)
elseif(GMX_GPU STREQUAL "SYCL")
  find_package(SYCL REQUIRED)
  set(GMX_GPU_SYCL ON)
elseif(GMX_GPU STREQUAL "HIP")
  find_package(HIP 5.4.3 REQUIRED)
  set(GMX_GPU_HIP ON)
endif()

if(GMX_FFT_LIBRARY STREQUAL "fftw3")
  if(NOT GMX_BUILD_OWN_FFTW)
    find_package(FFTW 3.3 REQUIRED)
  endif()
elseif(GMX_FFT_LIBRARY STREQUAL "mkl")
  find_package(MKL REQUIRED)
endif()
if(GMX_EXTERNAL_BLAS)
  find_package(BLAS REQUIRED)
endif()
if(GMX_EXTERNAL_LAPACK)
  find_package(LAPACK REQUIRED)
endif()
if(GMX_HWLOC)
  find_package(hwloc 2.0)
endif()

configure_file(src/config.h.in include/config.h)
include_directories(src)

add_library(libgromacs
  {src_lines})

if(GMX_GPU STREQUAL "CUDA")
  add_library(libgromacs_gpu
    {cuda_lines})
endif()

add_executable(gmx src/main.c)
target_link_libraries(gmx libgromacs)
"""


def gromacs_tree(scale: float = 1.0) -> SourceTree:
    """Build the synthetic GROMACS source tree at the given scale."""
    n_total = max(len(HANDWRITTEN), int(round(TOTAL_CPU_FILES * scale)))
    files: dict[str, str] = {"src/config.h.in": CONFIG_H_IN}

    # Deterministic attribute layout over file indices.
    rng = DeterministicRNG(f"gromacs-layout/{scale}")
    n_filler = n_total - len(HANDWRITTEN)
    order = rng.shuffle(list(range(n_filler)))

    def quota(full: int) -> int:
        return int(round(full * n_filler / max(1, TOTAL_CPU_FILES - len(HANDWRITTEN))))

    n_simd = quota(SIMD_DEP_FILES - 1)      # nonbonded.c is simd-dep
    n_cuda = quota(CUDA_DEP_FILES)
    n_overlap = min(quota(CUDA_SIMD_OVERLAP), n_simd, n_cuda)
    n_mpi = quota(MPI_DEP_FILES - 2)        # domdec.c, main.c are mpi-dep
    n_omp = quota(OMP_FILES - 4)            # four handwritten kernels have omp
    n_both = min(quota(MPI_OMP_OVERLAP), n_mpi, n_omp)

    simd_set = set(order[:n_simd])
    cuda_set = set(order[n_simd - n_overlap:n_simd - n_overlap + n_cuda])
    # MPI/OMP attributes drawn from the tail so they mix freely with the rest.
    tail = order[::-1]
    mpi_set = set(tail[:n_mpi])
    omp_set = set(tail[n_mpi - n_both:n_mpi - n_both + n_omp])

    cpu_sources: list[str] = list(HANDWRITTEN)
    for path, (content, _) in HANDWRITTEN.items():
        files[path] = content
    for i in range(n_filler):
        path = f"src/kernels/k{i:04d}.c"
        files[path] = kernel_filler_source(
            i, simd_dep=i in simd_set, mpi_dep=i in mpi_set,
            omp=i in omp_set, cuda_dep=i in cuda_set)
        cpu_sources.append(path)

    n_cuda_only = max(1, int(round(CUDA_ONLY_FILES * scale)))
    cuda_sources: list[str] = []
    for i in range(n_cuda_only):
        path = f"src/gpu/cuda_k{i:03d}.c"
        a = (i * 11 + 7) % 17 + 1
        files[path] = CUDA_KERNEL_TEMPLATE.format(i=i, a=a, b=(i * 5) % 9)
        cuda_sources.append(path)

    files["CMakeLists.txt"] = _cmake_script(sorted(cpu_sources), cuda_sources)
    return SourceTree(files)


def gromacs_model(scale: float = 1.0) -> AppModel:
    """The GROMACS application model with UEABS-style workloads."""
    return AppModel(
        name="gromacs",
        tree=gromacs_tree(scale),
        sweeps={
            "GMX_SIMD": list(X86_SWEEP_5ISA),
            "GMX_MPI": ["OFF", "ON"],
            "GMX_OPENMP": ["OFF", "ON"],
            "GMX_GPU": ["OFF", "CUDA"],
        },
        workloads={
            # UEABS test A analog: ion-channel scale system (small).
            "testA": Workload(
                name="testA",
                bindings=_md_bindings(n_atoms=150_000),
                steps=200,
                io_seconds=0.9,
                description="UEABS GROMACS Test Case A analog (150k atoms)"),
            # UEABS test B analog: lignocellulose-scale system (large).
            "testB": Workload(
                name="testB",
                bindings=_md_bindings(n_atoms=4_500_000),
                steps=100,
                io_seconds=2.4,
                description="UEABS GROMACS Test Case B analog (4.5M atoms)"),
            # The Fig. 2 vectorization study input (16 threads, 100 steps).
            "fig2": Workload(
                name="fig2",
                bindings=_md_bindings(n_atoms=3_000_000),
                steps=100,
                io_seconds=2.0,
                description="Fig. 2 vectorization-impact input (3M atoms)"),
        },
        hot_functions={
            "nb_kernel": 1.0,       # once per step
            "pme_spread": 1.0,
            "pme_solve": 1.0,
            "integrate": 1.0,
            "bonded_forces": 1.0,
        },
        library_work={"fft_3d": 1.0},
        gpu_functions=frozenset({"nb_kernel", "pme_solve"}),
        gpu_work_binding="n_pairs",
        gpu_unit_cost=0.22,
        scale=scale,
    )


def _md_bindings(n_atoms: int) -> dict[str, float]:
    """Loop-bound bindings for the MD kernels given a system size.

    The pairs-per-atom factor covers the cluster pair list including the
    cluster-internal interactions GROMACS evaluates per list entry; it is
    the single workload-intensity calibration constant (its effect is
    printed by benchmarks/test_fig10_gromacs_portability.py).
    """
    pairs = n_atoms * 94.0
    return {
        "n_pairs": pairs,
        # Reference (no-SIMD) kernel walks the unpruned list: ~1.8x the pairs.
        "n_pairs_ref": pairs * 3.2,
        "n_atoms": float(n_atoms),
        "n_grid": n_atoms * 4.0,
        "n_dof": n_atoms * 3.0,
        "n_bonds": n_atoms * 1.3,
        "n_ranks": 1.0,
        "n_pairs_gpu": pairs,
        "while_iters": 8.0,
        "n": 1.0,  # filler kernels, never hot
        "requested": 1.0,
        "nsteps": 1.0,
    }


def five_isa_configs() -> list[dict[str, str]]:
    """The Fig. 12 CPU experiment: five x86 ISA configurations."""
    return [{"GMX_SIMD": simd, "GMX_OPENMP": "ON", "GMX_FFT_LIBRARY": "fftw3"}
            for simd in X86_SWEEP_5ISA]


def cuda_vector_configs() -> list[dict[str, str]]:
    """Sec. 6.4: four configurations, two vectorization x CUDA on/off."""
    out = []
    for simd in ("SSE4.1", "AVX_512"):
        for gpu in ("OFF", "CUDA"):
            out.append({"GMX_SIMD": simd, "GMX_GPU": gpu,
                        "GMX_OPENMP": "ON", "GMX_FFT_LIBRARY": "fftw3"})
    return out


def mpi_openmp_configs() -> list[dict[str, str]]:
    """Sec. 6.4: OpenMP x MPI sweep at fixed vectorization."""
    out = []
    for mpi in ("OFF", "ON"):
        for omp in ("OFF", "ON"):
            out.append({"GMX_SIMD": "AVX_256", "GMX_MPI": mpi,
                        "GMX_OPENMP": omp, "GMX_FFT_LIBRARY": "fftw3"})
    return out
