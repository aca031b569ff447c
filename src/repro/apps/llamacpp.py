"""Synthetic llama.cpp: the paper's second case study (Fig. 11).

llama.cpp achieves portability by splitting inference into dynamically
loadable backends; its build system (llama.cpp + the ggml subproject) has
over twenty optimization flags. We model both build scripts — the scoring
experiment feeds them to analysts *without* in-context examples, which is
the paper's "generalization" condition (Sec. 6.2) — and the matmul-dominated
inference kernels for the portability benchmark.
"""

from __future__ import annotations

from repro.apps.base import AppModel, Workload
from repro.buildsys import SourceTree

GGML_CMAKE = """\
cmake_minimum_required(VERSION 3.14)
project(ggml)

option(GGML_NATIVE "optimize the build for the current machine" ON)
option(GGML_LTO "enable link time optimization" OFF)
option(GGML_AVX "enable AVX" ON)
option(GGML_AVX2 "enable AVX2" ON)
option(GGML_AVX512 "enable AVX512F" OFF)
option(GGML_AVX512_VNNI "enable AVX512-VNNI" OFF)
option(GGML_AVX512_BF16 "enable AVX512-BF16" OFF)
option(GGML_AMX_TILE "enable AMX-TILE" OFF)
option(GGML_FMA "enable FMA" ON)
option(GGML_F16C "enable F16C" ON)
option(GGML_CUDA "enable CUDA backend" OFF)
option(GGML_CUDA_FORCE_MMQ "use mmq kernels instead of cuBLAS" OFF)
option(GGML_CUDA_F16 "use 16 bit precision for some calculations" OFF)
option(GGML_CUDA_GRAPHS "use CUDA graphs" ON)
option(GGML_HIP "enable HIP backend" OFF)
option(GGML_SYCL "enable SYCL backend" OFF)
option(GGML_VULKAN "enable Vulkan backend" OFF)
option(GGML_METAL "enable Metal backend" OFF)
option(GGML_BLAS "use BLAS for matrix multiplication" OFF)
gml_option_multichoice(GGML_BLAS_VENDOR "BLAS vendor" Generic OpenBLAS Intel FLAME)
option(GGML_OPENMP "use OpenMP" ON)
option(GGML_CPU_AARCH64 "use runtime weight conversion for aarch64" ON)
option(GGML_QUANTIZE_AUTOTUNE "autotune quantized kernels" OFF)

if(GGML_CUDA)
  find_package(CUDA 12.0 REQUIRED)
  set(GGML_USE_CUDA ON)
endif()
if(GGML_SYCL)
  find_package(SYCL REQUIRED)
  set(GGML_USE_SYCL ON)
endif()
if(GGML_HIP)
  find_package(HIP REQUIRED)
  set(GGML_USE_HIP ON)
endif()
if(GGML_BLAS)
  if(GGML_BLAS_VENDOR STREQUAL "OpenBLAS")
    find_package(OpenBLAS REQUIRED)
  elseif(GGML_BLAS_VENDOR STREQUAL "Intel")
    find_package(MKL REQUIRED)
  endif()
endif()
if(GGML_OPENMP)
  add_compile_options(-fopenmp)
endif()
if(GGML_AVX512)
  add_compile_options(-msimd=AVX_512)
elseif(GGML_AVX2)
  add_compile_options(-msimd=AVX2_256)
elseif(GGML_AVX)
  add_compile_options(-msimd=AVX_256)
endif()

configure_file(src/ggml-config.h.in include/ggml-config.h)
include_directories(src)

add_library(ggml
  src/ggml.c
  src/ggml-quants.c
  src/ggml-backend.c
  src/ggml-cpu.c)

if(GGML_CUDA)
  add_library(ggml-cuda src/ggml-cuda.c)
endif()
if(GGML_SYCL)
  add_library(ggml-sycl src/ggml-sycl.c)
endif()
"""

LLAMA_CMAKE = """\
cmake_minimum_required(VERSION 3.14)
project(llama.cpp)

option(LLAMA_BUILD_SERVER "build the llama server" ON)
option(LLAMA_BUILD_TESTS "build tests" OFF)
option(LLAMA_CURL "use libcurl to download models" OFF)
option(LLAMA_ALL_WARNINGS "enable all warnings" ON)

include(ggml.cmake)

add_library(llama
  src/llama.c
  src/llama-sampling.c
  src/llama-vocab.c)
target_link_libraries(llama ggml)

add_executable(llama-bench src/llama-bench.c)
target_link_libraries(llama-bench llama)
"""

GGML_CONFIG_H_IN = """\
#cmakedefine01 GGML_USE_CUDA
#cmakedefine01 GGML_USE_SYCL
#cmakedefine01 GGML_USE_HIP
#cmakedefine01 GGML_OPENMP
"""

GGML_C = """\
#include "ggml-config.h"

double vec_dot_q4(float* x, float* y, int n_vec) {
    double sum = 0.0;
    #pragma omp parallel for reduction(+: sum)
    for (int i = 0; i < n_vec; i++) {
        float xs = x[i] * 0.0625f;
        sum += xs * y[i];
    }
    return sum;
}

void matmul_row(float* w, float* act, float* out, int n_cols, int row) {
    float acc = 0.0f;
    for (int j = 0; j < n_cols; j++) {
        acc += w[row * n_cols + j] * act[j];
    }
    out[row] = acc;
}
"""

GGML_QUANTS_C = """\
#include "ggml-config.h"

void dequantize_q4(float* q, float* out, int n_blocks) {
    #pragma omp parallel for
    for (int b = 0; b < n_blocks; b++) {
        float d = q[b] * 0.0625f;
        out[b] = d * 15.0f - d * 8.0f;
    }
}
"""

GGML_BACKEND_C = """\
#include "ggml-config.h"

#if GGML_USE_CUDA
int backend_count() { return 2; }
#else
int backend_count() { return 1; }
#endif
"""

GGML_CPU_C = """\
#include "ggml-config.h"

void softmax_row(float* logits, float* probs, int n_vocab) {
    float maxv = logits[0];
    for (int i = 0; i < n_vocab; i++) { maxv = fmax(maxv, logits[i]); }
    float denom = 0.0f;
    for (int i = 0; i < n_vocab; i++) {
        probs[i] = expf(logits[i] - maxv);
        denom += probs[i];
    }
    for (int i = 0; i < n_vocab; i++) { probs[i] = probs[i] / denom; }
}
"""

GGML_CUDA_C = """\
#include "ggml-config.h"

#if GGML_USE_CUDA
void cuda_matmul_q4(float* w, float* act, float* out, int n_gpu_tiles) {
    for (int t = 0; t < n_gpu_tiles; t++) {
        out[t] = w[t] * act[t] * 0.0625f;
    }
}
#endif
"""

GGML_SYCL_C = """\
#include "ggml-config.h"

#if GGML_USE_SYCL
void sycl_matmul_q4(float* w, float* act, float* out, int n_gpu_tiles) {
    for (int t = 0; t < n_gpu_tiles; t++) {
        out[t] = w[t] * act[t] * 0.0625f;
    }
}
#endif
"""

LLAMA_C = """\
#include "ggml-config.h"

int decode_token(int token, int n_layers) {
    int work = 0;
    for (int l = 0; l < n_layers; l++) { work += l + token; }
    return work;
}
"""

LLAMA_SAMPLING_C = """\
#include "ggml-config.h"

int sample_greedy(float* probs, int n_vocab) {
    int best = 0;
    for (int i = 0; i < n_vocab; i++) {
        if (probs[i] > probs[best]) { best = i; }
    }
    return best;
}
"""

LLAMA_VOCAB_C = """\
#include "ggml-config.h"

int tokenize_bytes(int n_bytes) {
    int tokens = 0;
    for (int i = 0; i < n_bytes; i += 4) { tokens += 1; }
    return tokens;
}
"""

LLAMA_BENCH_C = """\
#include "ggml-config.h"

int bench_iterations(int pp, int tg) { return pp + tg; }
"""


def llamacpp_tree() -> SourceTree:
    return SourceTree({
        "CMakeLists.txt": LLAMA_CMAKE,
        "ggml.cmake": GGML_CMAKE,
        "src/ggml-config.h.in": GGML_CONFIG_H_IN,
        "src/ggml.c": GGML_C,
        "src/ggml-quants.c": GGML_QUANTS_C,
        "src/ggml-backend.c": GGML_BACKEND_C,
        "src/ggml-cpu.c": GGML_CPU_C,
        "src/ggml-cuda.c": GGML_CUDA_C,
        "src/ggml-sycl.c": GGML_SYCL_C,
        "src/llama.c": LLAMA_C,
        "src/llama-sampling.c": LLAMA_SAMPLING_C,
        "src/llama-vocab.c": LLAMA_VOCAB_C,
        "src/llama-bench.c": LLAMA_BENCH_C,
    })


def llamacpp_model() -> AppModel:
    """llama.cpp with the paper's benchmark: pp512 + tg128, 13B 4-bit."""
    d_model = 5120.0       # LLama-2-13B hidden size
    n_layers = 40.0
    return AppModel(
        name="llama.cpp",
        tree=llamacpp_tree(),
        sweeps={
            "GGML_CUDA": ["OFF", "ON"],
            "GGML_AVX512": ["OFF", "ON"],
            "GGML_OPENMP": ["OFF", "ON"],
        },
        workloads={
            "pp512": Workload(
                name="pp512",
                bindings=_llama_bindings(d_model, tokens=512.0),
                steps=1, io_seconds=0.2,
                description="prompt processing, 512 tokens"),
            "tg128": Workload(
                name="tg128",
                bindings=_llama_bindings(d_model, tokens=128.0),
                steps=1, io_seconds=0.2,
                description="text generation, 128 tokens"),
        },
        hot_functions={"vec_dot_q4": 1.0, "dequantize_q4": 1.0, "softmax_row": 1.0},
        gpu_functions=frozenset({"vec_dot_q4", "dequantize_q4"}),
        gpu_work_binding="n_vec",
        gpu_unit_cost=0.0545,
        scale=1.0,
    )


def _llama_bindings(d_model: float, tokens: float) -> dict[str, float]:
    # Work units per token: one unit per synthetic vec_dot lane-element; the
    # 4.02e8 factor maps 13B-parameter matmul MACs onto the synthetic kernel
    # so the Ault23 CPU baseline lands at the paper's 26.9 s
    # (benchmarks/test_fig11_llamacpp_portability.py prints both).
    n_vec = 4.02e8 * tokens
    return {
        "n_vec": n_vec,
        "n_cols": d_model,
        "n_blocks": n_vec / 32.0,
        "n_vocab": 32_000.0,
        "n_layers": 40.0,
        "n_gpu_tiles": n_vec,
        "n_bytes": 2048.0,
        "while_iters": 4.0,
        "row": 0.0,
        "token": 1.0,
        "pp": 512.0,
        "tg": 128.0,
    }
