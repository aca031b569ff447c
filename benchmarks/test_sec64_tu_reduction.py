"""Sec. 6.4 "Configurability and System Dependency": Hypotheses 1 & 2.

Paper (GROMACS, scale 1.0): five ISA builds 8710 TUs -> 2695 IRs (69%);
4 configs with 2 vectorization x CUDA 7052 -> 2694 (76%); OpenMP x MPI
6976 -> 2333 (66.4%); 96% of repeat TUs have incompatible raw flags;
LULESH: 20 TUs -> 14 IRs. The benchmark runs the real pipeline at
XAAS_BENCH_SCALE and checks the reduction percentages, which are
scale-invariant by construction.
"""

from conftest import BENCH_SCALE, print_table

from repro.apps import (
    cuda_vector_configs,
    five_isa_configs,
    lulesh_configs,
    lulesh_model,
    mpi_openmp_configs,
)
from repro.core import build_ir_container

# Targets derive from the paper's reported TU/IR counts. Note: the paper's
# prose calls the CUDA experiment a "76% reduction", but its own counts
# (7052 TUs -> 2694 IRs) give 1 - 2694/7052 = 61.8%; we target the counts.
PAPER = {
    "5-ISA": (8710, 2695, 0.69),
    "CUDA+vec": (7052, 2694, 0.618),
    "MPIxOpenMP": (6976, 2333, 0.664),
}


def _run(app, configs):
    return build_ir_container(app, configs, compile_irs=False).stats


def test_lulesh_20_to_14(benchmark):
    stats = benchmark(lambda: _run(lulesh_model(), lulesh_configs()))
    print_table("LULESH pipeline (Sec. 4.3)",
                ("stage", "count"),
                [("configuration", stats.after_configuration),
                 ("preprocessing", stats.after_preprocessing),
                 ("openmp", stats.after_openmp),
                 ("final IRs", stats.final_irs)])
    assert stats.total_tus == 20
    assert stats.after_configuration == 20
    assert stats.after_preprocessing == 20  # "this step does not change the result"
    assert stats.final_irs == 14
    assert stats.validates_hypothesis1()


def test_gromacs_five_isa(benchmark, gromacs_bench_model):
    stats = benchmark(lambda: _run(gromacs_bench_model, five_isa_configs()))
    _report("5-ISA", stats)
    assert abs(stats.reduction - PAPER["5-ISA"][2]) < 0.06
    assert stats.incompatible_flag_fraction > 0.9  # paper: 96%


def test_gromacs_cuda_vectorization(benchmark, gromacs_bench_model):
    stats = benchmark(lambda: _run(gromacs_bench_model, cuda_vector_configs()))
    _report("CUDA+vec", stats)
    assert abs(stats.reduction - PAPER["CUDA+vec"][2]) < 0.06


def test_gromacs_mpi_openmp(benchmark, gromacs_bench_model):
    stats = benchmark(lambda: _run(gromacs_bench_model, mpi_openmp_configs()))
    _report("MPIxOpenMP", stats)
    assert abs(stats.reduction - PAPER["MPIxOpenMP"][2]) < 0.08


def test_stage_ablation(benchmark, gromacs_bench_model):
    """Per-stage contribution (stage ablation): disabling any stage
    strictly increases the IR count."""
    configs = five_isa_configs()

    def run():
        full = build_ir_container(gromacs_bench_model, configs, compile_irs=False)
        no_vec = build_ir_container(gromacs_bench_model, configs, compile_irs=False,
                                    stages=("preprocess", "openmp"))
        none = build_ir_container(gromacs_bench_model, configs, compile_irs=False,
                                  stages=())
        return full.stats, no_vec.stats, none.stats

    full, no_vec, none = benchmark(run)
    print_table("Stage ablation (5-ISA sweep)",
                ("pipeline", "final IRs", "reduction"),
                [("all stages", full.final_irs, f"{full.reduction:.1%}"),
                 ("no vectorization delay", no_vec.final_irs, f"{no_vec.reduction:.1%}"),
                 ("no dedup at all", none.final_irs, f"{none.reduction:.1%}")])
    assert full.final_irs < no_vec.final_irs <= none.final_irs
    assert none.final_irs == none.total_tus


def test_hypothesis2_system_dependency(benchmark, gromacs_bench_model):
    """|SI| >> |SD|: most files compile to shared IR without knowing the
    system; the system-dependent rest is small (MPI-text-dependent files and
    conditionally-compiled GPU modules)."""
    from repro.buildsys import configure
    from repro.perf import default_build_environment

    def run():
        env = default_build_environment()
        base = configure(gromacs_bench_model.tree,
                         {"GMX_SIMD": "AVX_256", "GMX_FFT_LIBRARY": "fftpack"},
                         env=env, build_dir="/xaas/build")
        mpi = configure(gromacs_bench_model.tree,
                        {"GMX_SIMD": "AVX_256", "GMX_MPI": "ON",
                         "GMX_FFT_LIBRARY": "fftpack"},
                        env=env, build_dir="/xaas/build", name="mpi")
        cuda = configure(gromacs_bench_model.tree,
                         {"GMX_SIMD": "AVX_256", "GMX_GPU": "CUDA",
                          "GMX_FFT_LIBRARY": "fftpack"},
                         env=env, build_dir="/xaas/build", name="cuda")
        base_sources = {c.source for c in base.compile_commands}
        mpi_dep = {s for s in base_sources
                   if "GMX_MPI" in gromacs_bench_model.tree.read(s)}
        conditional = {c.source for c in cuda.compile_commands} - base_sources
        sd = mpi_dep | conditional
        si = base_sources - sd
        return len(si), len(sd)

    si, sd = benchmark(run)
    print_table("Hypothesis 2 (system dependency)",
                ("class", "files", "fraction"),
                [("system-independent (SI)", si, f"{si / (si + sd):.1%}"),
                 ("system-dependent (SD)", sd, f"{sd / (si + sd):.1%}")])
    assert si > 4 * sd  # |SI| >> |SD|


def _report(key, stats):
    paper_tus, paper_irs, paper_red = PAPER[key]
    print_table(f"Sec 6.4 {key} (scale={BENCH_SCALE})",
                ("metric", "paper (scale 1.0)", "measured"),
                [("TUs", paper_tus, stats.total_tus),
                 ("IRs", paper_irs, stats.final_irs),
                 ("reduction (from counts)", f"{paper_red:.1%}", f"{stats.reduction:.1%}"),
                 ("incompatible flags", "96%",
                  f"{stats.incompatible_flag_fraction:.0%}")])
    assert stats.validates_hypothesis1()
