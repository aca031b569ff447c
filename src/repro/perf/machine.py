"""Machine performance parameters for the execution model.

Each testbed node gets a :class:`MachinePerf` record keyed by the
``perf_key`` of its :class:`~repro.discovery.system.SystemSpec`. Parameters
are calibrated so the simulated kernels land near the paper's measured
runtimes (the ``benchmarks/test_fig*`` runs print paper-vs-measured); the
*relationships*
(which build wins, crossover points) emerge from executing the lowered code,
not from per-experiment constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class MachinePerf:
    """Throughput description of one machine."""

    key: str
    clock_ghz: float
    ipc: float                   # sustained instructions-per-cycle factor
    thread_efficiency: float     # OpenMP scaling: eff lanes = 1+(t-1)*eff
    # Relative GPU kernel throughput in "pair units"/second (0 = no GPU).
    gpu_tput: float = 0.0
    gpu_launch_overhead_s: float = 1.0e-4
    # Library speed coefficients: multiplier on library work (lower=faster).
    library_coeff: dict[str, float] = field(default_factory=dict)
    # Container runtime overhead on total runtime (the paper finds it
    # negligible; keep it small but nonzero).
    container_overhead: float = 0.005
    # Wide out-of-order cores (Grace/Neoverse V2) run scalar code relatively
    # faster, shrinking the None->SIMD gap on ARM (Fig. 2 right).
    scalar_boost: float = 1.0

    def threads_effective(self, threads: int) -> float:
        if threads <= 1:
            return 1.0
        return 1.0 + (threads - 1) * self.thread_efficiency


_DEFAULT_LIBS = {
    # CPU FFT backends
    "fftw3": 1.00, "mkl": 0.80, "fftpack": 1.90, "own-fftw": 1.05,
    # BLAS backends (affects the paper's Spack-default-vs-MKL gap, Fig. 10)
    "openblas": 1.25, "blis": 1.10, "internal-blas": 1.45, "cray-libsci": 0.95,
    # GPU FFT
    "cufft": 0.40, "vkfft": 0.55, "rocfft": 0.45, "onemath": 0.50, "clfft": 0.75,
}


def _m(key, clock, ipc, teff, gpu=0.0, libs=None, **kw):
    merged = dict(_DEFAULT_LIBS)
    merged.update(libs or {})
    return MachinePerf(key=key, clock_ghz=clock, ipc=ipc,
                       thread_efficiency=teff, gpu_tput=gpu,
                       library_coeff=merged, **kw)


MACHINES: dict[str, MachinePerf] = {m.key: m for m in [
    # Intel Xeon Gold 6130 (Ault23): the Fig. 2 x86 and Fig. 10 machine.
    _m("xeon-6130", clock=2.1, ipc=1.35, teff=0.82, gpu=0.42,
       libs={"mkl": 0.75}),
    # Intel Xeon Gold 6154 (Ault01-04): Fig. 12 CPU runs, higher clock.
    _m("xeon-6154", clock=3.0, ipc=1.35, teff=0.80, gpu=0.0,
       libs={"mkl": 0.75}),
    # AMD EPYC 7742 (Ault25): A100 host; MKL less favoured on AMD.
    _m("epyc-7742", clock=2.25, ipc=1.30, teff=0.85, gpu=0.48,
       libs={"mkl": 1.05, "openblas": 1.10}),
    # NVIDIA Grace Hopper (Clariden): fast ARM cores, H100-class GPU.
    _m("gh200", clock=3.1, ipc=1.42, teff=0.88, gpu=0.90,
       libs={"cray-libsci": 0.90}, scalar_boost=1.55),
    # Intel Xeon Max + Intel Data Center GPU Max (Aurora).
    _m("xeon-max", clock=2.0, ipc=1.30, teff=0.78, gpu=0.17,
       libs={"onemath": 0.95, "mkl": 0.72}),
    # Generic dev machine.
    _m("dev", clock=3.0, ipc=1.2, teff=0.75),
]}


def machine_perf(key: str) -> MachinePerf:
    try:
        return MACHINES[key]
    except KeyError:
        raise KeyError(f"unknown machine perf key {key!r}; known: {sorted(MACHINES)}") from None
