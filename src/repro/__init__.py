"""repro — reproduction of "XaaS Containers: Performance-Portable
Representation With Source and IR Containers" (SC '25).

Packages
--------
``repro.core``
    The paper's contribution: source containers, the IR-container pipeline,
    feature intersection, deployment.
``repro.pipeline``
    Staged execution engine: stage graph with validated dataflow, artifact
    cache plumbing, parallel map, batch deployment planning.
``repro.compiler``
    Clang/LLVM analog: preprocessor, C-subset frontend, structured IR,
    passes, ISA lowering, reference interpreter.
``repro.buildsys``
    Mini-CMake: build-script parsing, configuration, compile-commands DBs.
``repro.containers``
    OCI substrate: blobs, layers, manifests, indexes, registries, runtimes,
    hooks.
``repro.discovery``
    System features, specialization extraction, simulated-LLM analysts,
    scoring.
``repro.apps``
    Synthetic GROMACS / LULESH / llama.cpp / Quantum-ESPRESSO models.
``repro.perf``
    Machine models and symbolic execution of lowered kernels.
``repro.netfabric``
    libfabric provider matrix and MPI bandwidth model.

See docs/architecture.md for the system inventory; the
``benchmarks/test_fig*`` / ``test_table*`` runs print paper-vs-reproduced
values for every table and figure.
"""

__version__ = "1.0.0"
