"""Shared benchmark fixtures and reporting helpers.

Every benchmark regenerates one table or figure from the paper's evaluation
and prints the rows it produced next to the paper's values. Absolute numbers
come from the calibrated performance model (``repro.perf.machine``); the
assertions check the *shape* — orderings, ratios, crossovers.

``XAAS_BENCH_SCALE`` (default 0.25) controls the GROMACS source-tree scale
for the pipeline-statistics benchmarks; 1.0 reproduces the paper's absolute
TU counts at ~10x the runtime.

Tier-1 runs every ``benchmark`` fixture for one round (``pytest.ini`` sets
``--benchmark-disable``): the assertions are about model times, which no
number of wall-clock rounds changes. ``python -m pytest benchmarks -o
addopts=""`` runs pytest-benchmark's calibrated rounds and prints its
timing table.

Benchmarks that track a perf trajectory across PRs record a JSON blob via
the ``bench_json`` fixture; each recorded name is written to
``benchmarks/BENCH_<name>.json`` at session end (CI archives them, local
runs leave them for eyeballing).
"""

import json
import os

import pytest

BENCH_SCALE = float(os.environ.get("XAAS_BENCH_SCALE", "0.25"))

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_BENCH_JSON: dict[str, dict] = {}


@pytest.fixture()
def bench_json():
    """``bench_json(name, payload)`` records one benchmark's machine-
    readable results for the BENCH_<name>.json session artifact."""
    def record(name: str, payload: dict) -> None:
        _BENCH_JSON.setdefault(name, {}).update(payload)
    return record


def pytest_sessionfinish(session, exitstatus):
    for name, payload in _BENCH_JSON.items():
        path = os.path.join(_BENCH_DIR, f"BENCH_{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

# Tables are both printed (visible with -s) and collected for the terminal
# summary, so `pytest benchmarks/ -o addopts="" --benchmark-only` shows the
# regenerated figures next to pytest-benchmark's timing table.
_TABLES: list[str] = []


def print_table(title: str, header: tuple, rows: list) -> None:
    lines = [f"\n=== {title} ==="]
    widths = [max(len(str(header[i])), *(len(str(r[i])) for r in rows))
              for i in range(len(header))]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines.append(fmt.format(*header))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(fmt.format(*[str(c) for c in row]))
    text = "\n".join(lines)
    print(text)
    _TABLES.append(text)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLES:
        return
    terminalreporter.section("regenerated paper tables & figures")
    for text in _TABLES:
        terminalreporter.write_line(text)


@pytest.fixture(scope="session")
def gromacs_bench_model():
    from repro.apps import gromacs_model
    return gromacs_model(scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def gromacs_perf_model():
    """Smaller tree for perf benchmarks (kernels identical at any scale)."""
    from repro.apps import gromacs_model
    return gromacs_model(scale=0.01)
