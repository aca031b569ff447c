#!/usr/bin/env python3
"""Compare two sets of ``run.py --report`` files, workload by workload.

    compare.py A1.json A2.json A3.json --vs B1.json B2.json B3.json [--aa]

For every workload and end-to-end metric: each side's median and quartiles
over its reports, how much worse side B's median is than side A's (as a
share of A's, sign turned so that positive is worse), and a verdict against
the metric's bound in BENCHMARK.json:

    ok          B is not worse than A by more than the bound
    regressed   B is worse by more than the bound
    unresolved  the run-to-run spread of a side is wider than the bound and
                the two sides overlap, so the comparison decides nothing

``failed_share`` (samples failed / attempted, over all reports of a side) has
the absolute bound 0: any failure on side B (with ``--aa``, on either side)
is a regression.

Exits 1 if anything regressed. ``--aa`` is for two sets of runs of the same
code: it exits 1 unless every verdict is ``ok``, i.e. unless the benchmark
resolves its own bounds. A/B sets should be taken alternately (A B A B ...).

Below the table, the ratios between workloads that ROADMAP item 2 and 3 set
targets on are printed for each side.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load_side(paths: list[str]) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> one value per report that ran the workload.
    ``attempted`` and ``failed`` ride along as if they were metrics."""
    side: dict[str, dict[str, list[float]]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        for workload, body in report["workloads"].items():
            rows = side.setdefault(workload, {})
            for metric, row in body["end_to_end"].items():
                rows.setdefault(metric, []).append(row["value"])
            for count in ("attempted", "failed"):
                rows.setdefault(count, []).append(body[count])
    return side


def failed_share(rows: dict[str, list[float]]) -> float:
    return sum(rows["failed"]) / sum(rows["attempted"])


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)"""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[float, str]:
    a_med, a_q1, a_q3 = summary(a)
    b_med, b_q1, b_q3 = summary(b)
    worse = (b_med - a_med) / a_med
    if better == "higher":
        worse = -worse
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if spread > bound and overlap:
        return worse, "unresolved"
    return worse, "regressed" if worse > bound else "ok"


def derived(side: dict[str, dict[str, list[float]]]) -> list[str]:
    def med(workload: str, metric: str) -> float | None:
        values = side.get(workload, {}).get(metric)
        return statistics.median(values) if values else None

    lines = []
    for metric in ("wall_s", "cpu_s"):
        farm, local = med("farm_cold", metric), med("local_cold", metric)
        if farm and local:
            lines.append(f"farm_cold / local_cold {metric}: "
                         f"{farm / local:.3f}  ({farm:.3f} / {local:.3f})")
    remote, warm = med("remote_warm", "wall_s"), med("local_warm", "wall_s")
    if remote and warm:
        lines.append(f"remote_warm - local_warm wall_s (the wire): "
                     f"{remote - warm:.3f} s  ({remote:.3f} - {warm:.3f})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", nargs="+", metavar="A.json")
    parser.add_argument("--vs", nargs="+", required=True, metavar="B.json")
    parser.add_argument("--aa", action="store_true",
                        help="both sides are the same code: fail unless "
                             "every verdict is ok")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    side_a, side_b = load_side(args.a), load_side(args.vs)

    verdicts = []
    print(f"{'workload/metric':<30} {'A median (q1..q3)':>30} "
          f"{'B median (q1..q3)':>30} {'worse':>8} {'bound':>6}  verdict")
    for workload in side_a:
        if workload not in side_b:
            continue
        for name, meta in metrics.items():
            a = side_a[workload].get(name)
            b = side_b[workload].get(name)
            if not a or not b:
                continue
            worse, word = verdict(a, b, meta["better"], meta["bound"])
            verdicts.append(word)
            cells = ["{:.4f} ({:.4f}..{:.4f})".format(*summary(values))
                     for values in (a, b)]
            print(f"{workload + '/' + name:<30} {cells[0]:>30} {cells[1]:>30}"
                  f" {worse:>+8.1%} {meta['bound']:>6.0%}  {word}")
        shares = [failed_share(side[workload]) for side in (side_a, side_b)]
        word = ("regressed" if shares[1] > 0 or (args.aa and shares[0] > 0)
                else "ok")
        verdicts.append(word)
        print(f"{workload + '/failed_share':<30} {shares[0]:>30.4f} "
              f"{shares[1]:>30.4f} {'':>8} {'0':>6}  {word}")
    for label, side in (("A", side_a), ("B", side_b)):
        for line in derived(side):
            print(f"{label}: {line}")
    if not verdicts:
        raise SystemExit("the two sides share no workload")
    bad = {"regressed", "unresolved"} if args.aa else {"regressed"}
    return 1 if bad & set(verdicts) else 0


if __name__ == "__main__":
    sys.exit(main())
