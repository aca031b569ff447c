"""Smoke test of the benchmark itself: schema, coverage, verification.

Runs ``run.py --smoke`` (smoke scale, one sample per workload, traced). It
asserts what the benchmark reports, never how long anything took.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ("local_cold", "local_warm", "remote_warm", "farm_cold")
MUST_WORK = {
    "every": ["cli.import_s", "pipeline.tus_total", "core.lowered_tus",
              "containers.cache_ops", "store.ops", "store.busy_s",
              "telemetry.spans"],
    "local_cold": ["pipeline.build_s", "pipeline.stage.preprocess_s",
                   "pipeline.preprocess_ops", "core.lowerings_performed",
                   "store.put_ops", "store.cas_ops", "calls.total_k",
                   "calls.compiler_k"],
    "local_warm": ["pipeline.deploy_batch_s", "pipeline.cache_hit_share",
                   "core.lowerings_reused", "store.get_ops",
                   "calls.containers_k"],
    "remote_warm": ["wire.round_trips", "wire.connections",
                    "wire.bytes_out_mb", "wire.client_s",
                    "wire.ms_per_round_trip", "async_server.cpu_s",
                    "calls.store_k"],
    "farm_cold": ["cluster.start_s", "cluster.build_s", "cluster.jobs",
                  "cluster.workers_cpu_s", "cluster.worker_busy_s",
                  "cluster.stage_runs.preprocess", "cluster.replay_s",
                  "pipeline.preprocess_ops"],
}


def run_smoke(tmp_path, *extra):
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--work-dir", str(tmp_path), "--report", str(report), *extra],
        capture_output=True, text=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc, result, json.loads(report.read_text())


def test_smoke_reports_every_metric_of_benchmark_json(tmp_path):
    proc, result, report = run_smoke(tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS)
    assert report["schema"] == 1 and report["same_images"] is True
    assert set(report["environment"]) == {"filesystem", "nproc", "python",
                                          "commit"}
    assert set(report["workloads"]) == set(WORKLOADS)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    for name, body in report["workloads"].items():
        assert body["correct"] and not body["errors"], (name, body["errors"])
        assert body["failed_share"] == 0
        for section in ("end_to_end", "per_layer"):
            for metric in bench[section]:
                row = body[section][metric["name"]]
                assert row["unit"] == metric["unit"]
                assert math.isfinite(row["value"]), (name, metric["name"])
                # The last line carries the traced run's per-layer metrics.
                if section == "per_layer":
                    key = f"{name}/{metric['name']}"
                    assert result["metrics"][key]["value"] == row["value"]
        assert all(body["end_to_end"][m["name"]]["value"] > 0
                   for m in bench["end_to_end"])
        # run.py reports 0 only for layers that do not exist on a workload;
        # these exist, so a 0 means a probe or a span name broke.
        layers = {key: row["value"] for key, row in body["per_layer"].items()}
        for key in MUST_WORK[name] + MUST_WORK["every"]:
            assert layers[key] > 0, (name, key)
    # The run's temporary directory is gone.
    assert sorted(os.listdir(tmp_path)) == ["report.json"]


def test_wrong_expectation_fails_the_run(tmp_path):
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    expected["isa"]["ault25"] = "AVX_512"  # an EPYC 7742 has no AVX-512
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(expected))
    proc, result, report = run_smoke(tmp_path, "--workload", "local_cold",
                                     "--expected", str(wrong))
    assert proc.returncode != 0
    assert result["correct"] is False and result["failed"] >= 1
    errors = report["workloads"]["local_cold"]["errors"]
    assert any("ault25" in error and "AVX2_256" in error for error in errors)
