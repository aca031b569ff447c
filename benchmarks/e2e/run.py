#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the XaaS build and deploy commands.

    python3 benchmarks/e2e/run.py --workload local_cold --seed 0 --seconds 20 --trace 0

Each workload is one user-visible operation on the GROMACS model at the scale
in inputs.json (README.md says why these four and what each bypasses):

    local_cold    build_ir_container + deploy_batch on an empty file store
    local_warm    the same calls, fresh process, on a store populated once
    remote_warm   local_warm through RemoteBackend -> AsyncStoreServer
    farm_cold     LocalCluster(2 process workers) build on an empty store

A sample is one fresh ``ops.py`` process doing the operation once, closed
loop, one client. The run takes ``SAMPLES`` samples of each workload (more
only while ``--seconds`` have not passed), round-robin when several workloads
are selected, verifies every one against expected.json and against the other
samples, and prints every metric by name with its unit; the last line of
standard output is the JSON result.
``--trace 0`` reports the end-to-end metrics, each the median over the run's
samples except ``setup_s``, the run's total outside timed regions;
``--trace 1`` adds one sample under the probes of probe.py and one call-count
sample and reports the per-layer metrics. Names, units and bounds come from
BENCHMARK.json.

This file imports nothing from ``repro``; the program sees only the spec
generated here from ``--seed``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OPS = os.path.join(HERE, "ops.py")
MIB = 1024 * 1024

#: name -> (operation of ops.py, store already populated, through the wire)
WORKLOADS = {
    "local_cold": ("batch", False, False),
    "local_warm": ("batch", True, False),
    "remote_warm": ("batch", True, True),
    "farm_cold": ("farm", False, False),
}

#: Untraced samples of a workload per run. README.md, "Fitting a time cap",
#: says why 7 and why never fewer.
SAMPLES = 7

#: Per-layer metrics that do not exist on a workload (name prefixes) and are
#: reported as 0 there. Any other metric of BENCHMARK.json that no probe
#: produced is an error, not a 0.
NOT_APPLICABLE = {
    "local_cold": ("wire.", "cluster."),
    "local_warm": ("wire.", "cluster."),
    "remote_warm": ("cluster.",),
    "farm_cold": ("wire.", "async_server.", "calls.", "pipeline.build_s",
                  "pipeline.deploy_batch_s"),
}

#: A sample that takes longer is killed and counted as failed.
SAMPLE_TIMEOUT_S = 90.0
#: A workload starts no new sample after this much work of its own: the
#: driver allows a run 180 s.
RUN_BUDGET_S = 130.0


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def make_spec(inputs: dict, seed: int, scale: float) -> dict:
    """The program's whole input. Seed 0 is the canonical order; any other
    seed shuffles configuration order and system order. The amount of work
    is the same for every seed, so runs with different seeds are comparable.
    """
    configs = [dict(config) for config in inputs["configs"]]
    systems = list(inputs["systems"])
    if seed:
        rng = random.Random(seed)
        rng.shuffle(configs)
        rng.shuffle(systems)
    return {"app": inputs["app"], "scale": scale, "configs": configs,
            "options": inputs["options"], "systems": systems}


def tree_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def kill_group(proc: subprocess.Popen) -> None:
    """Kill ``proc`` and everything it started (each child leads its own
    process group: farm workers stay in their sample's group), then reap."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


class Run:
    """One workload's fixture, samples, verification and report."""

    def __init__(self, name: str, spec: dict, expected: dict, work: str):
        self.name = name
        self.op, self.warm, self.remote = WORKLOADS[name]
        self.spec = spec
        self.expected = expected
        self.work = tempfile.mkdtemp(prefix=f"{name}-", dir=work)
        self.spec_path = os.path.join(self.work, "spec.json")
        with open(self.spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(ROOT, "src"),
                          os.environ.get("PYTHONPATH")]))
        self.launched = 0
        self.server: subprocess.Popen | None = None
        self.server_info: dict = {}
        self.fixture_store = os.path.join(self.work, "store")
        self.errors: list[str] = []
        self.identity = None  # (image digest, tags, digests) of the first sample
        self.busy_s = 0.0  # wall seconds of everything this workload did
        self.samples: list[dict] = []  # the verified untraced samples
        self.attempted = 0
        self.setup_s = 0.0
        self.traced: dict | None = None
        self.counted: dict | None = None

    @contextlib.contextmanager
    def busy(self):
        """Charges the wall time of the block to this workload: with several
        workloads in one invocation their samples interleave."""
        began = time.monotonic()
        try:
            yield
        finally:
            self.busy_s += time.monotonic() - began

    # -- processes -------------------------------------------------------------

    def _popen(self, argv: list[str], **kwargs) -> subprocess.Popen:
        return subprocess.Popen([sys.executable, OPS] + argv, env=self.env,
                                cwd=self.work, start_new_session=True,
                                **kwargs)

    def set_up(self) -> None:
        """Warm workloads: populate the store with one cold build, then (for
        the remote one) serve it from a second process."""
        if not self.warm:
            return
        with self.busy():
            populate = self.sample(self.fixture_store, cold=True)
            if populate is None:
                raise RuntimeError(
                    f"{self.name}: populating the store failed: "
                    + "; ".join(self.errors))
            if self.remote:
                self.server = self._popen(
                    ["serve", "--store", self.fixture_store],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE)
                line = self.server.stdout.readline()
                if not line:
                    raise RuntimeError(
                        f"{self.name}: store server did not start")
                self.server_info = json.loads(line)

    def tear_down(self) -> None:
        if self.server is not None:
            self.server.stdin.close()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
            kill_group(self.server)
            self.server.stdout.close()
        shutil.rmtree(self.work, ignore_errors=True)

    # -- one sample ------------------------------------------------------------

    def sample(self, store_dir: str, cold: bool, op: str = "",
               probe: str = "none", trace_out: str = "") -> dict | None:
        """Run one ops.py process; returns its verified result or None (the
        reasons are appended to ``self.errors``)."""
        op = op or self.op
        self.launched += 1
        tag = f"{self.name} sample {self.launched}"
        out = os.path.join(self.work, f"result-{self.launched}.json")
        argv = ["sample", "--spec", self.spec_path, "--op", op,
                "--out", out, "--probe", probe]
        if trace_out:
            argv += ["--trace-out", os.path.abspath(trace_out)]
        if self.server is not None:
            argv += ["--server", "{host}:{port}".format(**self.server_info),
                     "--server-pid", str(self.server_info["pid"])]
        else:
            argv += ["--store", store_dir]
        with open(os.path.join(self.work, "stderr.log"), "w+b") as log:
            proc = self._popen(argv, stdout=subprocess.DEVNULL, stderr=log)
            try:
                code = proc.wait(timeout=SAMPLE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                kill_group(proc)
            if code != 0:
                log.seek(0)
                tail = log.read().decode("utf-8", "replace").strip()[-600:]
                self.errors.append(
                    f"{tag}: " + (f"exit code {code}: {tail}" if code is not None
                                  else f"killed after {SAMPLE_TIMEOUT_S:.0f} s"))
                return None
        result = load_json(out)
        result["peak_rss_mb"] = result["peak_rss_kib"] / 1024.0
        result["store_mb"] = tree_bytes(store_dir) / MIB
        problems = self.verify(result, cold, op)
        self.errors.extend(f"{tag}: {problem}" for problem in problems)
        return None if problems else result

    def verify(self, result: dict, cold: bool, op: str) -> list[str]:
        problems = []
        rows = result["deployments"]
        if [row["system"] for row in rows] != self.spec["systems"]:
            problems.append("deployments are not the requested systems in "
                            f"request order: {[r['system'] for r in rows]}")
        for row in rows:
            want = self.expected["isa"].get(row["system"])
            if row["simd"] != want:
                problems.append(f"{row['system']} was lowered for "
                                f"{row['simd']}, expected {want}")
        stats = result["stats"]
        lowered = result["lowerings_performed"]
        if cold:
            if stats["preprocess_ops"] <= 0:
                problems.append("cold sample preprocessed nothing")
            if (self.spec["scale"] == self.expected["scale"]
                    and lowered != self.expected["cold_lowerings"]):
                problems.append(f"{lowered} lowerings performed, expected "
                                f"{self.expected['cold_lowerings']}")
        elif stats["preprocess_ops"] or stats["ir_compile_ops"] or lowered:
            problems.append(f"warm sample did work: {stats}, "
                            f"{lowered} lowerings")
        identity = [result["image_digest"],
                    sorted((r["system"], r["tag"], r["digest"]) for r in rows)]
        if op == "farm" and result["layers"]["cluster.duplicate_lowerings"]:
            problems.append("farm lowered something twice")
        if self.identity is None:
            self.identity = identity
        elif identity != self.identity:
            problems.append("tags or image digests differ from the run's "
                            "first sample")
        return problems

    def measured_sample(self, redeploy: bool = False,
                        **kwargs) -> dict | None:
        """One sample of the workload proper: warm workloads reuse the
        fixture, cold ones get an empty directory that is removed after.

        The farm reports tags and digests but no artifacts. With
        ``redeploy``, a fresh process then runs build_ir_container +
        deploy_batch on the store the farm left: it must find everything
        warm and yield the same images, and it gives the predicted run time.
        """
        if self.warm:
            return self.sample(self.fixture_store, cold=False, **kwargs)
        store_dir = os.path.join(self.work, f"store-{self.launched + 1}")
        try:
            result = self.sample(store_dir, cold=True, **kwargs)
            if result is not None and redeploy:
                later = self.sample(store_dir, cold=False, op="batch")
                if later is None:
                    return None
                result["predicted_run_s"] = later["predicted_run_s"]
            return result
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)

    # -- the run ---------------------------------------------------------------

    def wants_sample(self, count: int, seconds: float) -> bool:
        """``count`` samples, and more while ``seconds`` of the workload's
        own time have not passed."""
        if self.busy_s > RUN_BUDGET_S:
            return False
        return self.attempted < count or self.busy_s < seconds

    def take_sample(self) -> None:
        with self.busy():
            self.attempted += 1
            result = self.measured_sample(
                redeploy=self.op == "farm" and self.attempted == 1)
        if result is not None:
            self.samples.append(result)
        # setup_s: every wall second the workload has spent so far outside a
        # timed region - fixture, each sample's launch -> ready and exit,
        # verification. The probed samples come later and are not in it.
        self.setup_s = self.busy_s - sum(s["wall_s"] for s in self.samples)

    def take_probed(self, trace_out: str) -> None:
        with self.busy():
            self.attempted += 1
            self.traced = self.measured_sample(probe="spans",
                                               trace_out=trace_out)
            if self.op != "farm":
                # The farm's work is in worker processes the benchmark does
                # not start, so a call count of the client says little.
                self.attempted += 1
                self.counted = self.measured_sample(probe="calls")

    def report(self, bench: dict, seed: int, trace: bool) -> dict:
        done = self.samples + [self.traced, self.counted]
        failed = self.attempted - sum(1 for s in done if s is not None)
        report: dict = {
            "seed": seed, "scale": self.spec["scale"],
            "attempted": self.attempted, "failed": failed,
            "failed_share": failed / self.attempted,
            "errors": self.errors, "identity": self.identity,
            "run_s": self.busy_s,
            "correct": bool(self.samples) and not self.errors,
        }
        names = [metric["name"] for metric in bench["end_to_end"]]
        report["samples"] = [{name: s.get(name) for name in names}
                             for s in self.samples]
        report["end_to_end"] = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            if name == "setup_s":
                # once per run, not a median
                row = {"value": self.setup_s, "n": 1}
            else:
                values = [s[name] for s in self.samples if name in s]
                if not values:
                    continue
                q1, q3 = quartiles(values)
                row = {"value": statistics.median(values), "q1": q1,
                       "q3": q3, "n": len(values)}
            report["end_to_end"][name] = dict(row, unit=metric["unit"])
        if trace and self.traced is not None and self.samples:
            report["per_layer"] = self.per_layer(bench)
        return report

    def per_layer(self, bench: dict) -> dict:
        """Every per-layer metric of BENCHMARK.json. What an untraced sample
        can tell (timings between the public calls, the program's own stats)
        is the median over the untraced samples; what needs a probe comes
        from the one traced or call-counted sample; what does not exist on
        this workload (``NOT_APPLICABLE``) is 0; anything else that is
        missing raises ``KeyError``."""
        layers = dict(self.traced["layers"])
        if self.counted is not None:
            layers.update({key: value
                           for key, value in self.counted["layers"].items()
                           if key.startswith("calls.")})
        for key in self.samples[0]["layers"]:
            layers[key] = statistics.median(s["layers"][key]
                                            for s in self.samples)
        untraced_wall = statistics.median(s["wall_s"] for s in self.samples)
        layers["telemetry.trace_overhead_share"] = (
            self.traced["wall_s"] / untraced_wall - 1.0)
        layers["store.write_amplification"] = (
            (layers["store.put_mb"] + layers["store.cas_mb"])
            / self.traced["store_mb"])
        out = {}
        for metric in bench["per_layer"]:
            name = metric["name"]
            if name not in layers:
                if not name.startswith(NOT_APPLICABLE[self.name]):
                    raise KeyError(f"{self.name}: no probe produced {name}")
                layers[name] = 0
            out[name] = {"value": layers[name], "unit": metric["unit"]}
        return out


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def environment(work: str) -> dict:
    fstype, best = "unknown", ""
    with open("/proc/mounts", encoding="utf-8") as fh:
        for line in fh:
            _dev, mount, kind = line.split()[:3]
            if (os.path.abspath(work) + "/").startswith(
                    mount.rstrip("/") + "/") and len(mount) > len(best):
                fstype, best = kind, mount
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"filesystem": fstype, "nproc": os.cpu_count(),
            "python": platform.python_version(), "commit": commit}


def print_metrics(name: str, report: dict) -> None:
    print(f"== {name}: {report['attempted']} samples, "
          f"{report['failed']} failed, took {report['run_s']:.1f} s")
    for metric, row in report["end_to_end"].items():
        spread = (f"q1 {row['q1']:.4f}  q3 {row['q3']:.4f}  n {row['n']}"
                  if "q1" in row else "the run's total")
        print(f"{name}/{metric:<18} {row['value']:>12.4f} {row['unit']:<8} "
              f"{spread}")
    print(f"{name}/{'failed_share':<18} {report['failed_share']:>12.4f} "
          f"{'ratio':<8} {report['failed']} of {report['attempted']}")
    for metric, row in report.get("per_layer", {}).items():
        print(f"{name}/{metric:<34} {row['value']:>12.4f} {row['unit']}")
    for error in report["errors"]:
        print(f"ERROR {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default="",
                        help="write the traced sample's Chrome trace here")
    parser.add_argument("--report", default="",
                        help="write the full report (both metric sets, "
                             "quartiles, environment) to this file")
    parser.add_argument("--work-dir", default=os.path.join(HERE, ".work"),
                        help="parent of the run's temporary directory")
    parser.add_argument("--expected", default=os.path.join(HERE,
                                                           "expected.json"))
    parser.add_argument("--smoke", action="store_true",
                        help="self-check: smoke scale, one sample per "
                             "workload, traced; the timings mean nothing")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"run.py: no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    inputs = load_json(os.path.join(HERE, "inputs.json"))
    expected = load_json(args.expected)
    scale = inputs["smoke_scale"] if args.smoke else inputs["scale"]
    if args.smoke:
        args.seconds, args.trace = 0.0, 1
    elif args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.trace_out and len(names) > 1:
        parser.error("--trace-out holds one sample: name one --workload")

    def terminate(signum, _frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, terminate)

    os.makedirs(args.work_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=args.work_dir)
    spec = make_spec(inputs, args.seed, scale)
    runs: list[Run] = []
    try:
        env = environment(work)
        for name in names:
            runs.append(Run(name, spec, expected, work))
            runs[-1].set_up()
        # Round-robin: each workload's samples span the whole invocation,
        # and one process tree is busy at a time.
        pending = list(runs)
        while pending:
            pending = [run for run in pending if run.wants_sample(
                1 if args.smoke else SAMPLES, args.seconds)]
            for run in pending:
                run.take_sample()
        if args.trace:
            for run in runs:
                if run.samples:
                    run.take_probed(args.trace_out)
        reports = {run.name: run.report(bench, args.seed, bool(args.trace))
                   for run in runs}
    finally:
        for run in runs:
            run.tear_down()
        shutil.rmtree(work, ignore_errors=True)
    for name, report in reports.items():
        print_metrics(name, report)

    # The master invariant: every path yields the same images.
    identities = {json.dumps(r["identity"]) for r in reports.values()}
    same_images = len(identities) == 1
    if not same_images:
        print("ERROR tags or image digests differ between workloads")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump({"schema": 1, "environment": env,
                       "same_images": same_images, "workloads": reports},
                      fh, indent=1, sort_keys=True)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name, report in reports.items():
        prefix = f"{name}/" if len(reports) > 1 else ""
        for metric, row in report.get(section, {}).items():
            metrics[prefix + metric] = {"value": row["value"],
                                        "unit": row["unit"]}
    correct = same_images and all(r["correct"] for r in reports.values())
    finite = all(math.isfinite(row["value"]) for row in metrics.values())
    print(json.dumps({
        "correct": correct and finite,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics}))
    return 0 if correct and finite else 1


if __name__ == "__main__":
    sys.exit(main())
