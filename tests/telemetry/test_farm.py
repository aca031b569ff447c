"""Farm telemetry is the coordinator's registry: worker heartbeats fold
into it under a ``worker`` label (``JobQueue.absorb``), and
``cluster status`` renders the one snapshot the ``telemetry`` op
returns."""

import pytest

from repro.cli import render_status
from repro.cluster.coordinator import JobQueue, coordinator_commands
from repro.cluster.jobs import Job
from repro.telemetry.registry import MetricsRegistry, snapshot_delta
from repro.telemetry.trace import Span, TraceRecorder


def _worker_delta(jobs_done=1, rss=1 << 20):
    """A delta shaped like a real worker heartbeat."""
    reg = MetricsRegistry()
    reg.counter("cluster.worker.jobs_done").inc(jobs_done)
    reg.counter("store.tier.hits", namespace="ir").inc(3)
    reg.gauge("process.rss_bytes").set(rss)
    reg.histogram("cluster.worker.busy_seconds").observe(0.2)
    return snapshot_delta(reg.snapshot(), {})


def _counters(queue):
    return queue.telemetry_summary()["metrics"]["counters"]


class TestAbsorbMetrics:
    def test_two_workers_are_kept_apart_by_label(self):
        queue = JobQueue()
        queue.absorb("w0", _worker_delta())
        queue.absorb("w0", _worker_delta(jobs_done=2))
        queue.absorb("w1", _worker_delta())
        counters = _counters(queue)
        assert counters["cluster.worker.jobs_done{worker=w0}"] == 3
        assert counters["cluster.worker.jobs_done{worker=w1}"] == 1
        # A worker's own labels ride beside its id.
        assert counters["store.tier.hits{namespace=ir,worker=w0}"] == 6
        assert "cluster.worker.jobs_done" not in counters

    def test_gauges_keep_the_maximum(self):
        queue = JobQueue()
        queue.absorb("w0", _worker_delta(rss=5 << 20))
        queue.absorb("w0", _worker_delta(rss=2 << 20))
        gauges = queue.telemetry_summary()["metrics"]["gauges"]
        assert gauges["process.rss_bytes{worker=w0}"] == 5 << 20

    def test_a_delta_carries_no_histograms(self):
        delta = _worker_delta()
        assert sorted(delta) == ["counters", "gauges"]
        queue = JobQueue()
        queue.absorb("w0", delta)
        assert not any("worker=" in key for key in
                       queue.telemetry_summary()["metrics"]["histograms"])

    def test_a_delta_cannot_write_another_workers_row(self):
        queue = JobQueue()
        queue.absorb("w0", {"counters": {
            "cluster.worker.jobs_done{worker=w1}": 5}})
        counters = _counters(queue)
        assert counters["cluster.worker.jobs_done{worker=w0}"] == 5
        assert "cluster.worker.jobs_done{worker=w1}" not in counters

    def test_malformed_deltas_never_raise_and_apply_nothing(self):
        queue = JobQueue()
        queue.absorb("", _worker_delta())              # no worker id
        queue.absorb("w0", "not-a-dict")
        queue.absorb("w0", {"counters": "garbage"})
        queue.absorb("w0", {"counters": {"ok": 1, "bad": "x"}})
        queue.absorb("w0", {"counters": {"ok": 1}, "gauges": {"g": None}})
        summary = queue.telemetry_summary()
        assert not any("worker=" in key
                       for section in ("counters", "gauges")
                       for key in summary["metrics"][section])
        assert summary["workers"] == {}


class TestHeartbeatsOverTheWire:
    @pytest.mark.parametrize("cmd", ["fetch", "renew", "complete", "fail"])
    def test_each_heartbeat_absorbs_and_a_malformed_one_still_answers(
            self, cmd):
        queue = JobQueue()
        queue.submit([Job("a", "deploy", {}), Job("b", "deploy", {})])
        assert queue.fetch("w1").job_id == "a"
        handler = coordinator_commands(queue)[cmd].handler

        def send(metrics):
            return handler({"cmd": cmd, "worker": "w1", "job_id": "a",
                            "metrics": metrics}, b"")

        header, _ = send({"counters": "garbage"})
        assert header["ok"] is True
        send({"counters": {"store.retries": 2}})
        assert _counters(queue)["store.retries{worker=w1}"] == 2


class TestAbsorbSpans:
    def test_wire_json_spans_land_in_the_recorder(self):
        queue = JobQueue()
        sp = Span(name="cluster.worker.deploy", trace_id="T", span_id="S")
        queue.absorb("w0", spans=[sp.to_json()])
        assert [s.span_id for s in queue.recorder.spans()] == ["S"]

    def test_garbage_span_blobs_are_skipped(self):
        queue = JobQueue()
        queue.absorb("w0", spans="not-a-list")
        queue.absorb("w0", spans=[42, "x", {"name": "ok", "trace_id": "T",
                                            "span_id": "S"}])
        assert len(queue.recorder) == 1
        assert _counters(queue)["cluster.telemetry.spans_absorbed"] == 1

    def test_the_summary_mirrors_the_span_ring_drops(self):
        queue = JobQueue()
        queue.recorder = TraceRecorder(max_spans=2)
        queue.absorb("w0", spans=[Span(name="s", trace_id="T",
                                       span_id=str(i)).to_json()
                                  for i in range(5)])
        summary = queue.telemetry_summary()
        assert summary["spans_buffered"] == 2
        counters = summary["metrics"]["counters"]
        assert counters["telemetry.spans_dropped"] == 3
        assert counters["cluster.telemetry.spans_absorbed"] == 5


class TestSummary:
    def test_finished_jobs_count_by_outcome_and_kind(self):
        queue = JobQueue(max_attempts=1)
        queue.submit([Job("a", "deploy", {}), Job("b", "deploy", {}),
                      Job("c", "ir-compile", {})])
        for job_id in ("a", "b", "c"):
            assert queue.fetch("w0").job_id == job_id
        queue.complete("a", "w0", {})
        queue.complete("b", "w0", {})
        queue.fail("c", "w0", "boom")
        summary = queue.telemetry_summary()
        counters = summary["metrics"]["counters"]
        assert counters["cluster.jobs.completed"] == 2
        assert counters["cluster.jobs.failed"] == 1
        hists = summary["metrics"]["histograms"]
        assert hists["cluster.job.duration_seconds"]["count"] == 3
        assert hists["cluster.job.duration_seconds{kind=deploy}"][
            "count"] == 2
        assert summary["job_duration_seconds"]["count"] == 3
        assert summary["jobs"] == {"total": 3,
                                   "states": {"done": 2, "failed": 1}}

    def test_a_heartbeat_only_worker_is_still_listed(self):
        queue = JobQueue()
        queue.fetch("queued")
        queue.absorb("gone", _worker_delta())
        queue.goodbye("gone")
        workers = queue.telemetry_summary()["workers"]
        assert list(workers) == ["gone", "queued"]
        assert workers["gone"] == {}
        assert workers["queued"]["queue_depth"] == 0

    def test_the_summary_samples_the_coordinators_resource_gauges(self):
        gauges = JobQueue().telemetry_summary()["metrics"]["gauges"]
        assert gauges["process.cpu_seconds"] >= 0


def _latency(count, p50, p95):
    return {"count": count, "mean": p50, "p50": p50, "p95": p95}


class TestRenderStatus:
    def test_an_empty_farm_says_no_worker_was_seen(self):
        assert render_status({}).splitlines() == [
            "jobs: 0 known (none); shared queue depth 0",
            "farm job duration p50/p95: -",
            "no workers seen"]

    def test_job_states_print_sorted_with_the_duration(self):
        jobs, duration, _ = render_status({
            "jobs": {"total": 3, "states": {"running": 1, "done": 2}},
            "shared_queue_depth": 4,
            "job_duration_seconds": _latency(2, 0.1, 0.5),
            "workers": {"w": {}}}).splitlines()[:3]
        assert jobs == "jobs: 3 known (done=2 running=1); " \
            "shared queue depth 4"
        assert duration == "farm job duration p50/p95: 100/500ms (n=2)"

    def test_a_worker_row_reads_its_labelled_metrics(self):
        text = render_status({
            "workers": {"busy": {"queue_depth": 2, "running": 1,
                                 "last_seen_seconds": 0.25},
                        "clean": {}},
            "metrics": {"counters": {
                "cluster.worker.jobs_done{worker=busy}": 5,
                "cluster.worker.jobs_failed{worker=busy}": 1,
                "store.tier.hits{namespace=ir,worker=busy}": 2,
                "store.tier.hits{namespace=lower,worker=busy}": 1,
                "store.tier.misses{worker=busy}": 1,
                "store.retries{op=get,worker=busy}": 2,
                "cluster.reconnects{worker=busy}": 1,
                "cluster.worker.jobs_done{worker=clean}": 1,
                "cluster.jobs.completed": 6},
                "gauges": {"process.rss_bytes{worker=busy}": 3 << 20,
                           "process.rss_bytes": 9 << 20}}})
        header, busy, clean = text.splitlines()[-3:]
        assert header.split() == ["worker", "queue", "run", "done", "fail",
                                  "tier", "h/m", "retry", "rss", "seen"]
        assert busy.split() == ["busy", "2", "1", "5", "1", "3/1", "3",
                                "3MB", "0.2s", "ago"]
        # A clean worker shows dashes where there is nothing to report.
        assert clean.split() == ["clean", "0", "0", "1", "0", "-", "-",
                                 "-", "-"]

    def test_a_live_summary_renders_one_snapshot(self):
        queue = JobQueue()
        queue.absorb("w1", _worker_delta())
        queue.fetch("w0")
        lines = render_status(queue.telemetry_summary()).splitlines()
        assert [line.split(":")[0] for line in lines[:2]] == \
            ["jobs", "farm job duration p50/p95"]
        assert [line.split()[0] for line in lines[2:]] == \
            ["worker", "w0", "w1"]
        assert lines[-1].split()[3] == "1"   # w1's jobs done
