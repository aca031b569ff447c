"""FarmTelemetry: the coordinator-side accumulator behind `cluster top`."""

from repro.telemetry import farm as farm_module
from repro.telemetry.farm import FarmTelemetry, format_latency, render_top
from repro.telemetry.registry import MetricsRegistry, snapshot_delta
from repro.telemetry.trace import Span


def _worker_delta(job_seconds=0.2):
    """A delta shaped like a real worker heartbeat."""
    reg = MetricsRegistry()
    base = reg.snapshot()
    reg.counter("cluster.worker.jobs_done").inc()
    reg.histogram("cluster.worker.job_seconds",
                  kind="lower").observe(job_seconds)
    reg.histogram("store.client.request_seconds",
                  cmd="put").observe(0.002)
    return snapshot_delta(reg.snapshot(), base)


class TestAbsorbMetrics:
    def test_deltas_accumulate_per_worker(self):
        farm = FarmTelemetry()
        farm.absorb_metrics("w0", _worker_delta())
        farm.absorb_metrics("w0", _worker_delta())
        farm.absorb_metrics("w1", _worker_delta())
        assert farm.worker_summary("w0")["jobs_done"] == 2
        assert farm.worker_summary("w1")["jobs_done"] == 1

    def test_latency_families_merge_labeled_variants(self):
        farm = FarmTelemetry()
        farm.absorb_metrics("w0", _worker_delta(job_seconds=0.2))
        summary = farm.worker_summary("w0")
        assert summary["job_seconds"]["count"] == 1
        assert summary["job_seconds"]["p50"] > 0
        assert summary["store_request_seconds"]["count"] == 1

    def test_malformed_payloads_never_raise(self):
        farm = FarmTelemetry()
        farm.absorb_metrics("", _worker_delta())       # no worker id
        farm.absorb_metrics("w0", "not-a-dict")
        farm.absorb_metrics("w0", {"counters": "garbage"})
        assert farm.worker_summary("w0")["jobs_done"] == 0

    def test_unknown_worker_summary_is_zeroed(self):
        summary = FarmTelemetry().worker_summary("ghost")
        assert summary["jobs_done"] == 0
        assert summary["job_seconds"]["count"] == 0


class TestAbsorbSpans:
    def test_wire_json_spans_land_in_the_recorder(self):
        farm = FarmTelemetry()
        sp = Span(name="cluster.worker.lower", trace_id="T", span_id="S")
        farm.absorb_spans([sp.to_json()])
        assert [s.span_id for s in farm.recorder.spans()] == ["S"]

    def test_garbage_span_blobs_are_skipped(self):
        farm = FarmTelemetry()
        farm.absorb_spans("not-a-list")
        farm.absorb_spans([42, "x", {"name": "ok", "trace_id": "T",
                                     "span_id": "S"}])
        assert len(farm.recorder) == 1


class TestJobsAndSummary:
    def test_note_job_feeds_throughput_and_latency(self):
        farm = FarmTelemetry(window_seconds=60.0)
        farm.note_job(0.2, kind="lower")
        farm.note_job(0.4, kind="deploy")
        farm.note_job(1.0, failed=True, kind="lower")
        throughput = farm.throughput()
        assert throughput["completed"] == 3
        assert throughput["jobs_per_second"] == 3 / 60.0
        summary = farm.summary()
        assert summary["job_duration_seconds"]["count"] == 3

    def test_summary_merges_queue_view_with_heartbeat_workers(self):
        farm = FarmTelemetry()
        farm.absorb_metrics("heartbeat-only", _worker_delta())
        out = farm.summary(workers={"queued-only": {"queue_depth": 3}})
        assert set(out["workers"]) == {"heartbeat-only", "queued-only"}
        assert out["workers"]["queued-only"]["queue_depth"] == 3
        assert out["workers"]["heartbeat-only"]["jobs_done"] == 1
        assert out["spans_buffered"] == 0

    def test_summary_samples_resource_gauges_into_registry(self):
        farm = FarmTelemetry()
        summary = farm.summary()
        assert summary["metrics"]["gauges"]["process.rss_bytes"] > 0

    def test_worker_summary_surfaces_resource_gauges(self):
        farm = FarmTelemetry()
        delta = _worker_delta()
        delta["gauges"] = {"process.rss_bytes": 1 << 20,
                           "process.cpu_seconds": 2.5}
        farm.absorb_metrics("w0", delta)
        out = farm.worker_summary("w0")
        assert out["rss_bytes"] == 1 << 20
        assert out["cpu_seconds"] == 2.5

    def test_failed_jobs_count_apart_from_completed_ones(self):
        farm = FarmTelemetry()
        farm.note_job(0.2, kind="lower")
        farm.note_job(0.3, kind="lower")
        farm.note_job(0.4, failed=True, kind="deploy")
        counters = farm.summary()["metrics"]["counters"]
        assert counters["cluster.jobs.completed"] == 2
        assert counters["cluster.jobs.failed"] == 1
        hists = farm.registry.snapshot()["histograms"]
        assert hists["cluster.job.duration_seconds"]["count"] == 3
        assert hists["cluster.job.duration_seconds{kind=lower}"]["count"] == 2
        assert hists["cluster.job.duration_seconds{kind=deploy}"]["count"] == 1

    def test_completions_older_than_the_window_fall_out(self, monkeypatch):
        clock = [1000.0]
        monkeypatch.setattr(farm_module.time, "monotonic", lambda: clock[0])
        farm = FarmTelemetry(window_seconds=10.0)
        farm.note_job(0.1)
        clock[0] += 6.0
        farm.note_job(0.1)
        assert farm.throughput()["completed"] == 2
        clock[0] += 6.0  # the first completion is now 12 s old
        assert farm.throughput() == {"window_seconds": 10.0, "completed": 1,
                                     "jobs_per_second": 0.1}
        clock[0] += 60.0
        assert farm.throughput()["completed"] == 0

    def test_counter_families_sum_their_labeled_variants(self):
        farm = FarmTelemetry()
        farm.absorb_metrics("w0", {"counters": {
            "store.tier.hits{tier=a}": 3, "store.tier.hits{tier=b}": 4,
            "store.tier.misses": 2, "store.retries{cmd=get}": 1,
            "cluster.reconnects": 5, "unrelated.counter": 9}})
        out = farm.worker_summary("w0")
        assert (out["tier_hits"], out["tier_misses"]) == (7, 2)
        assert (out["store_retries"], out["reconnects"]) == (1, 5)
        assert "unrelated.counter" not in out

    def test_summary_mirrors_the_span_ring_drops(self):
        farm = FarmTelemetry(max_spans=2)
        farm.absorb_spans([Span(name="s", trace_id="T",
                                span_id=str(i)).to_json() for i in range(5)])
        out = farm.summary()
        assert (out["spans_buffered"], out["spans_dropped"]) == (2, 3)
        counters = out["metrics"]["counters"]
        assert counters["telemetry.spans_dropped"] == 3
        assert counters["cluster.telemetry.spans_absorbed"] == 5


def _latency(count, p50, p95):
    return {"count": count, "mean": p50, "p50": p50, "p95": p95}


class TestRenderTop:
    def test_format_latency_reads_p50_and_p95_in_milliseconds(self):
        assert format_latency(_latency(4, 0.01, 0.25)) == "10/250ms (n=4)"

    def test_format_latency_of_no_observations_is_a_dash(self):
        assert format_latency(None) == "-"
        assert format_latency({}) == "-"
        assert format_latency(_latency(0, 0.0, 0.0)) == "-"

    def test_an_empty_farm_says_no_worker_was_seen(self):
        assert render_top({"telemetry": {}}).splitlines() == [
            "jobs: 0 known (none); shared queue depth 0",
            "throughput: 0 completed in the last 0s (0.00/s); "
            "farm job duration -",
            "no workers seen"]

    def test_job_states_print_sorted_with_the_throughput(self):
        text = render_top({"telemetry": {
            "jobs": {"total": 3, "states": {"running": 1, "done": 2}},
            "shared_queue_depth": 4,
            "throughput": {"completed": 2, "window_seconds": 60.0,
                           "jobs_per_second": 2 / 60},
            "job_duration_seconds": _latency(2, 0.1, 0.5)}})
        jobs, throughput = text.splitlines()[:2]
        assert jobs == "jobs: 3 known (done=2 running=1); " \
            "shared queue depth 4"
        assert throughput == "throughput: 2 completed in the last 60s " \
            "(0.03/s); farm job duration 100/500ms (n=2)"

    def test_the_coordinator_line_needs_a_sampled_rss(self):
        base = {"spans_buffered": 3, "spans_dropped": 1, "workers": {}}
        without = render_top({"telemetry": {**base, "metrics": {
            "gauges": {"process.cpu_seconds": 1.5}}}})
        assert "coordinator:" not in without
        with_rss = render_top({"telemetry": {**base, "metrics": {"gauges": {
            "process.rss_bytes": 2 << 20, "process.cpu_seconds": 1.5,
            "process.open_fds": 7}}}})
        assert "coordinator: rss 2 MB, cpu 1.5s, 7 fds; 3 spans buffered " \
            "(1 dropped)" in with_rss.splitlines()

    def test_a_worker_row_folds_retries_and_reconnects_into_one_column(self):
        text = render_top({"telemetry": {"workers": {
            "busy": {"queue_depth": 2, "running": 1, "jobs_done": 5,
                     "jobs_failed": 1, "rss_bytes": 3 << 20,
                     "tier_hits": 3, "tier_misses": 1,
                     "store_retries": 2, "reconnects": 1,
                     "job_seconds": _latency(5, 0.2, 0.5),
                     "last_seen_seconds": 0.25},
            "clean": {"jobs_done": 1}}}})
        header, busy, clean = text.splitlines()[-3:]
        assert header.split() == ["worker", "queue", "run", "done", "fail",
                                  "rss", "tier", "h/m", "retry", "job",
                                  "p50/p95", "store", "p50/p95", "seen"]
        assert busy.split() == ["busy", "2", "1", "5", "1", "3MB", "3/1",
                                "3", "200/500ms", "(n=5)", "-", "0.2s",
                                "ago"]
        # A clean worker shows dashes where there is nothing to report.
        assert clean.split() == ["clean", "0", "0", "1", "0", "-", "-",
                                 "-", "-", "-"]

    def test_a_live_summary_renders_one_snapshot_with_no_history(self):
        farm = FarmTelemetry()
        farm.absorb_metrics("w1", _worker_delta())
        farm.absorb_metrics("w0", _worker_delta())
        farm.note_job(0.2, kind="lower")
        summary = farm.summary(workers={"w0": {"queue_depth": 1,
                                               "last_seen_seconds": 0.5}})
        lines = render_top({"telemetry": summary}).splitlines()
        assert [line.split(":")[0] for line in lines[:3]] == \
            ["jobs", "throughput", "coordinator"]
        assert [line.split()[0] for line in lines[3:]] == \
            ["worker", "w0", "w1"]
