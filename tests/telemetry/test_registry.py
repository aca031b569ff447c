"""Metrics registry units: identity, snapshots, deltas, absorption — the
contracts every heartbeat-shipping worker relies on."""

import threading

import pytest

from repro.telemetry.registry import (
    DURATION_BUCKETS,
    MetricsRegistry,
    get_registry,
    histogram_quantile,
    metric_key,
    parse_metric_key,
    sample_process_gauges,
    set_registry,
    snapshot_delta,
    summarize_histogram,
    sync_dropped_counter,
    totals_by_label,
)


class TestMetricKey:
    def test_bare_name(self):
        assert metric_key("store.server.requests") == "store.server.requests"

    def test_labels_render_sorted(self):
        key = metric_key("cache.hits", {"namespace": "ir", "app": "lulesh"})
        assert key == "cache.hits{app=lulesh,namespace=ir}"

    def test_parse_inverts_render(self):
        labels = {"kind": "lower", "worker": "w0"}
        name, parsed = parse_metric_key(metric_key("job_seconds", labels))
        assert name == "job_seconds"
        assert parsed == labels

    def test_parse_bare_key(self):
        assert parse_metric_key("plain.name") == ("plain.name", {})

    def test_parse_skips_pairs_without_a_value(self):
        assert parse_metric_key("m{a=1,junk,b=x=y}") == \
            ("m", {"a": "1", "b": "x=y"})
        # An unclosed label block is part of the name.
        assert parse_metric_key("m{a=1") == ("m{a=1", {})


class TestCountersAndGauges:
    def test_counter_identity_by_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("hits", namespace="ir")
        b = reg.counter("hits", namespace="ir")
        c = reg.counter("hits", namespace="lower")
        assert a is b and a is not c
        a.inc()
        a.inc(2)
        assert a.value == 3 and c.value == 0

    def test_gauge_max_of_keeps_high_water_mark(self):
        reg = MetricsRegistry()
        g = reg.gauge("peak_body_bytes")
        g.max_of(100)
        g.max_of(50)
        assert g.value == 100
        g.set(10)
        assert g.value == 10

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(7)
        reg.histogram("h").observe(0.01)
        snap = reg.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"] == {"c": 1}
        assert snap["gauges"] == {"g": 7}
        assert snap["histograms"]["h"]["count"] == 1

    def test_labeled_metrics_snapshot_under_their_rendered_keys(self):
        reg = MetricsRegistry()
        reg.counter("reqs", cmd="get").inc(5)
        reg.gauge("depth", queue="shared").set(3)
        hist = reg.histogram("lat", kind="lower")
        hist.observe(0.1)
        hist.observe(0.2)
        assert reg.histogram("lat", kind="lower") is hist
        snap = reg.snapshot()
        assert snap["counters"] == {"reqs{cmd=get}": 5}
        assert snap["gauges"] == {"depth{queue=shared}": 3}
        assert snap["histograms"]["lat{kind=lower}"]["count"] == 2


class TestHistogram:
    def test_bucket_counts_and_overflow(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.05, 5.0):
            h.observe(value)
        snap = h.snapshot()
        assert snap["counts"] == [1, 1, 1, 1]   # last is the overflow bucket
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(5.0555)

    def test_quantile_reports_bucket_upper_bound(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.001, 0.01, 0.1))
        for _ in range(99):
            h.observe(0.005)
        h.observe(50.0)   # one overflow observation
        snap = h.snapshot()
        assert histogram_quantile(snap, 0.50) == 0.01
        # The overflow bucket can only answer with the top boundary.
        assert histogram_quantile(snap, 0.999) == 0.1

    def test_quantile_of_empty_histogram_is_zero(self):
        assert histogram_quantile({"buckets": [], "counts": [],
                                   "sum": 0.0, "count": 0}, 0.5) == 0.0

    def test_summarize(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        h.observe(0.01)
        h.observe(0.03)
        summary = summarize_histogram(h.snapshot())
        assert summary["count"] == 2
        assert summary["mean"] == pytest.approx(0.02)
        assert summary["p50"] in DURATION_BUCKETS
        assert summarize_histogram(None) == {"count": 0, "mean": 0.0,
                                             "p50": 0.0, "p95": 0.0}


class TestSnapshotAlgebra:
    def test_delta_then_absorb_round_trips(self):
        """absorbing every delta since a worker started rebuilds its
        counters and high-water gauges under its label — the exact
        invariant heartbeat shipping depends on."""
        worker, farm = MetricsRegistry(), MetricsRegistry()
        sent: dict = {}
        worker.counter("jobs").inc(3)
        worker.gauge("peak").max_of(7)
        for _ in range(2):
            snap = worker.snapshot()
            farm.absorb(snapshot_delta(snap, sent), worker="w")
            sent = snap
            worker.counter("jobs").inc(2)
            worker.counter("fails", op="get").inc()
        farm.absorb(snapshot_delta(worker.snapshot(), sent), worker="w")
        assert farm.snapshot()["counters"] == {
            "fails{op=get,worker=w}": 2, "jobs{worker=w}": 7}
        assert farm.snapshot()["gauges"] == {"peak{worker=w}": 7}

    def test_idle_delta_is_empty(self):
        reg = MetricsRegistry()
        reg.counter("jobs").inc()
        reg.histogram("lat").observe(0.01)
        snap = reg.snapshot()
        assert not any(snapshot_delta(reg.snapshot(), snap).values())

    def test_delta_carries_counters_and_gauges_only(self):
        reg = MetricsRegistry()
        reg.counter("fresh").inc(2)
        reg.gauge("depth").set(1)
        reg.histogram("observed").observe(0.01)
        assert snapshot_delta(reg.snapshot(), {}) == {
            "counters": {"fresh": 2}, "gauges": {"depth": 1}}

    def test_delta_passes_changed_gauges_at_their_latest_value(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(9)
        reg.gauge("steady").set(1)
        base = reg.snapshot()
        reg.gauge("depth").set(2)
        assert snapshot_delta(reg.snapshot(), base)["gauges"] == {"depth": 2}

    def test_absorb_adds_counters_and_keeps_gauge_max(self):
        reg = MetricsRegistry()
        reg.absorb({"counters": {"c": 2}, "gauges": {"peak": 10}})
        reg.absorb({"counters": {"c": 3}, "gauges": {"peak": 4}})
        assert reg.snapshot()["counters"] == {"c": 5}
        assert reg.snapshot()["gauges"] == {"peak": 10}

    def test_a_malformed_delta_raises_before_applying_anything(self):
        reg = MetricsRegistry()
        for bad in ({"counters": {"c": 1, "d": "x"}},
                    {"counters": {"c": 1}, "gauges": {"g": None}}):
            with pytest.raises((TypeError, ValueError)):
                reg.absorb(bad)
        with pytest.raises(AttributeError):
            reg.absorb({"counters": ["c"]})
        assert reg.snapshot()["counters"] == {}

    def test_totals_by_label_sum_over_the_other_labels(self):
        values = {"hits{ns=ir,worker=a}": 2, "hits{ns=lower,worker=a}": 3,
                  "hits{worker=b}": 1, "misses{worker=a}": 4, "hits": 9}
        assert totals_by_label(values, "worker") == {
            "a": {"hits": 5, "misses": 4}, "b": {"hits": 1}}


class TestSnapshotPointHelpers:
    def test_process_gauges_land_in_the_given_registry(self):
        reg = MetricsRegistry()
        sampled = sample_process_gauges(reg)
        assert sampled["process.cpu_seconds"] >= 0
        gauges = reg.snapshot()["gauges"]
        assert {name: gauges[name] for name in sampled} == sampled

    def test_dropped_counter_follows_a_monotonic_total(self):
        reg = MetricsRegistry()
        sync_dropped_counter(reg, "telemetry.spans_dropped", 3)
        base = reg.snapshot()
        sync_dropped_counter(reg, "telemetry.spans_dropped", 5)
        sync_dropped_counter(reg, "telemetry.spans_dropped", 5)
        assert reg.counter("telemetry.spans_dropped").value == 5
        # The heartbeat ships the growth since the last snapshot, once.
        assert snapshot_delta(reg.snapshot(), base)["counters"] == \
            {"telemetry.spans_dropped": 2}
        # A total that went backwards (a fresh ring) never un-counts.
        sync_dropped_counter(reg, "telemetry.spans_dropped", 1)
        assert reg.counter("telemetry.spans_dropped").value == 5
        sync_dropped_counter(None, "telemetry.spans_dropped", 9)


class TestDefaultRegistry:
    def test_set_registry_swaps_the_process_default(self):
        mine = MetricsRegistry()
        previous = set_registry(mine)
        try:
            assert get_registry() is mine
            sampled = sample_process_gauges()
            assert mine.snapshot()["gauges"] == sampled
        finally:
            assert set_registry(previous) is mine
        assert get_registry() is previous


class TestThreadSafety:
    def test_concurrent_increments_lose_nothing(self):
        reg = MetricsRegistry()
        counter = reg.counter("n")

        def spin():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000
