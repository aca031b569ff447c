"""Elastic farm scaling: the policy as a pure function, and a live
thread-mode fleet growing into a backlog and shrinking after the drain."""

import time

import pytest

from repro.cluster import ClusterError, LocalCluster
from repro.cluster.client import autoscale_decision


class TestAutoscaleDecision:
    """The policy in isolation — every branch, no farm."""

    def kw(self, **overrides):
        base = dict(ready_depth=0, running=0, live_workers=2,
                    min_workers=1, max_workers=4, scale_threshold=2.0,
                    drained_seconds=0.0, cooldown_seconds=2.0)
        base.update(overrides)
        return base

    def test_scales_up_when_backlog_per_worker_exceeds_threshold(self):
        assert autoscale_decision(**self.kw(ready_depth=5)) == "up"

    def test_holds_when_backlog_at_threshold(self):
        assert autoscale_decision(**self.kw(ready_depth=4)) is None

    def test_never_exceeds_max_workers(self):
        assert autoscale_decision(
            **self.kw(ready_depth=100, live_workers=4)) is None

    def test_scales_down_after_drained_cooldown(self):
        assert autoscale_decision(
            **self.kw(drained_seconds=2.5)) == "down"

    def test_holds_during_cooldown(self):
        assert autoscale_decision(
            **self.kw(drained_seconds=1.0)) is None

    def test_never_drops_below_min_workers(self):
        assert autoscale_decision(
            **self.kw(live_workers=1, drained_seconds=10.0)) is None

    def test_running_jobs_block_scale_down(self):
        assert autoscale_decision(
            **self.kw(running=1, drained_seconds=10.0)) is None

    def test_ready_jobs_block_scale_down(self):
        assert autoscale_decision(
            **self.kw(ready_depth=1, drained_seconds=10.0)) is None

    def test_small_backlog_on_large_fleet_holds(self):
        assert autoscale_decision(
            **self.kw(ready_depth=3, live_workers=3)) is None

    def test_zero_live_workers_never_divides(self):
        # Degenerate probe between spawn and thread-start: no decision.
        assert autoscale_decision(**self.kw(
            ready_depth=50, live_workers=0)) is None


class TestElasticValidation:
    def test_elastic_requires_thread_mode(self, tmp_path):
        with pytest.raises(ClusterError, match="elastic"):
            LocalCluster(workers=2, mode="process",
                         store_dir=str(tmp_path / "s"), elastic=True)

    def test_local_tier_requires_process_mode(self):
        with pytest.raises(ClusterError, match="local_tier_dir"):
            LocalCluster(workers=2, mode="thread", local_tier_dir="/tmp/x")


class TestElasticFarm:
    """A real build on an elastic fleet: the backlog must pull extra
    workers in, and the drained farm must fall back to its floor."""

    def test_fleet_scales_up_under_load_and_down_after_drain(self):
        cluster = LocalCluster(elastic=True, min_workers=1, max_workers=3,
                               scale_threshold=0.5,
                               scale_poll_seconds=0.02,
                               scale_cooldown_seconds=0.2)
        with cluster:
            assert len(cluster.workers) == cluster.min_workers
            report = cluster.build(
                "lulesh", ["ault23", "ault25", "ault01-04", "dev-machine"])
            # The stage wave (one ir-compile job per configuration, four
            # against one worker) trips the threshold immediately.
            up = [e for e in cluster.scale_events if e["action"] == "up"]
            assert up, "backlog never pulled a worker in"
            assert len(cluster.workers) > cluster.min_workers
            assert max(e["workers"] for e in up) <= cluster.max_workers

            # After the build the farm is drained: the fleet must fall
            # back to the floor, one retirement per cooldown.
            deadline = time.monotonic() + 15.0
            while len(cluster._live_worker_ids()) > cluster.min_workers:
                assert time.monotonic() < deadline, \
                    "drained fleet never scaled back down"
                time.sleep(0.05)
            down = [e for e in cluster.scale_events
                    if e["action"] == "down"]
            assert down, "no scale-down event was recorded"

            # Elasticity must not cost correctness: every system deployed,
            # every (IR, ISA) lowered exactly once across the fleet.
            assert len(report.deployments) == 4
            assert report.duplicate_lowerings == 0
            assert all(rec["state"] == "done"
                       for rec in report.jobs.values())

    def test_retired_workers_jobs_are_requeued_not_lost(self):
        """A second build after the fleet has shrunk must still complete:
        retirement hands leases back through goodbye, and the floor
        worker picks everything up."""
        cluster = LocalCluster(elastic=True, min_workers=1, max_workers=3,
                               scale_threshold=0.5,
                               scale_poll_seconds=0.02,
                               scale_cooldown_seconds=0.1)
        with cluster:
            first = cluster.build("lulesh", ["ault23", "ault25"])
            deadline = time.monotonic() + 15.0
            while len(cluster._live_worker_ids()) > cluster.min_workers:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            second = cluster.build("lulesh", ["ault23", "ault25"])
        assert first.cold_groups and not first.warm_groups
        assert second.warm_groups and not second.cold_groups
        assert all(rec["state"] == "done"
                   for rec in second.jobs.values())
