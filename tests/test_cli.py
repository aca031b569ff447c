"""CLI deployment tool (python -m repro.cli)."""

import json
import os

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCLI:
    def test_discover(self, capsys):
        code, out = run_cli(capsys, "discover", "--system", "ault23")
        assert code == 0
        features = json.loads(out)
        assert features["CPU Info"]["model"] == "Intel Xeon Gold 6130"

    def test_analyze(self, capsys):
        code, out = run_cli(capsys, "analyze", "--app", "lulesh")
        assert code == 0
        report = json.loads(out)
        assert "MPI" in report["parallel_programming_libraries"]

    def test_intersect(self, capsys):
        code, out = run_cli(capsys, "intersect", "--app", "gromacs",
                            "--system", "ault25")
        assert code == 0
        result = json.loads(out)
        assert "CUDA" in result["common_specialization"]["gpu_backends"]
        assert result["operator_default_selection"]["GMX_SIMD"] == "AVX2_256"

    def test_ir_build_stats_only(self, capsys):
        code, out = run_cli(capsys, "ir-build", "--app", "lulesh", "--stats-only")
        assert code == 0
        assert "20 TUs -> 14 IRs" in out

    def test_ir_build_json(self, capsys):
        code, out = run_cli(capsys, "ir-build", "--app", "lulesh", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["stats"]["total_tus"] == 20
        assert blob["stats"]["final_irs"] == 14
        assert blob["stats"]["ir_compile_ops"] == 14
        assert "preprocess" in blob["stats"]["cache_misses"]
        assert blob["image_digest"].startswith("sha256:")

    def test_deploy_batch(self, capsys):
        code, out = run_cli(capsys, "deploy-batch", "--app", "lulesh",
                            "--systems", "ault01-04,ault23,ault25")
        assert code == 0
        assert "2 ISA groups" in out
        assert "5 reused from cache" in out

    def test_deploy_batch_json(self, capsys):
        code, out = run_cli(capsys, "deploy-batch", "--app", "lulesh",
                            "--systems", "ault01-04,ault23,aurora,ault25",
                            "--json")
        assert code == 0
        blob = json.loads(out)
        assert len(blob["deployments"]) == 4
        assert blob["lowerings_performed"] == 10
        assert blob["lowerings_reused"] == 10
        families = {g["simd"] for g in blob["plan"]["groups"]}
        assert families == {"AVX_512", "AVX2_256"}

    def test_deploy_batch_skips_incompatible(self, capsys):
        code, out = run_cli(capsys, "deploy-batch", "--app", "lulesh",
                            "--systems", "ault01-04,clariden",
                            "--skip-incompatible")
        assert code == 0
        assert "SKIPPED" in out and "clariden" in out

    def test_deploy_ir(self, capsys):
        code, out = run_cli(capsys, "deploy", "--app", "lulesh",
                            "--system", "ault01-04", "--mode", "ir",
                            "--workload", "s50")
        assert code == 0
        assert "lowered ISA: AVX_512" in out
        assert "lulesh/s50" in out

    def test_deploy_source(self, capsys):
        code, out = run_cli(capsys, "deploy", "--app", "lulesh",
                            "--system", "ault01-04", "--mode", "source")
        assert code == 0
        assert "image tag:" in out

    def test_bench_with_options(self, capsys):
        code, out = run_cli(capsys, "bench", "--app", "gromacs",
                            "--system", "ault23", "--workload", "testA",
                            "--option", "GMX_SIMD=AVX_512",
                            "--option", "GMX_FFT_LIBRARY=mkl")
        assert code == 0
        assert "gromacs/testA" in out
        assert "nb_kernel" in out

    def test_unknown_system_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["discover", "--system", "summit"])


class TestPersistentStoreCLI:
    """--store DIR: every CLI invocation is a cold process (fresh backend,
    fresh cache), so consecutive runs exercise the persistent warm-start
    path end to end."""

    def test_ir_build_then_cold_rebuild_is_free(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        _, out = run_cli(capsys, "ir-build", "--app", "lulesh",
                         "--store", store, "--json")
        cold = json.loads(out)
        assert cold["stats"]["preprocess_ops"] == 20
        assert cold["stats"]["ir_compile_ops"] == 14

        _, out = run_cli(capsys, "ir-build", "--app", "lulesh",
                         "--store", store, "--json")
        warm = json.loads(out)
        assert warm["stats"]["preprocess_ops"] == 0
        assert warm["stats"]["ir_compile_ops"] == 0
        assert warm["image_digest"] == cold["image_digest"]

    def test_cold_deploy_does_zero_compile_and_lower_ops(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        _, out = run_cli(capsys, "deploy", "--app", "lulesh",
                         "--system", "ault23", "--mode", "ir",
                         "--store", store, "--json")
        warm = json.loads(out)
        assert warm["deploy_cache"]["lower"]["misses"] > 0

        _, out = run_cli(capsys, "deploy", "--app", "lulesh",
                         "--system", "ault23", "--mode", "ir",
                         "--store", store, "--json")
        cold = json.loads(out)
        assert cold["build_stats"]["preprocess_ops"] == 0
        assert cold["build_stats"]["ir_compile_ops"] == 0
        assert cold["deploy_cache"]["lower"]["misses"] == 0
        assert cold["deploy_cache"]["lower"]["hits"] == \
            warm["deploy_cache"]["lower"]["misses"]
        assert cold["tag"] == warm["tag"]

    def test_cache_stats_and_pins(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        run_cli(capsys, "ir-build", "--app", "lulesh", "--store", store)
        _, out = run_cli(capsys, "cache", "stats", "--store", store, "--json")
        stats = json.loads(out)
        assert stats["persistent"]
        assert stats["entries_by_namespace"]["preprocess"] == 20
        assert stats["entries_by_namespace"]["ir"] == 14
        assert "image/lulesh" in stats["pins"]

    def test_cache_gc_bounds_store_and_keeps_pinned_image(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        run_cli(capsys, "ir-build", "--app", "lulesh", "--store", store)
        _, out = run_cli(capsys, "cache", "gc", "--store", store,
                         "--max-bytes", "0", "--json")
        report = json.loads(out)
        assert report["evicted_entries"] > 0
        assert report["after_bytes"] < report["before_bytes"]
        # The pinned image manifest graph survived an impossible budget...
        assert report["pinned_blobs"] > 0
        # ...so a cold deploy from the store still works (it recompiles).
        code, out = run_cli(capsys, "deploy", "--app", "lulesh",
                            "--system", "ault23", "--mode", "ir",
                            "--store", store, "--json")
        assert code == 0

    def test_deploy_json_includes_workload_report(self, capsys, tmp_path):
        _, out = run_cli(capsys, "deploy", "--app", "lulesh",
                         "--system", "ault01-04", "--mode", "ir",
                         "--workload", "s50", "--json")
        blob = json.loads(out)
        assert blob["workload"]["name"] == "s50"
        assert blob["workload"]["total_seconds"] > 0
        assert blob["workload"]["kernel_seconds"]

    def test_cache_export_import_round_trip(self, capsys, tmp_path):
        src = str(tmp_path / "src")
        dst = str(tmp_path / "dst")
        archive = str(tmp_path / "warm.tar.gz")
        run_cli(capsys, "ir-build", "--app", "lulesh", "--store", src)
        _, out = run_cli(capsys, "cache", "export", "--store", src,
                         "--output", archive, "--json")
        assert json.loads(out)["blobs"] > 0
        _, out = run_cli(capsys, "cache", "import", "--store", dst,
                         "--input", archive, "--json")
        assert json.loads(out)["blobs_added"] > 0
        # The imported store is warm for a cold process.
        _, out = run_cli(capsys, "ir-build", "--app", "lulesh",
                         "--store", dst, "--json")
        assert json.loads(out)["stats"]["preprocess_ops"] == 0


class TestCacheInspectionCLI:
    """The scheduler-facing cache introspection: stats bytes + gc --dry-run."""

    def test_cache_stats_reports_bytes_per_namespace(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        run_cli(capsys, "ir-build", "--app", "lulesh", "--store", store)
        _, out = run_cli(capsys, "cache", "stats", "--store", store, "--json")
        stats = json.loads(out)
        by_bytes = stats["bytes_by_namespace"]
        assert set(stats["entries_by_namespace"]) <= set(by_bytes)
        # Preprocess entries own their bulk text blobs: far heavier than
        # the tiny configure payloads... and every namespace costs > 0.
        assert all(v > 0 for v in by_bytes.values())
        assert by_bytes["preprocess"] > 0 and by_bytes["ir"] > 0

    def test_cache_stats_text_lists_namespace_bytes(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        run_cli(capsys, "ir-build", "--app", "lulesh", "--store", store)
        _, out = run_cli(capsys, "cache", "stats", "--store", store)
        assert "entries" in out and "bytes" in out

    def test_cache_gc_dry_run_deletes_nothing(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        run_cli(capsys, "ir-build", "--app", "lulesh", "--store", store)
        _, before = run_cli(capsys, "cache", "stats", "--store", store,
                            "--json")
        _, out = run_cli(capsys, "cache", "gc", "--store", store,
                         "--max-bytes", "0", "--dry-run", "--json")
        plan = json.loads(out)
        assert plan["dry_run"]
        assert plan["freed_bytes"] == 0
        assert plan["planned_freed_bytes"] > 0
        assert plan["evicted"] and plan["deletions"] and plan["by_namespace"]
        _, after = run_cli(capsys, "cache", "stats", "--store", store,
                           "--json")
        assert json.loads(after)["total_bytes"] == \
            json.loads(before)["total_bytes"]

    def test_cache_gc_dry_run_text_output(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        run_cli(capsys, "ir-build", "--app", "lulesh", "--store", store)
        _, out = run_cli(capsys, "cache", "gc", "--store", store,
                         "--max-bytes", "0", "--dry-run")
        assert "dry run" in out and "would evict" in out

    @staticmethod
    def _backdate_blobs(store: str, seconds: float) -> None:
        """Push every blob file's mtime into the past — the clock
        `--max-age-seconds` reads on a file-backed store."""
        objects = os.path.join(store, "objects")
        for dirpath, _dirs, files in os.walk(objects):
            for name in files:
                path = os.path.join(dirpath, name)
                stat = os.stat(path)
                os.utime(path, (stat.st_atime - seconds,
                                stat.st_mtime - seconds))

    def test_cache_gc_ttl_expires_aged_store(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        run_cli(capsys, "ir-build", "--app", "lulesh", "--store", store)
        self._backdate_blobs(store, 7200)
        _, out = run_cli(capsys, "cache", "gc", "--store", store,
                         "--max-age-seconds", "3600", "--json")
        report = json.loads(out)
        assert report["max_age_seconds"] == 3600
        assert report["expired_entries"] > 0
        assert report["evicted_entries"] == 0  # pure-TTL sweep, no budget
        assert report["after_bytes"] < report["before_bytes"]

    def test_cache_gc_ttl_dry_run_prices_without_deleting(self, capsys,
                                                          tmp_path):
        store = str(tmp_path / "store")
        run_cli(capsys, "ir-build", "--app", "lulesh", "--store", store)
        self._backdate_blobs(store, 7200)
        _, out = run_cli(capsys, "cache", "gc", "--store", store,
                         "--max-age-seconds", "3600", "--dry-run")
        assert "would expire" in out
        _, out = run_cli(capsys, "cache", "gc", "--store", store,
                         "--max-age-seconds", "3600", "--dry-run", "--json")
        plan = json.loads(out)
        assert plan["dry_run"] and plan["expired_entries"] > 0
        assert plan["freed_bytes"] == 0
        # Nothing was deleted: the same sweep still has work to do.
        _, out = run_cli(capsys, "cache", "stats", "--store", store, "--json")
        assert json.loads(out)["total_bytes"] == plan["before_bytes"]

    def test_cache_gc_young_store_expires_nothing(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        run_cli(capsys, "ir-build", "--app", "lulesh", "--store", store)
        _, out = run_cli(capsys, "cache", "gc", "--store", store,
                         "--max-age-seconds", "3600", "--json")
        report = json.loads(out)
        assert report["expired_entries"] == 0

    def test_cache_gc_requires_a_bound(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        run_cli(capsys, "ir-build", "--app", "lulesh", "--store", store)
        with pytest.raises(SystemExit):
            main(["cache", "gc", "--store", store])


class TestClusterCLI:
    def test_deploy_batch_with_workers_matches_plain(self, capsys):
        _, plain = run_cli(capsys, "deploy-batch", "--app", "lulesh",
                           "--systems", "ault01-04,ault23,ault25", "--json")
        _, farmed = run_cli(capsys, "deploy-batch", "--app", "lulesh",
                            "--systems", "ault01-04,ault23,ault25",
                            "--workers", "2", "--json")
        plain_blob, farm_blob = json.loads(plain), json.loads(farmed)
        plain_tags = {d["system"]: d["tag"] for d in plain_blob["deployments"]}
        farm_tags = {d["system"]: d["tag"] for d in farm_blob["deployments"]}
        assert farm_tags == plain_tags
        assert farm_blob["duplicate_lowerings"] == 0
        # Schema parity: scripts reading the classic deploy-batch shape
        # (plan.groups / plan.incompatible, per-deployment keys) must work
        # unchanged when --workers is added.
        assert farm_blob["plan"]["groups"] == plain_blob["plan"]["groups"]
        assert farm_blob["plan"]["incompatible"] == \
            plain_blob["plan"]["incompatible"]
        for dep in farm_blob["deployments"]:
            assert {"system", "tag", "simd", "lowered_count"} <= set(dep)
        # Nothing a fork could share: the farm's workers are threads.
        assert all(rec["worker"].startswith("local-")
                   for rec in farm_blob["jobs"].values())

    def test_deploy_batch_with_workers_on_a_store_dir_forks(self, capsys,
                                                            tmp_path):
        systems = "ault01-04,ault23,ault25"
        _, plain = run_cli(capsys, "deploy-batch", "--app", "lulesh",
                           "--systems", systems, "--json",
                           "--store", str(tmp_path / "plain"))
        store = str(tmp_path / "farm")
        _, farmed = run_cli(capsys, "deploy-batch", "--app", "lulesh",
                            "--systems", systems, "--workers", "2",
                            "--store", store, "--json")
        plain_blob, farm_blob = json.loads(plain), json.loads(farmed)
        assert {rec["worker"] for rec in farm_blob["jobs"].values()} <= \
            {"proc-0", "proc-1"}
        assert [(d["system"], d["tag"]) for d in farm_blob["deployments"]] \
            == [(d["system"], d["tag"]) for d in plain_blob["deployments"]]
        assert farm_blob["lowerings_performed"] == \
            plain_blob["lowerings_performed"]
        assert farm_blob["duplicate_lowerings"] == 0
        _, out = run_cli(capsys, "cache", "stats", "--store", store, "--json")
        assert "image/lulesh" in json.loads(out)["pins"]
        # --elastic drives threads, store directory or not.
        _, out = run_cli(capsys, "deploy-batch", "--app", "lulesh",
                         "--systems", systems, "--workers", "2", "--elastic",
                         "--store", store, "--json")
        assert all(rec["worker"].startswith("local-")
                   for rec in json.loads(out)["jobs"].values())

    def test_cluster_build_self_hosted(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        code, out = run_cli(capsys, "cluster", "build", "--app", "lulesh",
                            "--systems", "ault23,ault25",
                            "--workers", "2", "--store", store, "--json")
        assert code == 0
        blob = json.loads(out)
        assert [d["system"] for d in blob["deployments"]] == \
            ["ault23", "ault25"]
        assert blob["duplicate_lowerings"] == 0
        assert blob["cold_groups"] and not blob["warm_groups"]
        assert {rec["worker"] for rec in blob["jobs"].values()} <= \
            {"proc-0", "proc-1"}
        # Second build against the same store: everything routes warm.
        _, out = run_cli(capsys, "cluster", "build", "--app", "lulesh",
                         "--systems", "ault23,ault25",
                         "--workers", "2", "--store", store, "--json")
        rerun = json.loads(out)
        assert rerun["warm_groups"] and not rerun["cold_groups"]
        assert rerun["lowerings_performed"] == 0
        assert {d["tag"] for d in rerun["deployments"]} == \
            {d["tag"] for d in blob["deployments"]}

    def test_cluster_build_text_output_shows_routing(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        code, out = run_cli(capsys, "cluster", "build", "--app", "lulesh",
                            "--systems", "ault23,ault25",
                            "--workers", "2", "--store", store)
        assert code == 0
        assert "routing:" in out and "lowerings:" in out

    def test_cluster_build_against_external_coordinator(self, capsys,
                                                        tmp_path):
        """The serve/worker/build split, in-process: an external
        coordinator with its own worker, driven through the CLI client."""
        import threading
        from repro.cluster import ClusterWorker, Coordinator, CoordinatorClient
        from repro.containers import ArtifactCache, BlobStore
        from repro.store import FileBackend
        store_dir = str(tmp_path / "store")
        store = BlobStore(FileBackend(store_dir))
        with Coordinator() as coordinator:
            host, port = coordinator.address
            worker = ClusterWorker(CoordinatorClient(host, port), store,
                                   worker_id="external")
            stop = threading.Event()
            thread = threading.Thread(target=worker.run,
                                      kwargs={"stop": stop}, daemon=True)
            thread.start()
            try:
                code, out = run_cli(
                    capsys, "cluster", "build", "--app", "lulesh",
                    "--systems", "ault23", "--store", store_dir,
                    "--coordinator", f"{host}:{port}", "--json")
            finally:
                stop.set()
                thread.join(timeout=10)
        assert code == 0
        blob = json.loads(out)
        assert blob["deployments"][0]["system"] == "ault23"
        assert blob["jobs"]  # ran on the external worker
        assert all(rec["worker"] == "external"
                   for rec in blob["jobs"].values())


class TestTelemetryCli:
    def test_ir_build_trace_exports_valid_chrome_trace(self, capsys,
                                                       tmp_path):
        from repro.telemetry.export import validate_chrome_trace
        trace_path = tmp_path / "trace.json"
        code, _ = run_cli(capsys, "ir-build", "--app", "lulesh",
                          "--store", str(tmp_path / "store"),
                          "--trace", str(trace_path))
        assert code == 0
        doc = json.loads(trace_path.read_text())
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "cli.ir-build" in names
        assert any(n.startswith("pipeline.stage.") for n in names)

    def test_cache_stats_against_store_server_embeds_live_counters(
            self, capsys, tmp_path):
        """The remote-store bugfix: `cache stats --store-server --json`
        must include the server's live counters, not just index totals."""
        from repro.store import AsyncStoreServer, FileBackend
        store_dir = str(tmp_path / "store")
        run_cli(capsys, "ir-build", "--app", "lulesh", "--store", store_dir)
        with AsyncStoreServer(FileBackend(store_dir)) as server:
            host, port = server.address
            code, out = run_cli(capsys, "cache", "stats",
                                "--store-server", f"{host}:{port}", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["entries"] > 0          # the usual index report
        server_blob = blob["server"]        # plus the live server side
        assert server_blob["stats"]["requests_served"] > 0
        counters = server_blob["metrics"]["counters"]
        assert counters["store.server.requests"] == \
            server_blob["stats"]["requests_served"]


def _flat_options(command):
    for item in command.options:
        yield from getattr(item, "options", (item,))


def _store_rows():
    from repro import cli
    return [path for path, command in cli.COMMANDS.items()
            if any(item in (cli.STORE_GROUP, cli.STORE_REQUIRED)
                   for item in command.options)]


def _address_flags():
    from repro import cli
    return [(path, flag) for path, command in cli.COMMANDS.items()
            for option in _flat_options(command)
            if option.kwargs.get("type") is cli._address
            for flag in option.flags]


class TestCommandTable:
    """Properties of every row of ``cli.COMMANDS`` at once."""

    def test_every_row_answers_help(self, capsys):
        from repro.cli import COMMANDS
        for path in COMMANDS:
            with pytest.raises(SystemExit) as exit_info:
                main([*path, "--help"])
            assert exit_info.value.code == 0
            assert " ".join(path) in capsys.readouterr().out

    def test_store_rows_take_one_spelling_of_the_store(self, capsys):
        rows = _store_rows()
        assert len(rows) == 10  # every store-opening row but `cache serve`
        for path in rows:
            with pytest.raises(SystemExit) as exit_info:
                main([*path, "--store", "dir",
                      "--store-server", "127.0.0.1:1"])
            assert exit_info.value.code == 2
            assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("path,flag", _address_flags())
    def test_address_errors_name_their_own_flag(self, capsys, path, flag):
        with pytest.raises(SystemExit) as exit_info:
            main([*path, flag, "nonsense"])
        assert exit_info.value.code == 2
        assert f"argument {flag}: wants HOST:PORT" in capsys.readouterr().err

    def test_deploy_batch_is_the_same_under_either_store_spelling(
            self, capsys, tmp_path):
        """The `remote_warm` shape through main(): identical tags and
        image digest, and the images pinned, whether the store is a
        directory or a served one."""
        from repro.store import AsyncStoreServer, FileBackend

        def batch_and_pins(*store_args):
            _, out = run_cli(capsys, "deploy-batch", "--app", "lulesh",
                             "--systems", "ault23,ault25", "--json",
                             *store_args)
            tags = {d["system"]: d["tag"]
                    for d in json.loads(out)["deployments"]}
            _, out = run_cli(capsys, "cache", "stats", "--json", *store_args)
            return tags, json.loads(out)["pins"]

        local = batch_and_pins("--store", str(tmp_path / "local"))
        with AsyncStoreServer(FileBackend(tmp_path / "served")) as server:
            host, port = server.address
            served = batch_and_pins("--store-server", f"{host}:{port}")
        assert served == local
        assert local[1]["image/lulesh"].startswith("sha256:")

    def test_handlers_close_the_clients_they_open(self, capsys, tmp_path,
                                                  monkeypatch):
        """Pooled clients are released when the handler exits, not
        dropped with live sessions."""
        from repro.cluster import Coordinator, CoordinatorClient
        from repro.store import AsyncStoreServer, MemoryBackend, RemoteBackend
        closed = []
        for cls in (RemoteBackend, CoordinatorClient):
            real = cls.close
            monkeypatch.setattr(
                cls, "close", lambda self, real=real:
                (closed.append(type(self).__name__), real(self))[1])
        with AsyncStoreServer(MemoryBackend()) as server, \
                Coordinator() as coordinator:
            store = "%s:%d" % server.address
            farm = "%s:%d" % coordinator.address
            run_cli(capsys, "cache", "stats", "--store-server", store)
            assert closed == ["RemoteBackend"]
            run_cli(capsys, "cluster", "status", "--coordinator", farm)
            run_cli(capsys, "cluster", "top", "--coordinator", farm)
            run_cli(capsys, "telemetry", "history", "--coordinator", farm)
        assert closed == ["RemoteBackend"] + ["CoordinatorClient"] * 3
