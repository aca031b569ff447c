"""Architecture rules, one table: what must not come back into ``src/``.

Each row is a regex searched line by line in the ``.py`` files under its
scope (paths relative to ``src/``), the one file allowed to hold it, how
many matching lines may exist, and the reason printed when the rule
breaks. ``example`` is a line the rule exists to catch:
:func:`test_rule_catches_its_example` plants it in scope and requires the
row to fail, so a pattern that has drifted from what it guards is caught
as well.
"""

import re
from dataclasses import dataclass
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@dataclass(frozen=True)
class Rule:
    pattern: str
    scope: tuple[str, ...]
    reason: str
    example: str
    allowed: str = ""
    #: Inclusive bounds on the matching lines in scope.
    count: tuple[int, int] = (0, 0)


RULES = {
    "one-server-loop": Rule(
        r"socketserver", ("repro/",),
        "socketserver found: every socket server is a command table on "
        "repro.store.wire_server.WireServer",
        "import socketserver"),
    "no-backend-capability-probe": Rule(
        r'getattr\([a-z_.]*(backend|upstream|local), *"(?!close")',
        ("repro/store/", "repro/containers/"),
        "capability probe on a backend: Backend is a total base class, "
        "call the Backend method",
        'put_many = getattr(self.backend, "put_many", None)'),
    "no-sleep-in-cluster": Rule(
        r"time\.sleep", ("repro/cluster/",),
        "time.sleep under repro/cluster: block in fetch/wait, pause "
        "outages through RetryPolicy",
        "        time.sleep(0.05)"),
    "no-interpreter-launch-in-cluster": Rule(
        r"subprocess|sys\.executable", ("repro/cluster/",),
        "an interpreter launch under repro/cluster: LocalCluster forks, "
        "remote workers run `cluster worker`",
        "proc = subprocess.Popen([sys.executable, '-m', 'repro.cli'])"),
    "no-poll-cap": Rule(
        r"MAX_(WAIT_)?POLL_SECONDS", ("repro/",),
        "a poll cap is back: fetch and wait block in the coordinator",
        "MAX_POLL_SECONDS = 0.5"),
    "pipeline-below-core": Rule(
        r"repro\.core|from \.+core", ("repro/pipeline/",),
        "repro.pipeline reaches up into repro.core: deployment belongs to "
        "repro.core.deployment",
        "from repro.core import deploy_batch"),
    "no-counter-diff-knob": Rule(
        r"counters_shared_with_workers|preprocess_job|_cache_delta",
        ("repro/",),
        "a counter-diff knob or the preprocess job kind is back: count in "
        "lower_configuration, one stage job per source share",
        "def preprocess_job(build, config):"),
    "removed-names-stay-removed": Rule(
        r'lowering_cache_keys|done_keys|lower_job|kind="lower"|set_enabled'
        r"|_NullMetric|CacheCounters|ImageAssemblyStage|_finalize_stats"
        r"|configuration_summary|_published|_maybe_ready_locked"
        r"|_unscoped_key|blocked_s|published_keys|BLOCKED"
        r"|pipeline\.engine|class (Context|Stage|Pipeline)\b|PipelineRun"
        r"|StageTiming|PipelineDefinitionError|StageExecutionError"
        r"|build_ir_pipeline|PIPELINE_INPUTS|__cause__"
        r"|Journal\b|JOURNAL_(REF|VERSION)|checkpoint_state|cluster-journal"
        r"|journal_interval|\.restore\("
        r"|_bump_stamp|_sync_counters|_adopt_stamp|blob-mutation"
        r"|\.total_bytes\b|lower_module_cached|MANIFEST_DIR|ir_path"
        r"|_stored_irs|children_exprs|^    output: str|CMakeFiles/"
        r"|xaas-(machine-module-v1|build-configuration-v[12])"
        r"|cache_hit_total|parallel_map|default_worker_count"
        r"|DEFAULT_MAX_WORKERS|JOB_MAX_WORKERS|add_latency"
        r'|_spawn_worker|_local_fleet|mode == "thread"'
        r"|def (lower|compile)\(self, (module|source)"
        r"|MetricsHistory|HistorySampler|history_lines|sparkline"
        r"|history_interval|cmd_telemetry_history|TOP_REFRESH_SECONDS"
        r"|include_worker_metrics"
        r"|take_release|_release_on|def release\(self, worker_id|\.leaving\b"
        r"|def run\(self, stop|externally-built cache"
        r"|FarmTelemetry|render_top|cmd_cluster_top|worker_summary"
        r"|merge_snapshot|merge_histograms|jobs_per_second"
        r"|_WORKER_(LATENCY|COUNTER)_FAMILIES"
        r'|OUTAGE_BACKOFF|"cmd": "stats"|"stats": stats|queue\.stats\('
        r"|configure_one\b",
        ("repro/",),
        "a removed name is back: the farm deploys one ISA group per deploy "
        "job, the cache counts nothing, telemetry is always on, "
        "IRContainerResult.assemble is the one assembly, the "
        "coordinator keeps no key graph — every job is READY at submit — "
        "nor any durable copy of its state — a restarted coordinator "
        "starts empty and the submitter resubmits — and run_front calls "
        "the stage functions, with no engine between them and no wrapped "
        "exception to unwrap, a store's size is counted by stat(), "
        "never tracked beside the blobs, and a deployment lowers through "
        "lower_modules_cached, one publish per batch; an IR container "
        "keeps each IR once, as its own raw layer, and its manifest rows "
        "per configuration, so it has no IR or manifests directory; "
        "machine modules are stored in their v2 codec and configurations "
        "in their v3 codec only, a compile command has no output path — "
        "it runs in its configuration's build_dir — and the C AST has no "
        "expression walk; PipelineStats keeps its hits per namespace only; "
        "the build front and a batch deployment run on the calling thread, "
        "with no pool to size, a Compiler stops at IR — lowering is "
        "lower_module's, at deployment — FaultyBackend injects no "
        "latency, and a LocalCluster forks its workers, with no thread "
        "mode for the CLI to pick; telemetry keeps no metrics history — "
        "no sampler thread, no `telemetry history` — and the farm's "
        "telemetry is the coordinator's registry, worker heartbeats "
        "folded in under a worker label, printed by `cluster status` "
        "alone; a worker leaves when its loop ends — no stop event, no "
        "`release` command — and opens its own cache; the client's retry "
        "is the one outage loop, and `telemetry` the one farm read — no "
        "`stats` command; configure_all configures a front's whole batch",
        "            counts = self.queue.restore(journal.load())"),
    "one-outage-loop": Rule(
        r"\.backoff\(|(policy|retry|BACKOFF)\.sleep\(", ("repro/",),
        "a backoff outside RetryPolicy.call: the one loop that rides out "
        "an outage is the retry policy's; a caller with a longer budget "
        "hands it over with RetryPolicy.lasting",
        "                self.retry.sleep(self.retry.backoff(outage))",
        allowed="repro/util/retry.py"),
    "one-body-encoding": Rule(
        r"chunked|open_blob|stream_threshold|STREAM_THRESHOLD|CHUNK_"
        r"|iter_chunks|write_chunks|read_chunk|chunk_prefix|BlobWriter"
        r"|_commit_blob_file|_drive_(put|get)|_(put|get)_io_done"
        r"|_begin_(sink|source)|_source_ready|_parse_chunk|_put_chunk_inline"
        r"|_close_stream|io_busy|put_done|put_over|open_sink"
        r"|_streams\b|get_chunked|sink=", ("repro/",),
        "a second body encoding is back: every request and response is one "
        "header plus its size-declared body, read whole by the one server "
        "loop; backends have no incremental writers",
        '        if req.get("chunked"):'),
    "the-client-orders-the-waves": Rule(
        r"requires=|produces=|\.requires\b|\.produces\b", ("repro/cluster/",),
        "a farm job declares artifact-key dependencies: cluster_build "
        "submits the deploy wave after the stage wave is done, and that is "
        "all that orders jobs",
        "               requires=tuple(ir_key(build, c) for c in configs),"),
    "funnel-has-one-derivation": Rule(
        r"\.(after_\w+|final_irs|total_tus)\s*[-+]?=(?!=)",
        ("repro/pipeline/",),
        "a funnel count is assigned in repro/pipeline: stages only record "
        "each TU's key in `funnel`; joint_stats derives every count and "
        "hands it to PipelineStats(...)",
        '        stats.after_openmp = _partition(ctx, "openmp", keys)'),
    "index-ref-name-has-one-home": Rule(
        r'"artifact-index', ("repro/",),
        "the index ref name is spelled outside repro.store.index: import "
        "INDEX_REF_PREFIX / index_ref_name from there",
        'ref = "artifact-index/" + namespace',
        allowed="repro/store/index.py"),
    "containers-store-imports-at-top": Rule(
        r"^\s+from repro\.store", ("repro/containers/store.py",),
        "function-level repro.store import in containers/store.py: import "
        "at the top, repro.store never imports containers",
        "    from repro.store.backend import BlobNotFound"),
    "one-blob-path-one-merge": Rule(
        r"_defer_blobs|_merge_index", ("repro/",),
        "a second blob path or a second index merge is back: queue in "
        "ArtifactCache, merge in ArtifactIndex",
        "def _merge_index(self, raw):"),
    "ir-flags-have-one-derivation": Rule(
        r'"-D", "-U"|== "-fopenmp"', ("repro/pipeline/",),
        "an inline frontend-flag filter in repro/pipeline: derive a class's "
        "IR flags with ir_frontend_flags from classify_flags",
        '    flags = [f for f in rep.flags if f == "-fopenmp"]'),
    "lowering-clones-structurally": Rule(
        r"deepcopy", ("repro/compiler/",),
        "deepcopy in repro/compiler: lowering works on Module.clone(), "
        "which copies what the passes rewrite and shares the frozen "
        "operands",
        "    work = copy.deepcopy(module)"),
    "farm-runs-the-build-front": Rule(
        r"\b(configure|preprocess|openmp|vectorize|ir_compile)_stage\b",
        ("repro/cluster/",),
        "a farm job calls build-front stages by hand: run the front "
        "run_front runs",
        "        ir_files, modules, irs = ir_compile_stage(app, cfgs, tus,"),
    "tier-reads-through-fleet-is-fixed": Rule(
        r"TierDegraded|single_flight|_Flight\b|flush_interval|flush_max_"
        r"|degraded_max|DEGRADED_PROBE|OUTAGE_ERRORS|_upstream_call"
        r"|_require_upstream|_note_upstream|autoscale|elastic|scale_events"
        r"|min_workers|scale_threshold|scale_poll|scale_cooldown"
        r"|_worker_stops|_live_worker_ids|_spawn_lock|_next_worker"
        r"|store\.tier\.flushed|tier_flushed|tier_flush|flushed_blobs"
        r"|flush-interval", ("repro/",),
        "the tier's write-back queue, degraded mode, single-flight or the "
        "elastic autoscaler is back: TieredBackend reads through and "
        "writes through, and a LocalCluster runs a fixed fleet",
        "    tier = TieredBackend(local, upstream, flush_interval=0.5)"),
    "no-in-process-pool": Rule(
        r"concurrent\.futures|ThreadPoolExecutor|max_workers",
        ("repro/pipeline/", "repro/core/", "repro/compiler/",
         "repro/cluster/"),
        "an in-process thread pool is back: the build front and a batch "
        "deployment are plain loops on the calling thread; parallelism "
        "is the farm's workers",
        "    results = parallel_map(_preprocess, missing, max_workers)"),
    "local-cluster-forks": Rule(
        r"threading\.Thread\(", ("repro/cluster/client.py",),
        "a thread is back in LocalCluster's module: its workers are "
        "forked processes, and the coordinator owns its loop thread",
        "        thread = threading.Thread(target=worker.run, daemon=True)"),
    "one-blob-codec": Rule(
        r"zlib\.(de)?compress\(", ("repro/",),
        "a one-shot zlib codec is back: a blob file is deflated by "
        "pack_blob and inflated by unpack_blob, both against "
        "BLOB_DICTIONARY",
        "    return min(data, zlib.compress(data), key=len)"),
    "a-stage-publishes-once": Rule(
        r"cache\.put\((?![^#]*entry\.payload)", ("repro/",),
        "a single cache put outside a hit's promotion: a stage looks up "
        "every item, computes the misses and publishes them with one "
        "put_many — one blob batch and one index save per stage",
        '    cache.put("ir", parts, text, obj=module)'),
    "cli-is-one-command-table": Rule(
        r"add_parser", ("repro/cli.py",),
        "the CLI parser is a loop over one command table: one add_parser "
        "for the groups, one for the rows",
        '    sub.add_parser("extra")', count=(0, 2)),
    "cli-opens-a-file-store-once": Rule(
        r"FileBackend\(", ("repro/cli.py",),
        "the CLI opens a file store in exactly one place",
        "    backend = FileBackend(args.store)", count=(1, 1)),
    "cli-opens-a-remote-store-once": Rule(
        r"RemoteBackend\(", ("repro/cli.py",),
        "the CLI opens a served store in exactly one place",
        "    backend = RemoteBackend(host, port)", count=(1, 1)),
}


def source_files() -> dict[str, str]:
    """Every ``.py`` file under ``src/``: path relative to it -> text."""
    return {path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8")
            for path in sorted(SRC.rglob("*.py"))}


def violation(rule: Rule, files: dict[str, str]) -> str | None:
    """The failure message when ``files`` break ``rule``, else None."""
    regex = re.compile(rule.pattern)
    found = [f"{path}:{number}: {line.strip()}"
             for path, text in files.items()
             if path.startswith(rule.scope) and path != rule.allowed
             for number, line in enumerate(text.splitlines(), 1)
             if regex.search(line)]
    least, most = rule.count
    if least <= len(found) <= most:
        return None
    return "\n".join([f"{rule.reason} ({len(found)} matching lines, "
                      f"{least}-{most} allowed)", *found])


SOURCES = source_files()


@pytest.mark.parametrize("name", RULES)
def test_rule_holds(name):
    problem = violation(RULES[name], SOURCES)
    assert problem is None, problem


@pytest.mark.parametrize("name", RULES)
def test_rule_catches_its_example(name):
    rule = RULES[name]
    target = next(path for path in SOURCES
                  if path.startswith(rule.scope) and path != rule.allowed)
    planted = {**SOURCES, target: SOURCES[target] + "\n" + rule.example}
    assert violation(rule, planted) is not None
