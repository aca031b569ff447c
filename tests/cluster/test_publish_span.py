"""A job's publish — the bulk cache's deferred blobs, then its index — is
part of the job: inside its span, before its completion report, and a
store that refuses it fails the job."""

from dataclasses import replace

from test_flight_recorder_crash import _traced_job

from repro.apps import lulesh_configs
from repro.cluster import (BuildSpec, ClusterWorker, Coordinator,
                           CoordinatorClient)
from repro.cluster.jobs import deploy_job
from repro.containers.store import ArtifactCache, BlobStore
from repro.core import build_ir_container
from repro.store import FileBackend
from repro.testing.faults import FaultyBackend


def _worker(host, port, backend):
    return ClusterWorker(CoordinatorClient(host, port), BlobStore(backend),
                         worker_id="w")


def _observe_publish(worker, root, namespace):
    """What a second handle sees when ``worker``'s publish starts: one
    ``(namespace entries it resolves, worker's pending blobs)`` per job."""
    seen = []
    publish = worker._publish

    def observed():
        reader = ArtifactCache(BlobStore(FileBackend(root)))
        seen.append((reader.stats()["entries_by_namespace"].get(namespace, 0),
                     worker.cache.pending_blobs))
        publish()

    worker._publish = observed
    return seen


def test_publish_is_a_child_span_of_the_job_and_precedes_completion(tmp_path):
    """The IR stage lands the job's IRs as one batch when it ends, so they
    are on the store before the job's publish span starts: a second handle
    resolves every one, and nothing is pending."""
    with Coordinator() as coordinator:
        host, port = coordinator.address
        client = CoordinatorClient(host, port)
        client.submit([_traced_job()])
        worker = _worker(host, port, FileBackend(tmp_path / "store"))
        before_publish = _observe_publish(worker, tmp_path / "store", "ir")
        assert worker.run_one() is True
        assert client.status(["pp"])["pp"]["state"] == "done"
        assert worker.cache.pending_blobs == (0, 0)

        spans = {span.name: span
                 for span in coordinator.queue.recorder.spans()}
        job, publish = spans["cluster.worker.ir-compile"], \
            spans["cluster.publish"]
        assert publish.parent_id == job.span_id
        assert publish.trace_id == job.trace_id
        assert job.start <= publish.start
        assert publish.start + publish.duration <= job.start + job.duration
        # One IR per translation unit of the configuration, every one on
        # the store before the publish span began.
        assert before_publish == [(5, (0, 0))]
        assert publish.attrs["blobs"] == 0
    # Announced means published: a second handle resolves the entries.
    reader = ArtifactCache(BlobStore(FileBackend(tmp_path / "store")))
    assert reader.stats()["entries_by_namespace"]["ir"] == 5


def test_a_deploy_jobs_machine_modules_are_durable_before_its_publish(
        tmp_path):
    """The lowering loop lands a group's machine modules as one batch when
    it ends, so they are on the store before the job's publish span
    starts: a second handle resolves every one, and nothing is pending."""
    build = BuildSpec(app="lulesh", configs=tuple(lulesh_configs()))
    options = {"WITH_MPI": "OFF", "WITH_OPENMP": "ON"}
    # The image the job deploys, built where the job will look for it.
    store = BlobStore(FileBackend(tmp_path / "store"))
    image = build_ir_container(build.resolve_app(), list(build.configs),
                               store=store, cache=ArtifactCache(store)).image
    job = replace(deploy_job(build, options, "x86_64", "AVX2_256",
                             ("ault25", "dev-machine"), image.digest),
                  trace=_traced_job().trace)
    with Coordinator() as coordinator:
        host, port = coordinator.address
        CoordinatorClient(host, port).submit([job])
        worker = _worker(host, port, FileBackend(tmp_path / "store"))
        before_publish = _observe_publish(worker, tmp_path / "store",
                                          "lower")
        assert worker.run_one() is True
        record = coordinator.queue.status([job.job_id])[job.job_id]
        assert record["state"] == "done"
        result = record["result"]
        lowered = result["lowerings_performed"]
        # The group's first system lowered, the second reused it all.
        first, second = result["deployments"]
        assert 0 < lowered <= first["lowered_count"]
        assert lowered + result["lowerings_reused"] == \
            first["lowered_count"] + second["lowered_count"]
        assert before_publish == [(lowered, (0, 0))]
        assert [span.name for span
                in coordinator.queue.recorder.spans()
                if span.name == "cluster.publish"] == ["cluster.publish"]
        assert worker.cache.pending_blobs == (0, 0)


def test_a_refused_publish_fails_the_job(tmp_path):
    """On a warm store every stage hits, so the stages' batches are empty
    and make no backend call; the job's one put_many is the publish of the
    IRs its hits promoted. A store that refuses it fails the job."""
    # The same configuration the traced job builds, through a plain cache.
    build = BuildSpec(app="lulesh",
                      configs=({"WITH_MPI": "OFF", "WITH_OPENMP": "ON"},))
    store = BlobStore(FileBackend(tmp_path / "store"))
    build_ir_container(build.resolve_app(), list(build.configs), store=store,
                       cache=ArtifactCache(store))
    faulty = FaultyBackend(FileBackend(tmp_path / "store")).fail_every(
        1, ops=("put_many",))
    with Coordinator() as coordinator:
        host, port = coordinator.address
        client = CoordinatorClient(host, port)
        client.submit([_traced_job()])
        worker = _worker(host, port, faulty)
        assert worker.run_one() is True
        assert (worker.jobs_done.value, worker.jobs_failed.value) == (0, 1)
        assert faulty.injected == {"put_many": 1}
        assert worker.cache.pending_blobs[0] == 5
        record = client.status(["pp"])["pp"]
        assert record["state"] != "done"
        assert "injected fault" in record["error"]
        [publish] = [span for span in coordinator.queue.recorder.spans()
                     if span.name == "cluster.publish"]
        assert publish.attrs["blobs"] == 5 and publish.attrs["bytes"] > 0


def test_a_refused_ir_batch_fails_the_job(tmp_path):
    # The job body's first two batches (the configure and preprocess
    # stages') go through; the third put_many is the IR stage's batch.
    faulty = FaultyBackend(FileBackend(tmp_path / "store")).fail_every(
        3, ops=("put_many",))
    with Coordinator() as coordinator:
        host, port = coordinator.address
        client = CoordinatorClient(host, port)
        client.submit([_traced_job()])
        worker = _worker(host, port, faulty)
        assert worker.run_one() is True
        assert (worker.jobs_done.value, worker.jobs_failed.value) == (0, 1)
        assert faulty.injected == {"put_many": 1}
        record = client.status(["pp"])["pp"]
        assert record["state"] != "done"
        assert "injected fault" in record["error"]
