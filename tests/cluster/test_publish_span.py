"""A job's publish — the bulk cache's deferred blobs, then its index — is
part of the job: inside its span, before its completion report, and a
store that refuses it fails the job."""

from dataclasses import replace

from test_flight_recorder_crash import _traced_job

from repro.apps import lulesh_configs
from repro.cluster import (BuildSpec, ClusterWorker, Coordinator,
                           CoordinatorClient)
from repro.cluster.jobs import lower_job
from repro.containers.store import (ArtifactCache, BlobStore,
                                    BULK_FLUSH_EVERY)
from repro.store import FileBackend
from repro.testing.faults import FaultyBackend


def _worker(host, port, backend):
    store = BlobStore(backend)
    return ClusterWorker(
        CoordinatorClient(host, port), store,
        cache=ArtifactCache(store, flush_every=BULK_FLUSH_EVERY),
        worker_id="w")


def test_publish_is_a_child_span_of_the_job_and_precedes_completion(tmp_path):
    with Coordinator() as coordinator:
        host, port = coordinator.address
        client = CoordinatorClient(host, port)
        client.submit([_traced_job()])
        worker = _worker(host, port, FileBackend(tmp_path / "store"))
        assert worker.run_one() is True
        assert client.status(["pp"])["pp"]["state"] == "done"
        assert worker.cache.pending_blobs == (0, 0)

        spans = {span.name: span
                 for span in coordinator.queue.telemetry.recorder.spans()}
        job, publish = spans["cluster.worker.ir-compile"], \
            spans["cluster.publish"]
        assert publish.parent_id == job.span_id
        assert publish.trace_id == job.trace_id
        assert job.start <= publish.start
        assert publish.start + publish.duration <= job.start + job.duration
        # One IR per translation unit of the configuration, none of them
        # on the store when the job body returned.
        assert publish.attrs["blobs"] == 5 and publish.attrs["bytes"] > 0
    # Announced means published: a second handle resolves the entries.
    reader = ArtifactCache(BlobStore(FileBackend(tmp_path / "store")))
    assert reader.stats()["entries_by_namespace"]["ir"] == 5


def test_a_lower_jobs_publish_span_carries_its_machine_modules(tmp_path):
    """Counting a job's lowerings must not flush them: the machine
    modules land in the publish, and its span says how many."""
    build = BuildSpec(app="lulesh", configs=tuple(lulesh_configs()))
    options = {"WITH_MPI": "OFF", "WITH_OPENMP": "ON"}
    job = replace(lower_job(build, options, "x86_64", "AVX2_256"),
                  requires=(), trace=_traced_job().trace)
    with Coordinator() as coordinator:
        host, port = coordinator.address
        CoordinatorClient(host, port).submit([job])
        worker = _worker(host, port, FileBackend(tmp_path / "store"))
        assert worker.run_one() is True
        record = coordinator.queue.status([job.job_id])[job.job_id]
        assert record["state"] == "done"
        lowered = record["result"]["lowerings_performed"]
        assert lowered == record["result"]["lowerings"] > 0
        [publish] = [span for span
                     in coordinator.queue.telemetry.recorder.spans()
                     if span.name == "cluster.publish"]
        assert publish.attrs["blobs"] == lowered
        assert publish.attrs["bytes"] > 0
        assert worker.cache.pending_blobs == (0, 0)


def test_a_refused_publish_fails_the_job(tmp_path):
    # The job body's one batch (the preprocess stage's) goes through; the
    # second put_many is the publish of the IRs.
    faulty = FaultyBackend(FileBackend(tmp_path / "store")).fail_every(
        2, ops=("put_many",))
    with Coordinator() as coordinator:
        host, port = coordinator.address
        client = CoordinatorClient(host, port)
        client.submit([_traced_job()])
        worker = _worker(host, port, faulty)
        assert worker.run_one() is True
        assert (worker.jobs_done, worker.jobs_failed) == (0, 1)
        assert faulty.injected == {"put_many": 1}
        assert worker.cache.pending_blobs[0] == 5
        record = client.status(["pp"])["pp"]
        assert record["state"] != "done"
        assert "injected fault" in record["error"]
