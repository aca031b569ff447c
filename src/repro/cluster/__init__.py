"""The build-farm cluster: coordinator/worker scheduling over a shared store.

The single-process pipeline (:mod:`repro.pipeline`) runs one build on one
core; this package fans the same stage graph out across worker processes
that share one artifact store (:mod:`repro.store`). The division of labor:

* the **coordinator** (:mod:`repro.cluster.coordinator`) holds the job
  graph — one stage job per configuration, one lower job per cold ISA,
  one deploy job per system, gated on artifact keys — behind a
  work-stealing queue with leases, crash re-queueing, and idempotent
  completion;
* **workers** (:mod:`repro.cluster.worker`) pull jobs and run the actual
  pipeline stages, publishing every artifact through the store's
  content-addressed cache — the store *is* the data plane, the wire
  carries keys and counts only;
* the **client** (:mod:`repro.cluster.client`) plans a build, probes the
  store's ``lower`` index so already-lowered ISAs deploy first
  (store-aware scheduling), and aggregates the results.

Entry points: ``repro.cli cluster serve|worker|build``, the
:class:`LocalCluster` helper, and ``deploy-batch --workers N`` (a
self-hosted farm forks its workers when the command's store is a
directory, and runs threads when it is not).
"""

from repro.cluster.client import (
    ClusterBuildReport,
    CoordinatorClient,
    CoordinatorUnreachable,
    LocalCluster,
    cluster_build,
)
from repro.cluster.coordinator import Coordinator, JobQueue
from repro.cluster.jobs import BuildSpec, ClusterError, Job
from repro.cluster.journal import Journal
from repro.cluster.worker import ClusterWorker

__all__ = [
    "BuildSpec", "ClusterBuildReport", "ClusterError",
    "ClusterWorker", "Coordinator", "CoordinatorClient",
    "CoordinatorUnreachable", "Job", "JobQueue", "Journal",
    "LocalCluster", "cluster_build",
]
