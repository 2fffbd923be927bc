"""Cluster construction and MPI job execution.

The top of the public API: describe a cluster
(:class:`~repro.cluster.spec.ClusterSpec`), pick a library configuration
(:class:`~repro.mpi.config.MpiConfig`), hand over a rank program, and
:func:`~repro.cluster.job.run_job` returns a
:class:`~repro.cluster.job.JobResult` with per-rank return values,
timings and the resource metrics the paper tabulates.

    from repro.cluster import ClusterSpec, run_job
    from repro.mpi import MpiConfig

    def prog(mpi):
        yield from mpi.barrier()
        return mpi.rank

    result = run_job(ClusterSpec(nodes=8, ppn=2), nprocs=16, program=prog,
                     config=MpiConfig(connection="ondemand"))
"""

from repro.cluster.spec import ClusterSpec, rank_to_node
from repro.cluster.build import ClusterStack, build_cluster
from repro.cluster.job import JobResult, run_job
from repro.cluster.oob import OobBoard
from repro.cluster.workload import JobSpec, WorkloadSpec, with_connection
from repro.cluster.sched import (
    ClusterReport,
    ClusterResult,
    ClusterScheduler,
    JobRecord,
    SchedulerError,
    run_cluster,
    run_cluster_cell,
)

__all__ = [
    "ClusterSpec", "rank_to_node", "JobResult", "run_job", "OobBoard",
    "ClusterStack", "build_cluster",
    "JobSpec", "WorkloadSpec", "with_connection",
    "ClusterReport", "ClusterResult", "ClusterScheduler", "JobRecord",
    "SchedulerError", "run_cluster", "run_cluster_cell",
]
