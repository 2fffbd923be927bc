"""Multi-job workloads: job descriptions and seeded arrival generation.

A cluster workload is a list of :class:`JobSpec` — *what* arrives
*when*.  Two ways to get one:

* build the list explicitly (reproducible scenario tests), or
* describe a distribution with :class:`WorkloadSpec` and call
  :meth:`WorkloadSpec.generate`, which samples arrivals from a named
  :class:`~repro.sim.rng.RngStreams` stream (``"sched.arrivals"``) so
  the trace is a pure function of the seed.

Every kernel carries an **analytic VI-demand bound**: the most VIs any
one process of an ``n``-rank job will ever attach under on-demand
management (the numbers the paper's Table 1 derives from communication
graphs).  The scheduler's admission control reserves this bound against
the per-NIC quota, so a lazily-growing on-demand job can never blow the
quota mid-run — while a static job must reserve the full ``n-1``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

from repro.mpi.conn import init_vi_demand
from repro.sim.rng import RngStreams
from repro.workloads.registry import KERNEL_DEFS, KernelDef

__all__ = [
    "JobSpec",
    "WorkloadSpec",
    "schedulable_kernels",
    "with_connection",
]


def schedulable_kernels() -> List[str]:
    """Every registered kernel the scheduler can run (it has a VI bound
    and a backfill estimate), sorted.  The registry is the workload
    vocabulary, so a kernel registered at runtime — a captured trace
    included — is schedulable at once."""
    return sorted(name for name, defn in KERNEL_DEFS.items()
                  if defn.schedulable)


def _cluster_kernel(name: str) -> KernelDef:
    defn = KERNEL_DEFS.get(name)
    if defn is None or not defn.schedulable:
        raise ValueError(f"unknown cluster kernel {name!r}; "
                         f"available: {schedulable_kernels()}")
    return defn


@dataclass(frozen=True)
class JobSpec:
    """One job of a cluster workload."""

    job_id: int
    arrival_us: float
    kernel: str
    nprocs: int
    connection: str = "ondemand"
    #: user-supplied runtime estimate for EASY backfill, µs (never the
    #: actual runtime — schedulers only see estimates)
    est_runtime_us: float = 50_000.0

    def __post_init__(self) -> None:
        kern = _cluster_kernel(self.kernel)
        if self.nprocs < kern.min_procs:
            raise ValueError(
                f"kernel {self.kernel!r} needs >= {kern.min_procs} "
                f"processes, got {self.nprocs}"
            )
        if kern.max_procs is not None and self.nprocs > kern.max_procs:
            raise ValueError(
                f"kernel {self.kernel!r} runs at <= {kern.max_procs} "
                f"processes (trace capture size), got {self.nprocs}"
            )
        if self.arrival_us < 0:
            raise ValueError("arrival_us must be >= 0")
        if self.est_runtime_us <= 0:
            raise ValueError("est_runtime_us must be > 0")

    @property
    def vi_reserve_per_proc(self) -> int:
        """VIs the scheduler reserves per process of this job: the
        static MPI_Init demand or the kernel's analytic on-demand bound,
        whichever binds.

        ``connection="predicted"`` admits against the statically analyzed
        communication graph instead (:mod:`repro.analysis.comm`): the
        graph is a proven upper bound on what the predicted manager will
        connect, so admission can be exactly as tight as the analysis.
        """
        if self.connection == "predicted":
            # lazy import: admission math must not drag the analyzer
            # (and numpy's AST walk) into plain scheduler runs
            from repro.analysis.comm import predicted_vi_demand

            return init_vi_demand(
                self.connection, self.nprocs,
                predicted_degree=predicted_vi_demand(
                    self.kernel, self.nprocs),
            )
        vi_demand = _cluster_kernel(self.kernel).vi_demand
        assert vi_demand is not None
        return max(
            init_vi_demand(self.connection, self.nprocs),
            vi_demand(self.nprocs),
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """A seeded random workload: sample ``generate()`` for the job list.

    All randomness flows through one named stream of
    :class:`~repro.sim.rng.RngStreams` seeded from ``seed``, drawn in a
    fixed per-job order (inter-arrival, kernel, size, mechanism) — the
    trace is byte-reproducible and independent of scheduler policy.
    """

    njobs: int = 8
    #: exponential inter-arrival mean, µs
    mean_interarrival_us: float = 20_000.0
    kernels: Tuple[str, ...] = ("ring", "allreduce", "alltoall")
    #: per-job size choices; powers of two keep collective VI bounds tight
    nprocs_choices: Tuple[int, ...] = (2, 4, 8)
    connections: Tuple[str, ...] = ("ondemand",)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.njobs < 1:
            raise ValueError("njobs must be >= 1")
        if self.mean_interarrival_us < 0:
            raise ValueError("mean_interarrival_us must be >= 0")
        for k in self.kernels:
            _cluster_kernel(k)
        if not self.kernels or not self.nprocs_choices or not self.connections:
            raise ValueError("kernels/nprocs_choices/connections are empty")

    def generate(self) -> Tuple[JobSpec, ...]:
        """Sample the job list; a pure function of this spec."""
        arr = RngStreams(self.seed).stream("sched.arrivals")
        jobs = []
        t = 0.0
        for jid in range(self.njobs):
            t += float(arr.exponential(self.mean_interarrival_us))
            kernel = self.kernels[int(arr.integers(len(self.kernels)))]
            nprocs = int(
                self.nprocs_choices[int(arr.integers(len(self.nprocs_choices)))]
            )
            conn = self.connections[int(arr.integers(len(self.connections)))]
            defn = _cluster_kernel(kernel)
            nprocs = defn.clamp_nprocs(nprocs)
            assert defn.est_us_per_rank is not None
            jobs.append(
                JobSpec(
                    job_id=jid,
                    arrival_us=round(t, 3),
                    kernel=kernel,
                    nprocs=nprocs,
                    connection=conn,
                    est_runtime_us=defn.est_us_per_rank * nprocs,
                )
            )
        return tuple(jobs)


def with_connection(jobs: Sequence[JobSpec], connection: str) -> Tuple[JobSpec, ...]:
    """The same arrival trace under one forced connection mechanism —
    the apples-to-apples sweep of the ``repro.bench cluster`` CLI."""
    out = []
    for job in jobs:
        defn = KERNEL_DEFS.get(job.kernel)
        est = (defn.est_us_per_rank * job.nprocs
               if defn is not None and defn.est_us_per_rank is not None
               else job.est_runtime_us)
        out.append(replace(job, connection=connection, est_runtime_us=est))
    return tuple(out)
