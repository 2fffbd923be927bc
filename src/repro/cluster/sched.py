"""Multi-job cluster scheduler: co-scheduled MPI jobs on one shared stack.

The paper argues (Tables 1–2) that on-demand connection management cuts
per-process VI usage to what the communication pattern needs.  On an
idle cluster that is a memory argument; on a *shared* cluster it is a
throughput argument: NIC VI quotas are a schedulable resource, static
jobs must reserve ``N-1`` VIs per co-resident process before they can
start, and on-demand jobs reserve only their communication graph's
bound — so more of them fit at once and makespan drops.  This module
makes that argument measurable.

Design
------
One :class:`~repro.sim.engine.Engine` carries everything: job arrivals
are DES events, each admitted job's ranks run as coroutines against the
*shared* :class:`~repro.cluster.build.ClusterStack` (one fabric, one NIC
and one kernel connection agent per node — jobs genuinely contend for
the serial NIC/agent service engines), and completions trigger the next
scheduling pass.  Jobs are isolated by ``job_id``: VIA discriminators,
client/server listen queues and disconnect routing all carry it.

Determinism: arrivals come from a named seeded stream, every scheduler
decision iterates nodes and jobs in sorted order with explicit
tie-breaks, and nothing reads the wall clock — the same
:class:`~repro.cluster.workload.WorkloadSpec` seed yields a
byte-identical :class:`ClusterReport` JSON document on every run.

Admission control
-----------------
A job may start only if, beyond free CPU slots, every node it lands on
has ``vi_reserve_per_proc`` VIs of quota headroom per process placed
there (:attr:`~repro.cluster.workload.JobSpec.vi_reserve_per_proc`:
the static ``MPI_Init`` demand, or the kernel's analytic on-demand
bound).  The reservation is an upper bound, so a lazily-growing
on-demand job can never trip the NIC's hard quota mid-run; the NIC
still enforces it (:class:`~repro.via.nic.Nic` raises past
``vi_quota``), which the contention tests use as a safety net.

Policies: **fcfs** starts the queue head as soon as it fits and never
looks past it; **easy** additionally backfills later jobs that fit now
and — by their runtime *estimates* — finish before the head's earliest
possible start (the classic EASY guarantee: the head is never delayed).
Placement: **packed** fills the most-loaded eligible nodes first
(fewest nodes per job); **spread** one process at a time on the
least-loaded eligible node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.build import ClusterStack, build_cluster
from repro.cluster.job import (
    Ranks,
    launch_ranks,
    mechanism_config,
    resolve_telemetry,
)
from repro.cluster.spec import ClusterSpec
from repro.cluster.workload import JobSpec
from repro.metrics.resources import ResourceReport
from repro.mpi.conn import runs_on
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.telemetry import Telemetry
from repro.workloads.registry import build_program

POLICIES = ("fcfs", "easy")
PLACEMENTS = ("packed", "spread")
#: a job arrival's entry name ("<lambda>": entry names are fingerprint
#: material, pinned when the arrival was a closure)
ARRIVAL = "<lambda>"


class SchedulerError(RuntimeError):
    """A job can never be placed, or a job's rank program failed."""


@dataclass
class JobRecord:
    """Everything measured about one job of a cluster run."""

    job_id: int
    kernel: str
    nprocs: int
    connection: str
    vi_reserve_per_proc: int
    arrival_us: float
    start_us: float = -1.0
    finish_us: float = -1.0
    init_max_us: float = 0.0
    #: node of each rank, in rank order
    nodes: Tuple[int, ...] = ()
    resources: Optional[ResourceReport] = None
    #: per-job latency attribution (traced runs only; rounded µs per
    #: bucket plus connect_share — see repro.telemetry.critpath)
    critpath: Optional[Dict[str, float]] = None

    @property
    def wait_us(self) -> float:
        return self.start_us - self.arrival_us

    @property
    def turnaround_us(self) -> float:
        return self.finish_us - self.arrival_us

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "job_id": self.job_id,
            "kernel": self.kernel,
            "nprocs": self.nprocs,
            "connection": self.connection,
            "vi_reserve_per_proc": self.vi_reserve_per_proc,
            "arrival_us": self.arrival_us,
            "start_us": self.start_us,
            "finish_us": self.finish_us,
            "wait_us": self.wait_us,
            "turnaround_us": self.turnaround_us,
            "init_max_us": self.init_max_us,
            "nodes": list(self.nodes),
            "avg_vis": 0.0 if self.resources is None else self.resources.avg_vis,
            "connections": (
                0 if self.resources is None
                else self.resources.total_connections
            ),
        }
        if self.critpath is not None:
            # only present on traced runs, so untraced reports stay
            # byte-identical to what they were before flow tracing
            out["critpath"] = self.critpath
        return out


@dataclass
class ClusterReport:
    """The byte-deterministic serializable view of a cluster run."""

    policy: str
    placement: str
    nodes: int
    ppn: int
    profile: str
    vi_quota: Optional[int]
    seed: int
    jobs: List[Dict[str, Any]] = field(default_factory=list)
    makespan_us: float = 0.0
    avg_wait_us: float = 0.0
    avg_turnaround_us: float = 0.0
    max_init_us: float = 0.0
    peak_concurrent_jobs: int = 0
    nic_vi_high_water: Dict[str, int] = field(default_factory=dict)
    node_utilization: Dict[str, float] = field(default_factory=dict)
    events_processed: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": 1,
            "policy": self.policy,
            "placement": self.placement,
            "nodes": self.nodes,
            "ppn": self.ppn,
            "profile": self.profile,
            "vi_quota": self.vi_quota,
            "seed": self.seed,
            "jobs": self.jobs,
            "makespan_us": self.makespan_us,
            "avg_wait_us": self.avg_wait_us,
            "avg_turnaround_us": self.avg_turnaround_us,
            "max_init_us": self.max_init_us,
            "peak_concurrent_jobs": self.peak_concurrent_jobs,
            "nic_vi_high_water": self.nic_vi_high_water,
            "node_utilization": self.node_utilization,
            "events_processed": self.events_processed,
        }


@dataclass
class ClusterResult:
    """In-Python result of one multi-job cluster run."""

    spec: ClusterSpec
    policy: str
    placement: str
    records: List[JobRecord]
    makespan_us: float
    peak_concurrent_jobs: int
    nic_vi_high_water: Dict[int, int]
    node_utilization: Dict[int, float]
    events_processed: int
    telemetry: Optional[Telemetry] = None

    @property
    def avg_wait_us(self) -> float:
        return sum(r.wait_us for r in self.records) / max(1, len(self.records))

    @property
    def avg_turnaround_us(self) -> float:
        return sum(r.turnaround_us for r in self.records) / max(
            1, len(self.records))

    def report(self) -> ClusterReport:
        return ClusterReport(
            policy=self.policy,
            placement=self.placement,
            nodes=self.spec.nodes,
            ppn=self.spec.ppn,
            profile=self.spec.profile.name,
            vi_quota=self.spec.vi_quota,
            seed=self.spec.seed,
            jobs=[r.to_dict() for r in sorted(self.records,
                                              key=lambda r: r.job_id)],
            makespan_us=self.makespan_us,
            avg_wait_us=self.avg_wait_us,
            avg_turnaround_us=self.avg_turnaround_us,
            max_init_us=max((r.init_max_us for r in self.records),
                            default=0.0),
            peak_concurrent_jobs=self.peak_concurrent_jobs,
            nic_vi_high_water={
                str(n): hw for n, hw in sorted(self.nic_vi_high_water.items())
            },
            node_utilization={
                str(n): u for n, u in sorted(self.node_utilization.items())
            },
            events_processed=self.events_processed,
        )


class _RunningJob:
    """Book-keeping for one admitted job."""

    __slots__ = ("job", "record", "assign", "per_node", "est_end_us",
                 "procs")

    def __init__(self, job: JobSpec, record: JobRecord,
                 assign: Tuple[int, ...], start_us: float):
        self.job = job
        self.record = record
        self.assign = assign
        self.per_node: Dict[int, int] = {}
        for node in assign:
            self.per_node[node] = self.per_node.get(node, 0) + 1
        self.est_end_us = start_us + job.est_runtime_us
        self.procs: list = []


class ClusterScheduler:
    """Run a workload of MPI jobs on one shared simulated cluster."""

    def __init__(
        self,
        spec: ClusterSpec,
        jobs: Sequence[JobSpec],
        *,
        policy: str = "fcfs",
        placement: str = "packed",
        engine: Optional[Engine] = None,
        telemetry=None,
    ):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; pick from {POLICIES}")
        if placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {placement!r}; pick from {PLACEMENTS}")
        ids = [j.job_id for j in jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("job_ids must be unique within a workload")
        self.spec = spec
        self.policy = policy
        self.placement = placement
        #: deterministic service order: arrival time, then job id
        self.jobs = sorted(jobs, key=lambda j: (j.arrival_us, j.job_id))
        self.engine = engine or Engine()
        self.tel: Optional[Telemetry] = resolve_telemetry(self.engine,
                                                          telemetry)
        self.stack: ClusterStack = build_cluster(
            self.engine, spec, telemetry=self.tel)
        self._rng = RngStreams(spec.seed)

        # schedulable resources
        self._cpu_free: Dict[int, int] = {n: spec.ppn for n in range(spec.nodes)}
        self._vi_reserved: Dict[int, int] = {n: 0 for n in range(spec.nodes)}

        # every job must be runnable, and placeable on an *empty* cluster,
        # or FCFS would head-block forever once it reaches the queue front
        for job in self.jobs:
            if not runs_on(job.connection, spec.profile):
                raise SchedulerError(
                    f"job {job.job_id} ({job.connection}): profile "
                    f"{spec.profile.name!r} does not support the "
                    "client/server connection model"
                )
            if self._place(job, self._cpu_free, self._vi_reserved) is None:
                raise SchedulerError(
                    f"job {job.job_id} ({job.kernel}, np={job.nprocs}, "
                    f"{job.connection}) cannot fit even an empty cluster: "
                    f"needs {job.vi_reserve_per_proc} VIs/proc under quota "
                    f"{spec.vi_quota} on {spec.nodes}x{spec.ppn} slots"
                )

        self._queue: List[JobSpec] = []
        self._running: Dict[int, _RunningJob] = {}
        self.records: Dict[int, JobRecord] = {}
        self._peak_running = 0

        # node-utilization integral: busy slot-µs per node
        self._busy_acc: Dict[int, float] = {n: 0.0 for n in range(spec.nodes)}
        self._cpu_used: Dict[int, int] = {n: 0 for n in range(spec.nodes)}
        self._last_change = 0.0
        self._last_finish = 0.0
        self._first_arrival = min(
            (j.arrival_us for j in self.jobs), default=0.0)

    # -- placement ---------------------------------------------------------
    def _capacity(self, node: int, reserve: int,
                  cpu_free: Dict[int, int],
                  vi_reserved: Dict[int, int]) -> int:
        """Processes of a ``reserve``-VIs-each job this node can host."""
        cap = cpu_free[node]
        quota = self.spec.vi_quota
        if quota is not None and reserve > 0:
            cap = min(cap, (quota - vi_reserved[node]) // reserve)
        return max(0, cap)

    def _place(self, job: JobSpec,
               cpu_free: Dict[int, int],
               vi_reserved: Dict[int, int]) -> Optional[Tuple[int, ...]]:
        """Node of each rank, or None if the job does not fit right now."""
        reserve = job.vi_reserve_per_proc
        caps = {
            n: self._capacity(n, reserve, cpu_free, vi_reserved)
            for n in range(self.spec.nodes)
        }
        if sum(caps.values()) < job.nprocs:
            return None
        assign: List[int] = []
        if self.placement == "packed":
            # most-loaded eligible node first (fewest free CPU slots),
            # node id breaks ties — a job spans as few nodes as possible
            order = sorted(caps, key=lambda n: (cpu_free[n], n))
            for node in order:
                take = min(caps[node], job.nprocs - len(assign))
                assign.extend([node] * take)
                if len(assign) == job.nprocs:
                    break
        else:  # spread
            used = {n: self.spec.ppn - cpu_free[n] for n in caps}
            while len(assign) < job.nprocs:
                node = min(
                    (n for n in caps if caps[n] > 0),
                    key=lambda n: (used[n], n),
                )
                assign.append(node)
                caps[node] -= 1
                used[node] += 1
        return tuple(sorted(assign))

    # -- utilization integral ----------------------------------------------
    def _account(self) -> None:
        now = self.engine.now
        dt = now - self._last_change
        if dt > 0:
            for n, used in self._cpu_used.items():
                if used:
                    self._busy_acc[n] += used * dt
        self._last_change = now

    # -- scheduling passes -------------------------------------------------
    def _arrive(self, job: JobSpec) -> None:
        self._queue.append(job)
        self._queue.sort(key=lambda j: (j.arrival_us, j.job_id))
        if self.tel is not None:
            self.tel.instant("job.arrive", ("job", job.job_id),
                             kernel=job.kernel, nprocs=job.nprocs,
                             connection=job.connection)
        self._schedule_pass()

    def _schedule_pass(self) -> None:
        # FCFS prefix: start queue heads while they fit
        while self._queue:
            head = self._queue[0]
            assign = self._place(head, self._cpu_free, self._vi_reserved)
            if assign is None:
                break
            self._queue.pop(0)
            self._start(head, assign)
        if self.policy != "easy" or not self._queue:
            return
        # EASY backfill: jobs behind the blocked head may start if, by
        # their estimates, they are gone before the head could start
        shadow = self._shadow_time(self._queue[0])
        for job in list(self._queue[1:]):
            if self.engine.now + job.est_runtime_us > shadow:
                continue
            assign = self._place(job, self._cpu_free, self._vi_reserved)
            if assign is None:
                continue
            self._queue.remove(job)
            self._start(job, assign)

    def _shadow_time(self, head: JobSpec) -> float:
        """Earliest time the blocked head could start, assuming running
        jobs end exactly at their estimates (released in that order)."""
        cpu = dict(self._cpu_free)
        vi = dict(self._vi_reserved)
        now = self.engine.now
        releases = sorted(
            self._running.values(),
            key=lambda rj: (max(rj.est_end_us, now), rj.job.job_id),
        )
        for rj in releases:
            reserve = rj.job.vi_reserve_per_proc
            for node, count in rj.per_node.items():
                cpu[node] += count
                vi[node] -= count * reserve
            if self._place(head, cpu, vi) is not None:
                return max(rj.est_end_us, now)
        return float("inf")

    # -- job lifecycle -----------------------------------------------------
    def _start(self, job: JobSpec, assign: Tuple[int, ...]) -> None:
        now = self.engine.now
        self._account()
        record = self.records[job.job_id]
        record.start_us = now
        record.nodes = assign
        reserve = job.vi_reserve_per_proc
        running = _RunningJob(job, record, assign, now)
        for node, count in running.per_node.items():
            self._cpu_free[node] -= count
            self._cpu_used[node] += count
            self._vi_reserved[node] += count * reserve
            assert self._cpu_free[node] >= 0
            if self.spec.vi_quota is not None:
                assert self._vi_reserved[node] <= self.spec.vi_quota
        self._running[job.job_id] = running
        self._peak_running = max(self._peak_running, len(self._running))
        if self.tel is not None:
            self.tel.instant("job.start", ("job", job.job_id),
                             wait_us=record.wait_us, nodes=list(assign))
        self._launch(running)

    def _launch(self, running: _RunningJob) -> None:
        job = running.job

        def on_exit(ranks: Ranks) -> None:
            running.record.resources = ranks.resources
            running.record.init_max_us = max(ranks.init_times)
            self._finish(running)

        running.procs = launch_ranks(
            self.engine, self.stack, self.spec,
            # predicted: the analyzed graph the admission decision was
            # made against
            mechanism_config(job.connection, job.kernel, job.nprocs),
            build_program(job.kernel), [()] * job.nprocs, running.assign,
            job_id=job.job_id, label=f"j{job.job_id}r",
            streams=RngStreams(self._rng.derive_seed(
                f"job{job.job_id}.jitter") & 0x7FFFFFFF),
            telemetry=self.tel, on_exit=on_exit,
        ).procs

    def _finish(self, running: _RunningJob) -> None:
        now = self.engine.now
        self._account()
        job = running.job
        running.record.finish_us = now
        self._last_finish = max(self._last_finish, now)
        reserve = job.vi_reserve_per_proc
        for node, count in running.per_node.items():
            self._cpu_free[node] += count
            self._cpu_used[node] -= count
            self._vi_reserved[node] -= count * reserve
        del self._running[job.job_id]
        if self.tel is not None:
            self.tel.instant("job.finish", ("job", job.job_id),
                             turnaround_us=running.record.turnaround_us)
        self._schedule_pass()

    # -- entry point -------------------------------------------------------
    def run(self) -> ClusterResult:
        engine = self.engine
        for job in self.jobs:
            self.records[job.job_id] = JobRecord(
                job_id=job.job_id,
                kernel=job.kernel,
                nprocs=job.nprocs,
                connection=job.connection,
                vi_reserve_per_proc=job.vi_reserve_per_proc,
                arrival_us=job.arrival_us,
            )
            delay = max(0.0, job.arrival_us - engine.now)
            engine.call_later(delay, self._arrive, job, ARRIVAL)
        engine.run()

        failures = [
            (p.name, p.value) for rj in self._running.values()
            for p in rj.procs if p.processed and not p.ok
        ]
        if failures:
            name, exc = failures[0]
            raise SchedulerError(
                f"rank program {name} failed: {exc!r}") from exc
        unfinished = [r.job_id for r in self.records.values()
                      if r.finish_us < 0]
        if unfinished:
            raise SchedulerError(
                f"cluster run stalled: jobs {sorted(unfinished)} never "
                f"finished (queue: {[j.job_id for j in self._queue]}, "
                f"running: {sorted(self._running)})"
            )

        makespan = self._last_finish - self._first_arrival
        span_total = max(makespan, 1e-9)
        utilization = {
            n: self._busy_acc[n] / (self.spec.ppn * span_total)
            for n in range(self.spec.nodes)
        }
        high_water = {
            nic.node_id: nic.vi_high_water for nic in self.stack.nics
        }
        result = ClusterResult(
            spec=self.spec,
            policy=self.policy,
            placement=self.placement,
            records=[self.records[jid] for jid in sorted(self.records)],
            makespan_us=makespan,
            peak_concurrent_jobs=self._peak_running,
            nic_vi_high_water=high_water,
            node_utilization=utilization,
            events_processed=engine.events_processed,
            telemetry=self.tel,
        )
        if self.tel is not None:
            self.tel.finish(engine.now)
            # per-job latency attribution: send spans carry the job id,
            # so one analysis pass splits cleanly across co-scheduled
            # jobs even though they share rank tracks
            from repro.telemetry.critpath import analyze

            critpath = analyze(self.tel)
            for jid, record in self.records.items():
                record.critpath = critpath.for_job(jid).job_breakdown()
            m = self.tel.metrics
            # same gauge names ResourceReport.to_metrics emits, so
            # single-job and cluster dashboards share one query
            for node in sorted(high_water):
                m.gauge(f"nic.n{node}.vi_high_water").set(high_water[node])
            m.gauge("sched.makespan_us").set(makespan)
            m.gauge("sched.peak_concurrent_jobs").set(self._peak_running)
            m.gauge("sched.avg_wait_us").set(result.avg_wait_us)
            m.gauge("sched.jobs").set(len(self.records))
        return result


def run_cluster(
    spec: ClusterSpec,
    jobs: Sequence[JobSpec],
    *,
    policy: str = "fcfs",
    placement: str = "packed",
    engine: Optional[Engine] = None,
    telemetry=None,
) -> ClusterResult:
    """Convenience wrapper: schedule ``jobs`` on ``spec`` and run."""
    return ClusterScheduler(
        spec, jobs, policy=policy, placement=placement,
        engine=engine, telemetry=telemetry,
    ).run()


# -- worker-safe sweep entry -------------------------------------------------
#
# Like run_kernel_cell: a top-level picklable function of plain scalars,
# the multiprocessing boundary of `python -m repro.bench cluster`.

def run_cluster_cell(
    nodes: int,
    ppn: int,
    profile: str,
    vi_quota: Optional[int],
    policy: str,
    placement: str,
    connection: str,
    njobs: int,
    mean_interarrival_us: float,
    kernels: Tuple[str, ...],
    nprocs_choices: Tuple[int, ...],
    seed: int,
    trace_paths: Tuple[Tuple[str, str], ...] = (),
) -> Dict[str, Any]:
    """Run one cluster-scheduling cell; return the plain report dict.

    The arrival trace is generated from ``seed`` *before* the
    connection override, so every mechanism swept by the CLI faces the
    identical workload.

    ``trace_paths`` registers captured trace files as workload kernels
    (``(name, path)`` pairs) *inside this process* — this function is a
    multiprocessing worker entry, and registrations are not inherited
    under spawn — so replayed applications mix with any other kernel in
    one arrival stream.
    """
    from repro.cluster.build import make_engine
    from repro.cluster.workload import WorkloadSpec, with_connection
    from repro.via.profiles import profile_by_name
    from repro.workloads.registry import register_trace
    from repro.workloads.trace import load_trace

    for trace_name, trace_path in trace_paths:
        register_trace(load_trace(trace_path), name=trace_name)
    workload = WorkloadSpec(
        njobs=njobs,
        mean_interarrival_us=mean_interarrival_us,
        kernels=tuple(kernels),
        nprocs_choices=tuple(nprocs_choices),
        seed=seed,
    )
    jobs = with_connection(workload.generate(), connection)
    spec = ClusterSpec(
        nodes=nodes, ppn=ppn, profile=profile_by_name(profile),
        seed=seed, vi_quota=vi_quota,
    )
    result = run_cluster(spec, jobs, policy=policy, placement=placement,
                         engine=make_engine())
    return result.report().to_dict()
