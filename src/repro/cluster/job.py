"""Job execution: build the stack, run rank programs, collect results.

One :func:`run_job` call simulates one ``mpirun``: it instantiates the
fabric, NICs and kernel agents, hands the ranks to :func:`launch_ranks`,
runs the engine to quiescence, and returns a :class:`JobResult`.

:func:`launch_ranks` is the one rank lifecycle: it builds every rank's
stack (registry, provider, device, connection manager, facade) on one
out-of-band board and spawns each rank program wrapped in
``MPI_Init`` / ``MPI_Finalize``.  The cluster scheduler launches its
co-scheduled jobs through it too, so a job's init times and resource
snapshot mean the same thing alone and on a shared cluster.
"""

from __future__ import annotations

import dataclasses
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.analysis.sanitizers import Sanitizer, SanitizerConfig, SanitizerReport
from repro.chaos import FaultInjector, FaultPlan
from repro.cluster.build import ClusterStack, build_cluster
from repro.cluster.oob import OobBoard
from repro.cluster.spec import ClusterSpec
from repro.memory.registry import MemoryRegistry
from repro.metrics.chaos import ChaosReport, collect_chaos
from repro.metrics.resources import ResourceReport, collect_resources
from repro.mpi.adi import AbstractDevice
from repro.mpi.communicator import Communicator, Group
from repro.mpi.config import MpiConfig
from repro.mpi.conn import make_connection_manager, runs_on
from repro.mpi.facade import MpiProcess
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.sim.rng import RngStreams
from repro.telemetry import Telemetry, TelemetryConfig
from repro.via.provider import ViConfig, ViaProvider

#: a rank program: generator function taking (mpi, *args)
RankProgram = Callable[..., Any]

#: connect timeout enabled automatically when a fault plan is active and
#: the config did not pick one (generous: a fault-free 16-process init
#: storm establishes well within this, so spurious retries are rare)
CHAOS_CONNECT_TIMEOUT_US = 5000.0


class JobError(RuntimeError):
    """A rank program failed or the job deadlocked."""


@dataclass
class JobResult:
    """Everything measured from one simulated job."""

    nprocs: int
    config: MpiConfig
    spec: ClusterSpec
    #: per-rank return values of the rank programs
    returns: List[Any]
    #: per-rank MPI_Init duration, µs (paper Figure 8)
    init_times_us: List[float]
    #: simulated time when the last rank left its program body, µs
    finished_at_us: float
    #: end-to-end simulated job time including finalize, µs
    total_time_us: float
    #: resource snapshot taken before finalize teardown
    resources: ResourceReport
    #: NIC drop counters (always zero: a job whose NICs drop raises JobError)
    dropped_messages: int
    events_processed: int
    #: fault/recovery counters; None unless a fault plan was active
    chaos: Optional[ChaosReport] = None
    #: the telemetry plane; None unless run_job(..., telemetry=...) was on
    telemetry: Optional[Telemetry] = None
    #: sanitizer findings; None unless run_job(..., sanitize=...) was on
    sanitizer: Optional[SanitizerReport] = None
    #: captured communication trace; None unless run_job(..., capture=...)
    trace: Optional[Any] = None

    @property
    def avg_init_time_us(self) -> float:
        return sum(self.init_times_us) / len(self.init_times_us)

    @property
    def max_init_time_us(self) -> float:
        return max(self.init_times_us)

    def critical_path(self):
        """Per-message latency attribution of a traced run.

        Returns a :class:`~repro.telemetry.critpath.CritPathReport`
        (where each message's latency went: connect stall, flow
        control, NIC service, wire, other), or None when the job ran
        without telemetry.
        """
        if self.telemetry is None:
            return None
        from repro.telemetry.critpath import analyze

        return analyze(self.telemetry)

    def summary(self) -> str:
        """One-line job digest for CLIs and logs."""
        faults = 0 if self.chaos is None else self.chaos.total_faults
        retries = 0 if self.chaos is None else self.chaos.connect_retries
        out = (
            f"{self.nprocs} ranks ({self.config.connection}) | "
            f"sim time {self.total_time_us:.1f}us | "
            f"init avg {self.avg_init_time_us:.1f}us | "
            f"{self.resources.total_connections} connections | "
            f"{retries} connect retries | "
            f"{faults} faults | {self.dropped_messages} drops"
        )
        critpath = self.critical_path()
        if critpath is not None and critpath.flows:
            out += f"\n{critpath.summary()}"
        return out


def run_job(
    spec: ClusterSpec,
    nprocs: int,
    program: RankProgram,
    config: Optional[MpiConfig] = None,
    program_args: tuple = (),
    per_rank_args: Optional[List[tuple]] = None,
    engine: Optional[Engine] = None,
    fault_plan: Optional[FaultPlan] = None,
    telemetry: Optional[Any] = None,
    sanitize: Optional[Any] = None,
    capture: Optional[Any] = None,
) -> JobResult:
    """Simulate one MPI job and return its measurements.

    Parameters
    ----------
    program:
        Generator function ``prog(mpi, *args)``; its return value lands
        in ``JobResult.returns``.
    per_rank_args:
        Optional per-rank argument tuples (overrides ``program_args``).
    fault_plan:
        Optional :class:`~repro.chaos.FaultPlan`; its randomness is
        seeded from ``spec.seed``.  An inactive plan (all zero) is
        bit-for-bit equivalent to None.  When active, connect timeouts
        are enabled (using the plan-friendly default below unless the
        config sets its own) and the NIC reliability sublayer turns on.
    telemetry:
        Optional :class:`~repro.telemetry.TelemetryConfig` (or a
        pre-built :class:`~repro.telemetry.Telemetry` sharing
        ``engine``).  When given and enabled, every layer records
        structured spans/metrics and the result carries
        ``JobResult.telemetry``.  Recording uses simulated time only
        and never schedules events, so the run itself is identical to
        an untraced one.
    sanitize:
        Optional :class:`~repro.analysis.SanitizerConfig` (or a
        pre-built :class:`~repro.analysis.Sanitizer` sharing
        ``engine``).  Turns on the runtime sanitizers: VI state-machine
        checking (typed :class:`~repro.analysis.ProtocolViolation` on
        an illegal transition), pinned-memory/descriptor leak detection
        at teardown (typed :class:`~repro.analysis.PinnedMemoryLeak`),
        and same-timestamp event-race reporting.  Sanitizers observe
        only — the run is event-for-event identical to an unsanitized
        one — and findings land in ``JobResult.sanitizer``.
    capture:
        Optional :class:`~repro.workloads.replay.CaptureConfig`.  Swaps
        every rank's facade for a recording one that logs the MPI-level
        op timeline; the validated
        :class:`~repro.workloads.trace.CommTrace` lands in
        ``JobResult.trace``.  Recording appends to plain lists using
        simulated time only and never schedules events, so a captured
        run is event-for-event identical to an uncaptured one.
    """
    config = config or MpiConfig()
    spec.validate_nprocs(nprocs)
    if per_rank_args is not None and len(per_rank_args) != nprocs:
        raise ValueError(
            f"per_rank_args has {len(per_rank_args)} entries "
            f"for {nprocs} ranks"
        )
    if (config.predicted_peers is not None
            and len(config.predicted_peers) != nprocs):
        raise ValueError(
            f"predicted_peers has {len(config.predicted_peers)} entries "
            f"for {nprocs} ranks"
        )
    if not runs_on(config.connection, spec.profile):
        raise JobError(
            f"profile {spec.profile.name!r} does not support the "
            "client/server connection model"
        )

    chaos_active = fault_plan is not None and fault_plan.active
    if chaos_active:
        if config.connection == "static-cs" and not fault_plan.protect_control:
            raise JobError(
                "the serialized client/server setup has no control-packet "
                "retry; fault plans must set protect_control=True with "
                "connection='static-cs'"
            )
        if config.vi_cache_limit is not None and not fault_plan.protect_control:
            raise JobError(
                "the connection-cache disconnect handshake has no "
                "control-packet retry; fault plans must set "
                "protect_control=True with vi_cache_limit"
            )
        if config.connect_timeout_us is None:
            config = dataclasses.replace(
                config, connect_timeout_us=CHAOS_CONNECT_TIMEOUT_US)

    engine = engine or Engine()
    tel = resolve_telemetry(engine, telemetry)

    san: Optional[Sanitizer] = None
    if isinstance(sanitize, Sanitizer):
        san = sanitize
    elif isinstance(sanitize, SanitizerConfig):
        san = Sanitizer(engine, sanitize)
    elif sanitize is not None:
        raise TypeError(
            "sanitize must be a SanitizerConfig or Sanitizer instance"
        )

    cap = None
    if capture is not None:
        # imported lazily: plain jobs must not pay for the capture layer
        from repro.workloads.replay import CaptureConfig, TraceCapture

        if not isinstance(capture, CaptureConfig):
            raise TypeError("capture must be a CaptureConfig instance")
        cap = TraceCapture(capture, nprocs)

    rng = RngStreams(spec.seed)
    injector = None
    if chaos_active:
        injector = FaultInjector(engine, fault_plan, rng.stream("chaos.fabric"))
    stack = build_cluster(engine, spec, telemetry=tel, injector=injector)
    network, nics = stack.network, stack.nics

    ranks = launch_ranks(
        engine, stack, spec, config, program,
        ([program_args] * nprocs if per_rank_args is None
         else per_rank_args),
        [spec.node_of(rank) for rank in range(nprocs)],
        streams=rng, snapshot_nics=nics, telemetry=tel,
        sanitizer=san, capture=cap,
    )
    engine.run()

    failures = [(p.name, p.value) for p in ranks.procs
                if p.processed and not p.ok]
    if failures:
        name, exc = failures[0]
        raise JobError(f"rank program {name} failed: {exc!r}") from exc
    alive = [p for p in ranks.procs if not p.processed]
    if alive:
        raise JobError(
            f"job deadlocked: {len(alive)}/{nprocs} ranks never finished "
            f"(first stuck: {alive[0].name!r} at t={engine.now:.1f}µs)"
        )

    drops = sum(
        nic.dropped_no_recv_descriptor + nic.dropped_bad_vi for nic in nics
    )
    if drops:
        raise JobError(
            f"{drops} messages dropped at NICs — flow control violated"
        )

    chaos_report = None
    if chaos_active:
        chaos_report = collect_chaos(network.injector, nics, ranks.devices)

    san_report: Optional[SanitizerReport] = None
    if san is not None:
        # passive fold-up; raises typed PinnedMemoryLeak on leaked
        # regions/VIs when the config says to fail on them
        san_report = san.finish(
            [adi.provider for adi in ranks.devices.values()])

    resources = ranks.resources
    assert resources is not None
    if tel is not None:
        # close stragglers, then make the registry the one-stop numeric
        # surface: legacy report views, job gauges, init histogram
        tel.finish(engine.now)
        resources.to_metrics(tel.metrics)
        if chaos_report is not None:
            chaos_report.to_metrics(tel.metrics)
        m = tel.metrics
        m.gauge("job.total_time_us").set(engine.now)
        m.gauge("job.events_processed").set(engine.events_processed)
        m.gauge("fabric.packets_delivered").set(network.packets_delivered)
        m.gauge("fabric.bytes_delivered").set(network.bytes_delivered)
        init_hist = m.histogram("mpi.init.us")
        for t in ranks.init_times:
            init_hist.observe(t)
    comm_trace = None
    if cap is not None:
        comm_trace = cap.finish({
            "connection": config.connection,
            "seed": spec.seed,
            "profile": spec.profile.name,
            "nodes": spec.nodes,
            "ppn": spec.ppn,
        })
    return JobResult(
        nprocs=nprocs,
        config=config,
        spec=spec,
        returns=ranks.returns,
        init_times_us=ranks.init_times,
        finished_at_us=max(ranks.finish_times),
        total_time_us=engine.now,
        resources=resources,
        dropped_messages=drops,
        events_processed=engine.events_processed,
        chaos=chaos_report,
        telemetry=tel,
        sanitizer=san_report,
        trace=comm_trace,
    )


def resolve_telemetry(engine: Engine, telemetry: Any) -> Optional[Telemetry]:
    """The plane a job records into: a
    :class:`~repro.telemetry.TelemetryConfig` builds one on ``engine``, a
    :class:`~repro.telemetry.Telemetry` is shared as is; None, or a
    disabled plane, records nothing."""
    if isinstance(telemetry, Telemetry):
        return telemetry if telemetry.config.enabled else None
    if isinstance(telemetry, TelemetryConfig):
        return Telemetry(engine, telemetry) if telemetry.enabled else None
    if telemetry is not None:
        raise TypeError(
            "telemetry must be a TelemetryConfig or Telemetry instance"
        )
    return None


@dataclass
class Ranks:
    """The rank processes of one launched job and what their lifecycle
    records while the engine runs."""

    procs: List[Process]
    devices: Dict[int, AbstractDevice]
    #: per-rank return values of the rank programs
    returns: List[Any]
    #: per-rank MPI_Init duration, µs
    init_times: List[float]
    #: simulated time each rank left its program body, µs
    finish_times: List[float]
    #: snapshot rank 0 takes before finalize teardown
    resources: Optional[ResourceReport] = None
    #: ranks that have finished MPI_Finalize
    exited: int = 0


def launch_ranks(
    engine: Engine,
    stack: ClusterStack,
    spec: ClusterSpec,
    config: MpiConfig,
    program: RankProgram,
    rank_args: Sequence[tuple],
    nodes: Sequence[int],
    *,
    job_id: int = 0,
    label: str = "rank",
    streams: RngStreams,
    snapshot_nics: Optional[Sequence[Any]] = None,
    telemetry: Optional[Telemetry] = None,
    sanitizer: Optional[Sanitizer] = None,
    capture: Optional[Any] = None,
    on_exit: Optional[Callable[[Ranks], None]] = None,
) -> Ranks:
    """Build every rank's stack on ``stack`` and spawn its lifecycle.

    Rank ``r`` runs on node ``nodes[r]`` with ``program(mpi,
    *rank_args[r])`` as its body: ``MPI_Init`` (out-of-band barrier, then
    the connection manager's init phase), the program, then
    ``MPI_Finalize`` (drain, finalize barrier, rank 0's resource snapshot
    over ``snapshot_nics``, teardown).  Its memory registry is labelled
    ``f"{label}{r}"`` and its provider carries ``job_id``.  Per-rank
    randomness comes from the job's ``streams``: compute jitter is
    seeded from its master seed, connect-retry jitter from its
    ``chaos.conn-retry.r{r}`` stream, each made at its first draw.  The
    optional planes (``telemetry``, ``sanitizer``, a trace ``capture``)
    observe every rank.  The last rank out calls ``on_exit`` with the
    returned :class:`Ranks`.
    """
    nprocs = len(nodes)
    oob = OobBoard(engine, nprocs)
    vi_config = ViConfig(
        prepost_count=config.prepost_count,
        send_pool_count=config.send_pool_count,
        eager_buffer_size=config.eager_threshold,
    )
    ranks = Ranks(procs=[], devices={}, returns=[None] * nprocs,
                  init_times=[0.0] * nprocs, finish_times=[0.0] * nprocs)
    devices = ranks.devices
    facade = MpiProcess if capture is None else capture.facade
    facades: Dict[int, MpiProcess] = {}
    world_group = Group(range(nprocs))
    for rank in range(nprocs):
        node = nodes[rank]
        registry = MemoryRegistry(
            costs=spec.profile.registration, label=f"{label}{rank}"
        )
        if sanitizer is not None:
            sanitizer.watch_registry(registry)
        provider = ViaProvider(
            engine, stack.nics[node], stack.agents[node], registry, rank,
            job_id=job_id, config=vi_config,
        )
        provider.telemetry = telemetry
        provider.sanitizer = sanitizer
        adi = AbstractDevice(
            engine, provider, config, rank, nprocs,
            rank_to_node=nodes.__getitem__, streams=streams,
        )
        adi.telemetry = telemetry
        adi.conn = make_connection_manager(config.connection, adi)
        world = Communicator(world_group, rank, context_base=0)
        facades[rank] = facade(adi, world, jitter_seed=streams.master_seed)
        facades[rank]._oob = oob
        devices[rank] = adi

    def rank_main(rank: int):
        # each phase is a stage the rank's process runs in this
        # generator's place (repro.sim.process): a rank resumed inside
        # its program or a completion loop enters no frame of this one
        mpi = facades[rank]
        adi = devices[rank]

        def _span(name: str):
            return (nullcontext() if telemetry is None
                    else telemetry.span(name, ("rank", rank)))

        # ---- MPI_Init: out-of-band bootstrap + connection setup policy
        yield oob.barrier("init-enter")
        adi.init_started_at = engine.now
        with _span("mpi.init"):
            yield adi.conn.init_phase()
        adi.init_done_at = engine.now
        ranks.init_times[rank] = adi.init_done_at - adi.init_started_at
        # ---- user program
        ranks.returns[rank] = yield program(mpi, *rank_args[rank])
        ranks.finish_times[rank] = engine.now
        # ---- MPI_Finalize: drain outbound work (weak progress means
        # nobody else will), OOB sync, snapshot resources, tear down
        with _span("mpi.finalize"):
            yield adi.drain()
            yield oob.progressive_barrier("finalize", adi)
            if rank == 0:
                ranks.resources = collect_resources(devices, snapshot_nics)
            yield oob.progressive_barrier("teardown", adi)
            yield adi.conn.finalize_phase()
        ranks.exited += 1
        if ranks.exited == nprocs and on_exit is not None:
            on_exit(ranks)

    ranks.procs = [engine.process(rank_main(r)) for r in range(nprocs)]
    return ranks


# -- one job from scalars ---------------------------------------------------
#
# Every bench command, the sweep worker entry below and the analyzer's
# measured runs describe a job by the same scalars; build_job is the one
# place they become a ClusterSpec, a rank program and an MpiConfig.

class KernelJob(NamedTuple):
    """A registered kernel bound to a cluster and a connection mechanism.

    Its fields are :func:`run_job`'s first four arguments, so
    ``run_job(*job, telemetry=...)`` runs it with any run_job keywords.
    """

    spec: ClusterSpec
    nprocs: int
    program: RankProgram
    config: MpiConfig


def mechanism_config(connection: str, kernel: str, nprocs: int,
                     npb_class: str = "S") -> MpiConfig:
    """The :class:`MpiConfig` selecting ``connection`` for one job.

    ``predicted`` pre-establishes, in MPI_Init, the edges the comm
    analyzer proves for this exact (kernel, class, nprocs); the analyzer
    is imported only then, so a plain run never loads it.
    """
    if connection != "predicted":
        return MpiConfig(connection=connection)
    from repro.analysis.comm import predicted_peers_for

    return MpiConfig(
        connection="predicted",
        predicted_peers=predicted_peers_for(kernel, nprocs,
                                            npb_class=npb_class),
    )


def build_job(
    kernel: str,
    npb_class: str = "S",
    nprocs: int = 4,
    nodes: Optional[int] = None,
    ppn: Optional[int] = None,
    profile: str = "clan",
    connection: str = "ondemand",
    seed: int = 0,
) -> KernelJob:
    """The job a registered kernel runs as, from plain scalars.

    ``nodes`` defaults to one node per rank and ``ppn`` to the fewest
    CPUs per node that hold ``nprocs``.  Bad input raises ``ValueError``
    before anything runs: an unknown kernel (the registry's
    :class:`~repro.workloads.registry.UnknownKernel`) or a job that does
    not fit the cluster.
    """
    from repro.via.profiles import profile_by_name
    from repro.workloads.registry import build_program

    program = build_program(kernel, npb_class)
    if nodes is None:
        nodes = nprocs
    if ppn is None:
        ppn = max(1, -(-nprocs // nodes))
    spec = ClusterSpec(nodes=nodes, ppn=ppn,
                       profile=profile_by_name(profile), seed=seed)
    spec.validate_nprocs(nprocs)
    return KernelJob(spec, nprocs, program,
                     mechanism_config(connection, kernel, nprocs, npb_class))


# -- worker-safe sweep entry ------------------------------------------------
#
# run_kernel_cell is the multiprocessing boundary of repro.bench.runner:
# a *top-level, picklable* function taking only plain JSON-able scalars,
# so it imports and runs identically under fork and spawn start methods.
# It builds every object it needs from scratch (no module-level mutable
# state is touched), which makes concurrent workers in one sweep safe.

def run_kernel_cell(
    kernel: str,
    npb_class: str,
    nprocs: int,
    nodes: int,
    ppn: int,
    profile: str,
    connection: str,
    seed: int,
    record_fingerprint: bool = False,
    trace_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one NPB kernel job from scalar parameters; return plain metrics.

    The returned dict contains only JSON-serializable deterministic
    values (simulated time, event count, resource counters) — exactly
    what one sweep cell contributes to a ``BENCH_*.json`` artifact.
    Host wall-clock is deliberately *not* measured here: the runner
    measures it around this call so the simulation layer stays free of
    wall-clock reads.

    With ``record_fingerprint`` a :class:`~repro.sim.trace.TraceRecorder`
    is attached and the SHA-256 trace fingerprint is included (used by
    the golden-trace regression suite; costs memory on big jobs).

    ``trace_path`` replays a captured trace file: the trace is loaded
    and registered under ``kernel`` *inside this process* (workers are
    separate interpreters under spawn, so registration cannot be
    inherited), then swept like any other kernel.
    """
    from repro.cluster.build import make_engine
    from repro.sim.trace import TraceRecorder
    from repro.workloads.registry import register_trace
    from repro.workloads.trace import load_trace

    if trace_path is not None:
        register_trace(load_trace(trace_path), name=kernel)
    job = build_job(kernel, npb_class, nprocs, nodes, ppn, profile,
                    connection, seed)
    recorder = TraceRecorder() if record_fingerprint else None
    res = run_job(*job, engine=make_engine(trace=recorder))
    cell: Dict[str, Any] = {
        "sim_time_us": res.total_time_us,
        "finished_at_us": res.finished_at_us,
        "avg_init_us": res.avg_init_time_us,
        "max_init_us": res.max_init_time_us,
        "events": res.events_processed,
        "total_connections": res.resources.total_connections,
        "avg_vis": res.resources.avg_vis,
        "pinned_peak_bytes": res.resources.total_pinned_peak_bytes,
        "dropped_messages": res.dropped_messages,
    }
    if recorder is not None:
        cell["fingerprint"] = recorder.fingerprint()
    return cell
