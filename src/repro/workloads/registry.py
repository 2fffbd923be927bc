"""The single source of truth for kernel registration.

Every kernel is one :class:`KernelDef` in :data:`KERNEL_DEFS`, and every
consumer reads that table directly: bench sweeps build programs with
:func:`build_program`, the cluster scheduler admits against a
definition's ``vi_demand``/``est_us_per_rank``, and the static analyzer
interprets its ``module``/``factory`` (or folds its ``trace``).  A kernel
registered once — including a replayed trace registered at runtime — is
immediately schedulable, sweepable and analyzable.

Two kinds of definition:

* **source-backed** — ``module``/``factory`` name a program factory the
  analyzer can also abstractly interpret (everything that existed
  before, plus the :mod:`repro.apps.skeletons` generators);
* **trace-backed** — ``trace`` holds a captured
  :class:`~repro.workloads.trace.CommTrace`; :func:`build_program`
  replays it and the analyzer derives the graph from the recorded
  timeline instead of source.

This module imports neither the simulator nor the analyzer at module
level, so it is safe to import from both sides.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.workloads.trace import CommTrace

__all__ = [
    "KernelDef",
    "KERNEL_DEFS",
    "UnknownKernel",
    "collective_vi_demand",
    "register_kernel",
    "register_trace",
    "kernel_def",
    "build_program",
]


def collective_vi_demand(n: int) -> int:
    """Distinct recursive-doubling partners: log2(n) for powers of two;
    conservative full connectivity otherwise (pre/post phases may add
    neighbours beyond the doubling set)."""
    if n <= 1:
        return 0
    if n & (n - 1) == 0:
        return n.bit_length() - 1
    return n - 1


@dataclass(frozen=True, eq=False)
class KernelDef:
    """One kernel, every consumer's view of it; compared by identity, so
    each registration is its own key for memoised analyzer graphs.

    ``vi_demand`` + ``est_us_per_rank`` make a kernel *schedulable* (the
    cluster scheduler admits and backfills it); ``module``/``factory`` or
    ``trace`` make it *runnable* and *analyzable*.
    """

    name: str
    #: dotted module + factory attribute of a source-backed kernel
    module: Optional[str] = None
    factory: Optional[str] = None
    #: keyword arguments passed to the factory (hashable pairs)
    kwargs: Tuple[Tuple[str, Any], ...] = ()
    #: whether the factory takes ``npb_class`` as its first argument
    npb_class_arg: bool = False
    #: most VIs one process attaches under on-demand management
    vi_demand: Optional[Callable[[int], int]] = None
    min_procs: int = 2
    #: fixed process count (trace replays only run at capture size)
    max_procs: Optional[int] = None
    #: crude runtime scale for EASY-backfill estimates, µs per rank
    est_us_per_rank: Optional[float] = None
    #: captured timeline of a trace-backed kernel
    trace: Optional[CommTrace] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.trace is None and not (self.module and self.factory):
            raise ValueError(
                f"kernel {self.name!r} needs module+factory or a trace")
        if self.trace is not None and self.module is not None:
            raise ValueError(
                f"kernel {self.name!r} cannot be both source- and "
                "trace-backed")

    @property
    def schedulable(self) -> bool:
        return self.vi_demand is not None and self.est_us_per_rank is not None

    def clamp_nprocs(self, nprocs: int) -> int:
        """Nearest valid process count for this kernel."""
        nprocs = max(nprocs, self.min_procs)
        if self.max_procs is not None:
            nprocs = min(nprocs, self.max_procs)
        return nprocs


def _one_peer(n: int) -> int:
    return 1 if n >= 2 else 0


def _ring_peers(n: int) -> int:
    return min(2, max(0, n - 1))


def _mesh_peers(n: int) -> int:
    return max(0, n - 1)


def _pipeline_peers(n: int) -> int:
    return min(2, max(0, n - 1))


#: name -> definition, in registration order (deterministic)
KERNEL_DEFS: Dict[str, KernelDef] = {}

def register_kernel(defn: KernelDef, replace_existing: bool = False) -> KernelDef:
    if defn.name in KERNEL_DEFS and not replace_existing:
        raise ValueError(f"kernel {defn.name!r} is already registered")
    KERNEL_DEFS[defn.name] = defn
    return defn


class UnknownKernel(KeyError, ValueError):
    """No kernel is registered under the name: a failed lookup, and a
    bad argument to every function that takes a kernel name."""

    __str__ = ValueError.__str__


def kernel_def(name: str) -> KernelDef:
    defn = KERNEL_DEFS.get(name)
    if defn is None:
        known = ", ".join(sorted(KERNEL_DEFS))
        raise UnknownKernel(f"unknown kernel {name!r} (known: {known})")
    return defn


def register_trace(
    trace: CommTrace,
    name: Optional[str] = None,
    est_us_per_rank: float = 4_000.0,
) -> KernelDef:
    """Register a captured trace as a first-class kernel.

    The kernel replays at exactly ``trace.nprocs`` ranks; its admission
    bound is derived from the trace's analyzed communication graph
    (lazily, so registration never drags the analyzer in).  Re-using a
    name replaces the previous registration.
    """
    trace.validate()
    kname = name if name is not None else f"{trace.kernel}-replay"

    def _vi_demand(n: int, _kname: str = kname) -> int:
        from repro.analysis.comm import predicted_vi_demand

        return predicted_vi_demand(_kname, n)

    return register_kernel(
        KernelDef(
            name=kname,
            vi_demand=_vi_demand,
            min_procs=trace.nprocs,
            max_procs=trace.nprocs,
            est_us_per_rank=est_us_per_rank,
            trace=trace,
        ),
        replace_existing=True,
    )


def build_program(name: str, npb_class: str = "S") -> Callable[..., Any]:
    """Instantiate the rank program of a registered kernel.

    Programs read their size from ``mpi.size`` at run time, so no
    process count is needed here; trace-backed kernels enforce their
    capture size when the replay starts.
    """
    defn = kernel_def(name)
    if defn.trace is not None:
        from repro.workloads.replay import replay_program

        return replay_program(defn.trace)
    module = importlib.import_module(defn.module or "")
    factory = getattr(module, defn.factory or "")
    if defn.npb_class_arg:
        return factory(npb_class, **dict(defn.kwargs))
    return factory(**dict(defn.kwargs))


def _register_builtins() -> None:
    npb = [
        ("cg", "repro.apps.npb.cg", "make_cg"),
        ("mg", "repro.apps.npb.mg", "make_mg"),
        ("is", "repro.apps.npb.is_", "make_is"),
        ("ep", "repro.apps.npb.ep", "make_ep"),
        ("sp", "repro.apps.npb.sp", "make_sp"),
        ("bt", "repro.apps.npb.sp", "make_bt"),
        ("ft", "repro.apps.npb.ft", "make_ft"),
        ("lu", "repro.apps.npb.lu", "make_lu"),
    ]
    for kname, module, factory in npb:
        register_kernel(KernelDef(
            name=kname, module=module, factory=factory, npb_class_arg=True))

    # micro kernels: the exact cluster-workload parameterization; the
    # deliberately small jobs let one cluster scenario run dozens
    register_kernel(KernelDef(
        name="ring", module="repro.apps.micro", factory="ring",
        kwargs=(("rounds", 3), ("elements", 32)),
        vi_demand=_ring_peers, est_us_per_rank=4_000.0))
    register_kernel(KernelDef(
        name="alltoall", module="repro.apps.micro", factory="alltoall_loop",
        kwargs=(("iterations", 3), ("elements_per_peer", 2)),
        vi_demand=_mesh_peers, est_us_per_rank=12_000.0))
    register_kernel(KernelDef(
        name="allreduce", module="repro.apps.micro",
        factory="allreduce_latency",
        kwargs=(("iterations", 3), ("elements", 4)),
        vi_demand=collective_vi_demand, est_us_per_rank=8_000.0))
    register_kernel(KernelDef(
        name="barrier", module="repro.apps.micro", factory="barrier_latency",
        kwargs=(("iterations", 5),),
        vi_demand=collective_vi_demand, est_us_per_rank=6_000.0))
    register_kernel(KernelDef(
        name="pingpong", module="repro.apps.micro", factory="pingpong",
        kwargs=(("sizes", (64,)), ("iterations", 3), ("warmup", 1)),
        vi_demand=_one_peer, est_us_per_rank=3_000.0))

    # sparse application skeletons (paper Table 1: real applications
    # talk to far fewer than N-1 destinations).  A worker only ever
    # talks to the master, so its on-demand VI footprint is O(1); the
    # master's n-1 bound is what admission must still reserve.
    register_kernel(KernelDef(
        name="masterworker", module="repro.apps.skeletons",
        factory="master_worker",
        kwargs=(("rounds", 2), ("work_bytes", 256),
                ("size_skew", 0.0), ("dest_skew", 0.0), ("skew_seed", 1)),
        vi_demand=_mesh_peers, est_us_per_rank=5_000.0))
    register_kernel(KernelDef(
        name="pipeline", module="repro.apps.skeletons", factory="pipeline",
        kwargs=(("rounds", 3), ("bytes_per_hop", 128),
                ("size_skew", 0.0), ("skew_seed", 1)),
        vi_demand=_pipeline_peers, est_us_per_rank=4_000.0))

    # ASCI communication-pattern generators (analyzer-only)
    for kname, factory in [("sppm", "make_sppm"), ("smg2000", "make_smg2000"),
                           ("sphot", "make_sphot"),
                           ("sweep3d", "make_sweep3d"),
                           ("samrai", "make_samrai")]:
        register_kernel(KernelDef(
            name=kname, module="repro.apps.patterns.generators",
            factory=factory))


_register_builtins()

