"""Process-parallel pod execution: real multi-core speedup, same trace.

Why pods
--------
The exact global ``(time, seq)`` pop order that the golden fingerprints
pin down is inherently sequential *within* one coupled simulation.  What
large cluster studies actually sweep, though, is many *node-disjoint*
sub-cluster workloads — the scheduler scenario of
:mod:`repro.cluster.sched` replicated across independent partitions
("pods") of a big machine.  Pods never exchange packets, so each pod
runs on its own :class:`~repro.sim.engine.Engine` in its own worker
process, with *zero* synchronization, and the result is deterministic
per pod by the engine's own guarantees.

Determinism across worker counts
--------------------------------
Every pod derives its seed from the scenario seed and its pod id (never
from the worker that happens to execute it), and results are keyed by
pod id and re-sorted after the unordered pool completes — so
``workers=1`` and ``workers=8`` produce byte-identical documents and
fingerprints.
"""

from __future__ import annotations

import hashlib
import multiprocessing
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.build import make_engine
from repro.cluster.sched import run_cluster
from repro.cluster.spec import ClusterSpec
from repro.cluster.workload import WorkloadSpec, with_connection
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceRecorder
from repro.via.profiles import profile_by_name

#: mask applied to derived pod seeds (matches the scheduler's jitter
#: seed convention: keep seeds in the positive int32 range for numpy)
_SEED_MASK = 0x7FFFFFFF


@dataclass(frozen=True)
class PodScenario:
    """``pods`` independent copies of one multi-job cluster workload.

    Each pod is a full scheduler scenario (arrivals, admission
    control, VI quotas) on its own ``nodes_per_pod``-node partition,
    seeded per pod — the shape of a capacity study on a large machine.
    """

    pods: int = 4
    nodes_per_pod: int = 4
    ppn: int = 2
    profile: str = "clan"
    vi_quota: Optional[int] = 4
    policy: str = "fcfs"
    placement: str = "spread"
    njobs_per_pod: int = 8
    mean_interarrival_us: float = 1000.0
    kernels: Tuple[str, ...] = ("ring", "allreduce")
    nprocs_choices: Tuple[int, ...] = (4,)
    connection: str = "ondemand"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pods < 1:
            raise ValueError("pods must be >= 1")

    def pod_seed(self, pod: int) -> int:
        """The seed of ``pod`` — a function of (scenario seed, pod id)
        only, so it is identical no matter which worker runs the pod."""
        return RngStreams(self.seed).derive_seed(f"shard.pod{pod}") & _SEED_MASK

    def to_dict(self) -> Dict[str, Any]:
        return {
            "pods": self.pods,
            "nodes_per_pod": self.nodes_per_pod,
            "ppn": self.ppn,
            "profile": self.profile,
            "vi_quota": self.vi_quota,
            "policy": self.policy,
            "placement": self.placement,
            "njobs_per_pod": self.njobs_per_pod,
            "mean_interarrival_us": self.mean_interarrival_us,
            "kernels": list(self.kernels),
            "nprocs_choices": list(self.nprocs_choices),
            "connection": self.connection,
            "seed": self.seed,
        }

    def pod_params(self, pod: int, *,
                   record_fingerprint: bool = False,
                   include_report: bool = False) -> Dict[str, Any]:
        """Plain-scalar worker parameters for one pod (picklable)."""
        return {
            "pod": pod,
            "pod_seed": self.pod_seed(pod),
            "record_fingerprint": record_fingerprint,
            "include_report": include_report,
            **self.to_dict(),
        }


def run_pod_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry: simulate one pod from plain scalars (top level,
    so it pickles under spawn)."""
    workload = WorkloadSpec(
        njobs=params["njobs_per_pod"],
        mean_interarrival_us=params["mean_interarrival_us"],
        kernels=tuple(params["kernels"]),
        nprocs_choices=tuple(params["nprocs_choices"]),
        seed=params["pod_seed"],
    )
    jobs = with_connection(workload.generate(), params["connection"])
    spec = ClusterSpec(
        nodes=params["nodes_per_pod"], ppn=params["ppn"],
        profile=profile_by_name(params["profile"]),
        seed=params["pod_seed"], vi_quota=params["vi_quota"],
    )
    recorder = TraceRecorder() if params["record_fingerprint"] else None
    engine = make_engine(trace=recorder)
    result = run_cluster(
        spec, jobs, policy=params["policy"], placement=params["placement"],
        engine=engine,
    )
    out: Dict[str, Any] = {
        "pod": params["pod"],
        "seed": params["pod_seed"],
        "events": result.events_processed,
        "makespan_us": result.makespan_us,
        "sim_time_us": engine.now,
    }
    if recorder is not None:
        out["fingerprint"] = recorder.fingerprint()
    if params["include_report"]:
        out["report"] = result.report().to_dict()
    return out


@dataclass
class PodSweepResult:
    """All pods of one scenario, in pod-id order."""

    scenario: PodScenario
    pods: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def total_events(self) -> int:
        return sum(p["events"] for p in self.pods)

    def merged_fingerprint(self) -> Optional[str]:
        """SHA-256 over the per-pod trace fingerprints in pod-id order.

        Each fingerprint already fixes its pod's internal event order,
        and pod traces share no events.  None unless fingerprints were
        recorded.
        """
        if any("fingerprint" not in p for p in self.pods):
            return None
        digest = hashlib.sha256()
        for pod in self.pods:
            digest.update(f"{pod['pod']}:{pod['fingerprint']}\n".encode())
        return digest.hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "scenario": self.scenario.to_dict(),
            "pods": self.pods,
            "total_events": self.total_events,
        }
        merged = self.merged_fingerprint()
        if merged is not None:
            doc["merged_fingerprint"] = merged
        return doc


def run_pods(
    scenario: PodScenario,
    *,
    workers: int = 1,
    record_fingerprint: bool = False,
    include_reports: bool = False,
) -> PodSweepResult:
    """Run every pod of ``scenario``, fanning out over ``workers``.

    The result is independent of ``workers`` (completion order is
    discarded; pods are re-sorted by id).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    params = [
        scenario.pod_params(
            pod, record_fingerprint=record_fingerprint,
            include_report=include_reports,
        )
        for pod in range(scenario.pods)
    ]
    if workers == 1 or len(params) == 1:
        results = [run_pod_cell(p) for p in params]
    else:
        with multiprocessing.Pool(min(workers, len(params))) as pool:
            results = list(pool.imap_unordered(run_pod_cell, params))
    results.sort(key=lambda p: p["pod"])
    return PodSweepResult(scenario=scenario, pods=results)
