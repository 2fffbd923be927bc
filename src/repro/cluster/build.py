"""Shared-stack construction: one fabric, per-node NICs and agents.

:func:`run_job` and the multi-job scheduler (:mod:`repro.cluster.sched`)
build exactly the same hardware — one :class:`~repro.fabric.network.Network`
and, per node, a :class:`~repro.via.nic.Nic` plus its kernel
:class:`~repro.via.agent.ConnectionAgent`.  This module is that shared
construction, factored out so the scheduler can co-locate many jobs'
processes on one stack instead of each job getting a private cluster.

Construction is *observationally inert*: it schedules no DES events and
draws no randomness, so refactoring callers onto it cannot move a single
event (the golden-trace fingerprints prove this for the single-job path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cluster.spec import ClusterSpec
from repro.fabric.network import Network
from repro.sim.engine import Engine
from repro.via.agent import ConnectionAgent
from repro.via.nic import Nic


@dataclass
class ClusterStack:
    """The shared hardware of one simulated cluster."""

    engine: Engine
    spec: ClusterSpec
    network: Network
    nics: List[Nic] = field(default_factory=list)
    agents: List[ConnectionAgent] = field(default_factory=list)


def build_cluster(
    engine: Engine,
    spec: ClusterSpec,
    *,
    telemetry=None,
    injector=None,
    vi_quota: Optional[int] = None,
) -> ClusterStack:
    """Instantiate the fabric, NICs and kernel agents for ``spec``.

    Parameters
    ----------
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` plane, attached to
        the network and every NIC.
    injector:
        Optional :class:`~repro.chaos.FaultInjector`, attached to the
        network (its constructor is pure; attaching is inert until
        packets flow).
    vi_quota:
        Administrative per-NIC VI budget override.  Defaults to
        ``spec.vi_quota``; ``None`` leaves the NICs unmanaged.
    """
    network = Network(engine, spec.profile.link, name=spec.profile.name)
    network.telemetry = telemetry
    if injector is not None:
        network.injector = injector
    quota = spec.vi_quota if vi_quota is None else vi_quota
    stack = ClusterStack(engine, spec, network)
    for node in range(spec.nodes):
        nic = Nic(engine, node, spec.profile, network)
        nic.telemetry = telemetry
        nic.vi_quota = quota
        stack.nics.append(nic)
        stack.agents.append(ConnectionAgent(engine, nic))
    return stack


def make_engine(*, trace=None) -> Engine:
    """The cluster layer's one engine constructor: every cell runner
    (:func:`~repro.cluster.job.run_kernel_cell`,
    :func:`~repro.cluster.sched.run_cluster_cell`, pods) builds its
    engine here."""
    return Engine(trace=trace)
