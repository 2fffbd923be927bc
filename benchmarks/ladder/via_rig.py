"""A VIA rig below MPI: N nodes, one provider (process) per node.

Re-created from ``tests/via_rig.py`` so the benchmark directory stands
alone: one ``Network``, and per node a ``Nic``, its kernel
``ConnectionAgent``, a ``MemoryRegistry`` and a ``ViaProvider`` — all
through their public constructors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.fabric import Network
from repro.memory import MemoryRegistry
from repro.sim import Engine
from repro.via import VI, ConnectionAgent, Nic, ViaProfile, ViaProvider


@dataclass
class ViaRig:
    engine: Engine
    network: Network
    nics: List[Nic]
    providers: List[ViaProvider]

    def connect_pairs(self, pairs: List[Tuple[int, int]]) -> List[Tuple[VI, VI]]:
        """Create a VI on each side of every pair, issue all the
        peer-connect requests, and run the engine until they are
        established."""
        vis = []
        for a, b in pairs:
            pa, pb = self.providers[a], self.providers[b]
            vi_a, _ = pa.create_vi(remote_rank=b)
            vi_b, _ = pb.create_vi(remote_rank=a)
            pa.connect_peer_request(vi_a, self.nics[b].node_id, b)
            pb.connect_peer_request(vi_b, self.nics[a].node_id, a)
            vis.append((vi_a, vi_b))
        self.engine.run()
        return vis


def make_rig(nodes: int, profile: ViaProfile) -> ViaRig:
    engine = Engine()
    network = Network(engine, profile.link, name=profile.name)
    nics, providers = [], []
    for n in range(nodes):
        nic = Nic(engine, n, profile, network)
        agent = ConnectionAgent(engine, nic)
        registry = MemoryRegistry(costs=profile.registration, label=f"node{n}")
        providers.append(ViaProvider(engine, nic, agent, registry, rank=n))
        nics.append(nic)
    return ViaRig(engine, network, nics, providers)
