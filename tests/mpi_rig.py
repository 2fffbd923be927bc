"""Helpers for MPI-layer tests: run small jobs concisely."""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.cluster import ClusterSpec, run_job
from repro.mpi import MpiConfig
from repro.via.profiles import CLAN
from repro.via.provider import ViaProvider


def run(
    program: Callable,
    nprocs: int = 2,
    nodes: int = 4,
    ppn: int = 4,
    connection: str = "ondemand",
    completion: str = "polling",
    profile=CLAN,
    seed: int = 0,
    per_rank_args: Optional[List[tuple]] = None,
    fault_plan=None,
    telemetry=None,
    **config_kwargs: Any,
):
    """Run ``program`` on a small cluster; returns the JobResult."""
    spec = ClusterSpec(nodes=nodes, ppn=ppn, profile=profile, seed=seed)
    config = MpiConfig(
        connection=connection, completion=completion, **config_kwargs
    )
    return run_job(
        spec, nprocs, program, config,
        per_rank_args=per_rank_args, fault_plan=fault_plan,
        telemetry=telemetry,
    )


ALL_CONNECTIONS = ("ondemand", "static-p2p", "static-cs")


def record_posts(monkeypatch):
    """(poster rank, peer rank, header) of every descriptor the ADI
    posts on a VI, in posting order."""
    posts = []
    original = ViaProvider.post_send

    def post_send(self, vi, header, payload, context=None):
        posts.append((self.rank, vi.remote_rank, header))
        return original(self, vi, header, payload, context=context)

    monkeypatch.setattr(ViaProvider, "post_send", post_send)
    return posts
