"""``python -m repro.bench cluster`` — multi-job mechanism comparison.

Sweeps static-p2p vs static-cs vs on-demand over the *identical*
seeded arrival trace on a quota-limited shared cluster, and emits a
comparison table plus a byte-deterministic ``CLUSTER_<name>.json``
artifact.  Examples::

    python -m repro.bench cluster                    # default scenario
    python -m repro.bench cluster --quota 4 --policy easy --workers 3
    python -m repro.bench cluster --jobs 12 --kernels ring,alltoall
    python -m repro.bench cluster --connections ondemand,static-p2p
    python -m repro.bench cluster --kernels cg-rep,masterworker \\
        --replay cg-rep=cg.trace.jsonl

Each connection mechanism is one cell: a fully independent simulation
of the same workload, run through the sweep's cached fan-out
(:func:`repro.bench.runner.fan_out`), so re-runs are instant and still
byte-identical, and an interrupted run resumes.

``--replay NAME=FILE`` (repeatable) registers captured trace files as
cluster kernels, so replayed applications mix with NPB, micro, and
skeleton jobs in one arrival stream; the cache identity of such cells
follows the trace *content* (sha256), not the file path.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.bench.cache import config_fingerprint
from repro.bench.flags import (
    add_fan_out_flags,
    add_job_flags,
    csv,
    open_cache,
    report_progress,
    run_resumable,
)
from repro.bench.report import Experiment
from repro.bench.runner import (
    ALL_CONNECTIONS,
    artifact_text,
    cluster_cell_config,
    compute_cluster_cell,
    fan_out,
)
from repro.cluster.sched import PLACEMENTS, POLICIES
from repro.cluster.workload import schedulable_kernels
from repro.mpi.conn import runs_on
from repro.via.profiles import profile_by_name


def cell_config(args: argparse.Namespace, connection: str) -> Dict[str, Any]:
    """CLI adapter over :func:`~repro.bench.runner.cluster_cell_config`."""
    return cluster_cell_config(
        connection=connection,
        nodes=args.nodes,
        ppn=args.ppn,
        profile=args.profile,
        vi_quota=args.quota,
        policy=args.policy,
        placement=args.placement,
        njobs=args.jobs,
        mean_interarrival_us=args.mean_arrival,
        kernels=tuple(args.kernels),
        nprocs_choices=tuple(args.nprocs),
        trace_shas=tuple(args.trace_shas),
    )


def render_comparison(
    results: List[Tuple[str, Dict[str, Any]]], args: argparse.Namespace
) -> str:
    exp = Experiment(
        "cluster",
        f"{args.jobs} jobs / {args.nodes}x{args.ppn} nodes / "
        f"quota {args.quota} / {args.policy} + {args.placement} / "
        f"seed {args.seed}",
        ["makespan_ms", "avg_wait_ms", "avg_turnaround_ms", "peak_jobs",
         "max_nic_vis", "max_init_ms", "events"],
        notes="Same arrival trace per row; lower makespan/wait under the "
              "same VI quota is the paper's cluster-level claim 1.",
    )
    for connection, rep in results:
        exp.add(
            connection,
            makespan_ms=rep["makespan_us"] / 1e3,
            avg_wait_ms=rep["avg_wait_us"] / 1e3,
            avg_turnaround_ms=rep["avg_turnaround_us"] / 1e3,
            peak_jobs=rep["peak_concurrent_jobs"],
            max_nic_vis=max(rep["nic_vi_high_water"].values(), default=0),
            max_init_ms=rep["max_init_us"] / 1e3,
            events=rep["events_processed"],
        )
    return exp.render()


def cluster_artifact(
    results: List[Tuple[str, Dict[str, Any]]], args: argparse.Namespace
) -> Dict[str, Any]:
    """The ``CLUSTER_<name>.json`` document: deterministic by construction
    (no timestamps, no cache hit/miss flags; wall_s is stripped)."""
    cells = []
    for connection, rep in sorted(results):
        rep = {k: v for k, v in rep.items() if k != "wall_s"}
        cells.append({"connection": connection, "report": rep})
    return {
        "schema": 2,
        "experiment": "cluster",
        "name": args.name,
        "seed": args.seed,
        "scenario": cell_config(args, "swept")
        | {"connections": list(args.connections)},
        "cells": cells,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench cluster",
        description="Compare connection mechanisms on a shared multi-job "
                    "cluster under per-NIC VI quotas.",
    )
    add_job_flags(parser, swept=("np", "connection"), np="4", nodes=4,
                  ppn=2, connection=",".join(ALL_CONNECTIONS),
                  profile="clan", seed=0)
    parser.add_argument("--quota", type=int, default=4,
                        help="per-NIC VI quota (default 4); 0 = unmanaged")
    parser.add_argument("--policy", choices=POLICIES, default="fcfs")
    parser.add_argument("--placement", choices=PLACEMENTS, default="spread")
    parser.add_argument("--jobs", type=int, default=8,
                        help="number of arriving jobs (default 8)")
    parser.add_argument("--mean-arrival", type=float, default=1500.0,
                        help="mean exponential inter-arrival, us")
    parser.add_argument("--kernels", type=csv, default="ring,allreduce",
                        help="comma-separated workload kernels "
                             f"({','.join(schedulable_kernels())})")
    parser.add_argument("--name", default="contention",
                        help="artifact name (CLUSTER_<name>.json)")
    add_fan_out_flags(parser)
    args = parser.parse_args(argv)

    if args.quota == 0:
        args.quota = None
    args.trace_shas = []
    if args.replay:
        # register in this process too: validation below sees the names,
        # and the cache identity can follow the trace content
        from repro.workloads.registry import register_trace
        from repro.workloads.trace import TraceFormatError, load_trace

        try:
            for trace_name, trace_path in args.replay:
                trace = load_trace(trace_path)
                register_trace(trace, name=trace_name)
                args.trace_shas.append((trace_name, trace.digest()))
        except (OSError, TraceFormatError) as exc:
            parser.error(f"--replay: {exc}")
        args.trace_shas.sort()
        args.kernels += tuple(n for n, _ in args.replay
                              if n not in args.kernels)
    known = schedulable_kernels()
    unknown = [k for k in args.kernels if k not in known]
    if unknown:
        parser.error(f"unknown kernels: {unknown}")

    profile = profile_by_name(args.profile)
    connections = []
    for conn in args.connections:
        if not runs_on(conn, profile):
            print(f"  skip {conn}: profile {args.profile!r} has no "
                  "client/server model", file=sys.stderr)
            continue
        connections.append(conn)
    if not connections:
        parser.error("no runnable connection mechanisms for this profile")

    cells = []
    for conn in connections:
        config = cell_config(args, conn)
        cells.append((conn, {
            "key": config_fingerprint(config, seed=args.seed),
            "config": config, "seed": args.seed,
            "trace_paths": tuple(args.replay)}))
    cache = open_cache(args)
    done = run_resumable("cluster", cache, lambda: fan_out(
        compute_cluster_cell, cells, args.workers, cache, report_progress))
    if done is None:
        return 130
    results, _computed = done
    # presentation order: the order the mechanisms were asked for
    ordered = [(conn, results[params["key"]]) for conn, params in cells]
    print(render_comparison(ordered, args))

    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    path = Path(args.out_dir) / f"CLUSTER_{args.name}.json"
    path.write_text(artifact_text(cluster_artifact(ordered, args)),
                    encoding="utf-8")
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
