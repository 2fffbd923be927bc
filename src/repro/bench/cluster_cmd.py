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
of the same workload, run in parallel across ``--workers`` processes
and cached by config fingerprint (the same content-addressed cache the
``sweep`` command uses, so re-runs are instant and still byte-identical).

``--replay NAME=FILE`` (repeatable) registers captured trace files as
cluster kernels, so replayed applications mix with NPB, micro, and
skeleton jobs in one arrival stream; the cache identity of such cells
follows the trace *content* (sha256), not the file path.
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.cache import ResultCache, config_fingerprint
from repro.bench.report import Experiment
from repro.bench.runner import artifact_text, default_cache_dir
from repro.cluster.sched import run_cluster_cell
from repro.cluster.workload import CLUSTER_KERNELS
from repro.mpi.conn import runs_on
from repro.via.profiles import profile_by_name

ALL_CONNECTIONS = ("ondemand", "static-p2p", "static-cs")


def _csv(text: str) -> Tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _csv_int(text: str) -> Tuple[int, ...]:
    return tuple(int(part) for part in _csv(text))


def _parse_replays(specs) -> Tuple[Tuple[str, str], ...]:
    traces = []
    for item in specs or ():
        name, sep, path = item.partition("=")
        if not sep or not name.strip() or not path.strip():
            raise ValueError(f"--replay needs NAME=FILE, got {item!r}")
        traces.append((name.strip(), path.strip()))
    return tuple(traces)


def cluster_cell_config(
    *,
    connection: str,
    nodes: int = 4,
    ppn: int = 2,
    profile: str = "clan",
    vi_quota: Optional[int] = 4,
    policy: str = "fcfs",
    placement: str = "spread",
    njobs: int = 8,
    mean_interarrival_us: float = 1500.0,
    kernels: Tuple[str, ...] = ("ring", "allreduce"),
    nprocs_choices: Tuple[int, ...] = (4,),
    trace_shas: Tuple[Tuple[str, str], ...] = (),
) -> Dict[str, Any]:
    """The JSON-able config of one mechanism cell (its cache identity).

    Plain-parameter form shared by the CLI below and ``repro.service``
    cluster requests, so a scenario submitted to the server hashes to
    the *same* fingerprint as the direct CLI invocation and the two
    share cache entries.  Replay cells carry the trace *digests*
    (content identity) rather than paths; plain cells omit the key
    entirely so historical fingerprints and artifacts are unchanged.
    """
    config: Dict[str, Any] = {
        "experiment": "cluster",
        "nodes": nodes,
        "ppn": ppn,
        "profile": profile,
        "vi_quota": vi_quota,
        "policy": policy,
        "placement": placement,
        "connection": connection,
        "njobs": njobs,
        "mean_interarrival_us": mean_interarrival_us,
        "kernels": list(kernels),
        "nprocs_choices": list(nprocs_choices),
    }
    if trace_shas:
        config["trace_shas"] = dict(trace_shas)
    return config


def cell_config(args: argparse.Namespace, connection: str) -> Dict[str, Any]:
    """CLI adapter over :func:`cluster_cell_config`."""
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
        nprocs_choices=tuple(args.nprocs_choices),
        trace_shas=tuple(getattr(args, "trace_shas", None) or ()),
    )


def compute_cluster_cell(params: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """Worker entry: compute one mechanism cell (picklable, top level).

    Shared by the CLI pool below and the ``repro.service`` worker pool;
    ``params`` is ``{"key", "config", "seed", "trace_paths"?}`` with
    ``config`` shaped by :func:`cluster_cell_config`.
    """
    cfg = params["config"]
    # host wall-clock around (never inside) the simulation
    started = time.perf_counter()  # repro: allow[REPRO001]
    report = run_cluster_cell(
        nodes=cfg["nodes"], ppn=cfg["ppn"], profile=cfg["profile"],
        vi_quota=cfg["vi_quota"], policy=cfg["policy"],
        placement=cfg["placement"], connection=cfg["connection"],
        njobs=cfg["njobs"],
        mean_interarrival_us=cfg["mean_interarrival_us"],
        kernels=tuple(cfg["kernels"]),
        nprocs_choices=tuple(cfg["nprocs_choices"]),
        seed=params["seed"],
        trace_paths=tuple(params.get("trace_paths") or ()),
    )
    report["wall_s"] = round(time.perf_counter() - started, 6)  # repro: allow[REPRO001]
    return params["key"], report


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
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument("--ppn", type=int, default=2)
    parser.add_argument("--profile", choices=("clan", "berkeley"),
                        default="clan")
    parser.add_argument("--quota", type=int, default=4,
                        help="per-NIC VI quota (default 4); 0 = unmanaged")
    parser.add_argument("--policy", choices=("fcfs", "easy"), default="fcfs")
    parser.add_argument("--placement", choices=("packed", "spread"),
                        default="spread")
    parser.add_argument("--jobs", type=int, default=8,
                        help="number of arriving jobs (default 8)")
    parser.add_argument("--mean-arrival", type=float, default=1500.0,
                        help="mean exponential inter-arrival, us")
    parser.add_argument("--kernels", default="ring,allreduce",
                        help="comma-separated workload kernels "
                             f"({','.join(sorted(CLUSTER_KERNELS))})")
    parser.add_argument("--replay", action="append", default=None,
                        metavar="NAME=FILE",
                        help="register a captured trace file as cluster "
                             "kernel NAME (repeatable)")
    parser.add_argument("--np", dest="nprocs_choices", default="4",
                        help="comma-separated per-job size choices")
    parser.add_argument("--connections",
                        default=",".join(ALL_CONNECTIONS),
                        help="mechanisms to sweep (comma-separated)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel worker processes (default 1)")
    parser.add_argument("--name", default="contention",
                        help="artifact name (CLUSTER_<name>.json)")
    parser.add_argument("--out-dir", default=".")
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--no-cache", action="store_true")
    args = parser.parse_args(argv)

    args.kernels = _csv(args.kernels)
    args.nprocs_choices = _csv_int(args.nprocs_choices)
    args.connections = _csv(args.connections)
    if args.quota == 0:
        args.quota = None
    try:
        trace_paths = _parse_replays(args.replay)
    except ValueError as exc:
        parser.error(str(exc))
    args.trace_shas = []
    if trace_paths:
        # register in this process too: validation below sees the names,
        # and the cache identity can follow the trace content
        from repro.workloads.registry import register_trace
        from repro.workloads.trace import TraceFormatError, load_trace

        try:
            for trace_name, trace_path in trace_paths:
                trace = load_trace(trace_path)
                register_trace(trace, name=trace_name)
                args.trace_shas.append((trace_name, trace.digest()))
        except (OSError, TraceFormatError) as exc:
            parser.error(f"--replay: {exc}")
        args.trace_shas.sort()
        missing = tuple(n for n, _ in trace_paths if n not in args.kernels)
        args.kernels = args.kernels + missing
    unknown = [k for k in args.kernels if k not in CLUSTER_KERNELS]
    if unknown:
        parser.error(f"unknown kernels: {unknown}")
    bad = [c for c in args.connections if c not in ALL_CONNECTIONS]
    if bad:
        parser.error(f"unknown connections: {bad}")
    if args.workers < 1:
        parser.error("--workers must be >= 1")

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

    cache: Optional[ResultCache] = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())

    jobs: List[Dict[str, Any]] = []
    results: Dict[str, Tuple[str, Dict[str, Any]]] = {}
    for conn in connections:
        config = cell_config(args, conn)
        key = config_fingerprint(config, seed=args.seed)
        hit = None if cache is None else cache.get(key)
        if hit is not None:
            print(f"  cache hit  {conn}", file=sys.stderr)
            results[key] = (conn, hit)
        else:
            jobs.append({"key": key, "config": config, "seed": args.seed,
                         "connection": conn, "trace_paths": trace_paths})

    if jobs:
        by_key = {j["key"]: j for j in jobs}
        if args.workers == 1 or len(jobs) == 1:
            completions = map(compute_cluster_cell, jobs)
        else:
            pool = multiprocessing.Pool(min(args.workers, len(jobs)))
            completions = pool.imap_unordered(compute_cluster_cell, jobs)
        for key, report in completions:
            conn = by_key[key]["connection"]
            results[key] = (conn, report)
            if cache is not None:
                cache.put(key, report)
            print(f"  computed   {conn}  [{report['wall_s']:.2f}s wall]",
                  file=sys.stderr)
        if args.workers > 1 and len(jobs) > 1:
            pool.close()
            pool.join()

    # deterministic presentation order: the sweep's connection order
    ordered = sorted(results.values(),
                     key=lambda cr: connections.index(cr[0]))
    print(render_comparison(ordered, args))

    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    path = Path(args.out_dir) / f"CLUSTER_{args.name}.json"
    doc = cluster_artifact(ordered, args)
    path.write_text(artifact_text(doc), encoding="utf-8")
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
