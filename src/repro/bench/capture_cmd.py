"""``python -m repro.bench capture`` — record or replay a comm trace.

Capture mode runs one registered kernel with the recording facade and
writes the byte-deterministic trace file (capturing is passive: the
run itself is event-for-event identical to an uncaptured one)::

    python -m repro.bench capture cg --np 4 --nodes 4 --out cg.trace.jsonl

Replay mode loads a trace, registers it as a kernel, re-executes it
under any connection mechanism, and (optionally) writes a deterministic
replay report — the flow-edge set, per-pair message counts and per-NIC
VI high-water the differential suite compares::

    python -m repro.bench capture --replay cg.trace.jsonl \\
        --connection static-p2p --report cg.replay.json

Both the trace file and the report are byte-identical across reruns;
CI pins that with ``cmp``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional

from repro.cluster.job import run_job
from repro.cluster.spec import ClusterSpec
from repro.mpi.config import CONNECTION_MODES, MpiConfig
from repro.telemetry import TelemetryConfig
from repro.via.profiles import profile_by_name
from repro.workloads import registry as workload_registry
from repro.workloads.replay import CaptureConfig
from repro.workloads.trace import CommTrace, load_trace


def _build_config(connection: str, kernel: str, nprocs: int,
                  npb_class: str) -> MpiConfig:
    if connection == "predicted":
        from repro.analysis.comm import predicted_peers_for

        return MpiConfig(
            connection="predicted",
            predicted_peers=predicted_peers_for(
                kernel, nprocs, npb_class=npb_class),
        )
    return MpiConfig(connection=connection)


def replay_report(result: Any, trace: CommTrace,
                  connection: str) -> Dict[str, Any]:
    """Deterministic JSON document describing one replayed run."""
    critpath = result.critical_path()
    pair_counts: Dict[str, int] = {}
    edges = set()
    for flow in critpath.flows:
        edges.add((flow.src, flow.dst))
        key = f"{flow.src}->{flow.dst}"
        pair_counts[key] = pair_counts.get(key, 0) + 1
    return {
        "schema": 1,
        "kernel": trace.kernel,
        "nprocs": trace.nprocs,
        "connection": connection,
        "trace_sha256": trace.digest(),
        "sim_time_us": result.total_time_us,
        "events": result.events_processed,
        "total_connections": result.resources.total_connections,
        "nic_vi_high_water": {
            str(node): hw
            for node, hw in sorted(result.resources.nic_vi_high_water.items())
        },
        "flow_edges": [list(e) for e in sorted(edges)],
        "pair_message_counts": dict(sorted(pair_counts.items())),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench capture",
        description="Capture a kernel's communication timeline to a "
                    "trace file, or replay a trace file.",
    )
    parser.add_argument("kernel", nargs="?", default=None,
                        help="registered kernel to capture "
                             "(omit with --replay)")
    parser.add_argument("--replay", default=None, metavar="TRACE",
                        help="replay this trace file instead of capturing")
    parser.add_argument("--np", type=int, default=4, dest="nprocs",
                        help="number of MPI processes (capture; default 4)")
    parser.add_argument("--nodes", type=int, default=None,
                        help="cluster nodes (default: --np, or trace meta)")
    parser.add_argument("--ppn", type=int, default=None,
                        help="processes per node (default: fit)")
    parser.add_argument("--cls", default="S", dest="npb_class",
                        help="NPB problem class (default S)")
    parser.add_argument("--connection", choices=CONNECTION_MODES, default=None,
                        help="connection mechanism (default ondemand, or "
                             "trace meta on replay)")
    parser.add_argument("--profile", choices=("clan", "berkeley"),
                        default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None,
                        help="trace file to write (capture mode; default "
                             "<kernel>.trace.jsonl)")
    parser.add_argument("--report", default=None,
                        help="replay report JSON to write (replay mode)")
    args = parser.parse_args(argv)

    if (args.kernel is None) == (args.replay is None):
        parser.error("pass exactly one of <kernel> or --replay TRACE")

    if args.replay is not None:
        return _replay(args, parser)
    return _capture(args, parser)


def _cluster_spec(nodes: int, ppn: Optional[int], nprocs: int,
                  profile: str, seed: int) -> ClusterSpec:
    if ppn is None:
        ppn = max(1, -(-nprocs // nodes))
    return ClusterSpec(nodes=nodes, ppn=ppn,
                       profile=profile_by_name(profile), seed=seed)


def _capture(args: argparse.Namespace,
             parser: argparse.ArgumentParser) -> int:
    kernel = args.kernel
    if kernel not in workload_registry.KERNEL_DEFS:
        parser.error(f"unknown kernel {kernel!r}; available: "
                     f"{','.join(sorted(workload_registry.KERNEL_DEFS))}")
    connection = args.connection or "ondemand"
    seed = 0 if args.seed is None else args.seed
    nodes = args.nodes if args.nodes is not None else args.nprocs
    spec = _cluster_spec(nodes, args.ppn, args.nprocs,
                         args.profile or "clan", seed)
    spec.validate_nprocs(args.nprocs)
    program = workload_registry.build_program(kernel, args.npb_class)
    result = run_job(
        spec, args.nprocs, program,
        config=_build_config(connection, kernel, args.nprocs,
                             args.npb_class),
        capture=CaptureConfig(kernel=kernel,
                              meta={"npb_class": args.npb_class}),
    )
    trace = result.trace
    assert trace is not None
    out = args.out or f"{kernel}.trace.jsonl"
    trace.save(out)
    print(f"captured {kernel} np={trace.nprocs} {connection}: "
          f"{trace.total_ops} ops, sim time {result.total_time_us:.1f}us")
    print(f"wrote {out} (sha256 {trace.digest()})")
    return 0


def _replay(args: argparse.Namespace,
            parser: argparse.ArgumentParser) -> int:
    trace = load_trace(args.replay)
    meta = trace.meta
    connection = args.connection or str(meta.get("connection", "ondemand"))
    seed = args.seed if args.seed is not None else int(meta.get("seed", 0))
    nodes = args.nodes if args.nodes is not None \
        else int(meta.get("nodes", trace.nprocs))
    ppn = args.ppn if args.ppn is not None else meta.get("ppn")
    profile = args.profile or str(meta.get("profile", "clan"))
    kernel_name = f"{trace.kernel}-replay"
    workload_registry.register_trace(trace, name=kernel_name)
    spec = _cluster_spec(nodes, ppn, trace.nprocs, profile, seed)
    spec.validate_nprocs(trace.nprocs)
    program = workload_registry.build_program(kernel_name)
    result = run_job(
        spec, trace.nprocs, program,
        config=_build_config(connection, kernel_name, trace.nprocs,
                             args.npb_class),
        telemetry=TelemetryConfig(),
    )
    doc = replay_report(result, trace, connection)
    print(f"replayed {trace.kernel} np={trace.nprocs} under {connection}: "
          f"sim time {result.total_time_us:.1f}us, "
          f"{len(doc['flow_edges'])} flow edges, "
          f"{result.resources.total_connections} connections")
    if args.report:
        text = json.dumps(doc, sort_keys=True, indent=2,
                          separators=(",", ": ")) + "\n"
        Path(args.report).write_text(text, encoding="utf-8")
        sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
        print(f"wrote {args.report} (sha256 {sha})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
