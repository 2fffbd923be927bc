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
from typing import Any, Dict

from repro.bench.flags import ONE_JOB, add_job_flags, build_job_or_exit
from repro.cluster.job import run_job
from repro.telemetry import TelemetryConfig
from repro.workloads.registry import register_trace
from repro.workloads.replay import CaptureConfig
from repro.workloads.trace import CommTrace, load_trace


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
    # left unset, these come from the trace's metadata on replay; a
    # capture runs one node per rank and ONE_JOB's other defaults
    add_job_flags(parser, **{**ONE_JOB, "nodes": None, "connection": None,
                             "profile": None, "seed": None})
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


def _capture(args: argparse.Namespace,
             parser: argparse.ArgumentParser) -> int:
    kernel = args.kernel
    args.connection = args.connection or ONE_JOB["connection"]
    args.profile = args.profile or ONE_JOB["profile"]
    args.seed = args.seed or ONE_JOB["seed"]
    result = run_job(
        *build_job_or_exit(parser, args, kernel),
        capture=CaptureConfig(kernel=kernel,
                              meta={"npb_class": args.npb_class}),
    )
    trace = result.trace
    assert trace is not None
    out = args.out or f"{kernel}.trace.jsonl"
    trace.save(out)
    print(f"captured {kernel} np={trace.nprocs} {args.connection}: "
          f"{trace.total_ops} ops, sim time {result.total_time_us:.1f}us")
    print(f"wrote {out} (sha256 {trace.digest()})")
    return 0


def _replay(args: argparse.Namespace,
            parser: argparse.ArgumentParser) -> int:
    trace = load_trace(args.replay)
    meta = trace.meta
    args.connection = args.connection or str(meta.get("connection",
                                                      "ondemand"))
    if args.seed is None:
        args.seed = int(meta.get("seed", 0))
    if args.nodes is None:
        args.nodes = int(meta.get("nodes", trace.nprocs))
    if args.ppn is None:
        args.ppn = meta.get("ppn")
    args.profile = args.profile or str(meta.get("profile", "clan"))
    args.nprocs = trace.nprocs
    kernel_name = f"{trace.kernel}-replay"
    register_trace(trace, name=kernel_name)
    result = run_job(*build_job_or_exit(parser, args, kernel_name),
                     telemetry=TelemetryConfig())
    doc = replay_report(result, trace, args.connection)
    print(f"replayed {trace.kernel} np={trace.nprocs} under "
          f"{args.connection}: sim time {result.total_time_us:.1f}us, "
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
