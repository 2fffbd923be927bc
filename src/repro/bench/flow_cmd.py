"""``python -m repro.bench flow <workload>`` — where did the time go?

Runs one workload with full telemetry, walks the causal flow DAG
(:mod:`repro.telemetry.critpath`) and prints the per-message latency
attribution: connect stall, flow-control stall, NIC service, wire, and
the residual.  The first-vs-steady table is the paper's on-demand
argument made visible — the first message of every pair pays the
measured connection setup, the rest do not.

Examples::

    python -m repro.bench flow cg --np 8 --nodes 4
    python -m repro.bench flow is --connection static-p2p
    python -m repro.bench flow mg --jsonl mg.flow.jsonl --out mg.trace.json
    python -m repro.bench flow mytrace --replay mytrace.trace.jsonl

Any registered kernel works (NPB, micro, skeletons, registered
traces); ``--replay FILE`` registers a captured trace file under the
given workload name first, so captured workloads flow-trace like any
other kernel.  ``--jsonl``/``--out`` re-export the underlying telemetry
stream / Chrome trace (byte-deterministic; CI uses ``cmp`` on reruns).
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.flags import ONE_JOB, add_job_flags, build_job_or_exit
from repro.bench.report import Experiment
from repro.cluster.job import run_job
from repro.telemetry import TelemetryConfig, export_chrome_trace, export_jsonl
from repro.telemetry.critpath import BUCKET_LABELS, BUCKETS, CritPathReport, analyze
from repro.workloads.registry import register_trace
from repro.workloads.trace import load_trace


def breakdown_experiment(report: CritPathReport, title: str) -> Experiment:
    """The attribution totals as a bench report table."""
    exp = Experiment(
        "flow", title, ["total_us", "share_pct", "what"],
        notes=f"{report.messages} traced messages, "
              f"{len(report.pair_stats())} communicating pairs",
    )
    totals, shares = report.totals(), report.shares()
    for bucket in BUCKETS:
        exp.add(bucket, total_us=round(totals[bucket], 1),
                share_pct=round(100 * shares[bucket], 1),
                what=BUCKET_LABELS[bucket])
    return exp


def pairs_experiment(report: CritPathReport, title: str,
                     limit: int = 8) -> Experiment:
    """First-vs-steady message latency of the costliest pairs."""
    stats = sorted(report.pair_stats(), key=lambda s: (-s.penalty_us,
                                                       s.job, s.src, s.dst))
    exp = Experiment(
        "flow-pairs", title,
        ["msgs", "first_us", "steady_us", "penalty_us", "connect_us"],
        notes="first message vs steady-state median, worst pairs first",
    )
    for s in stats[:limit]:
        exp.add(f"j{s.job} {s.src}->{s.dst}", msgs=s.messages,
                first_us=round(s.first_us, 2),
                steady_us=round(s.steady_us, 2),
                penalty_us=round(s.penalty_us, 2),
                connect_us=round(s.first_connect_us, 2))
    return exp


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench flow",
        description="Trace one workload and attribute every message's "
                    "latency (connect stall / flow control / NIC / wire).",
    )
    parser.add_argument("workload",
                        help="registered kernel to trace (NPB, micro, "
                             "skeleton, or the name for --replay)")
    parser.add_argument("--replay", default=None, metavar="TRACE",
                        help="register this captured trace file as the "
                             "workload before tracing it")
    add_job_flags(parser, **ONE_JOB)
    parser.add_argument("--pairs", type=int, default=8,
                        help="pairs to list in the first-vs-steady table")
    parser.add_argument("--jsonl", default=None,
                        help="also write the JSONL event stream here")
    parser.add_argument("--out", default=None,
                        help="also write the Chrome trace here")
    args = parser.parse_args(argv)

    if args.replay is not None:
        trace = load_trace(args.replay)
        register_trace(trace, name=args.workload)
        args.nprocs = trace.nprocs
    job = build_job_or_exit(parser, args, args.workload)
    res = run_job(*job, telemetry=TelemetryConfig())
    tel = res.telemetry
    assert tel is not None
    report = analyze(tel)

    title = (f"{args.workload}.{args.npb_class} np={args.nprocs} "
             f"{args.connection}/{args.profile} seed={args.seed}")
    print(breakdown_experiment(report, f"latency attribution: {title}")
          .render())
    print()
    print(pairs_experiment(report, "first-message penalty per pair",
                           limit=args.pairs).render())
    m = tel.metrics
    setup = m.histogram(f"conn.{args.connection}.setup_us")
    if setup.count:
        print(f"\nconn.{args.connection}.setup_us: "
              f"{setup.count} connects, mean {setup.mean:.1f}us, "
              f"max {setup.max:.1f}us")
    print()
    print(res.summary())

    if args.jsonl:
        n_lines = export_jsonl(tel, args.jsonl)
        print(f"wrote {args.jsonl}: {n_lines} lines")
    if args.out:
        n_events = export_chrome_trace(tel, args.out)
        print(f"wrote {args.out}: {n_events} trace events "
              "(flow arrows link each message end to end)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
