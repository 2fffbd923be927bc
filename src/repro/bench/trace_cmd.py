"""``python -m repro.bench trace <workload>`` — run one job with full
telemetry and export a Perfetto-loadable Chrome trace (plus an optional
JSONL event stream and a metrics summary table).

Examples::

    python -m repro.bench trace cg --np 4 --nodes 4 --out cg.trace.json
    python -m repro.bench trace is --np 8 --cls S --connection static-p2p
    python -m repro.bench trace mg --jsonl mg.jsonl

Open the ``--out`` file at https://ui.perfetto.dev ("Open trace file"):
one lane per MPI rank, one per NIC, one per fabric link.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.flags import ONE_JOB, add_job_flags, build_job_or_exit, csv
from repro.cluster.job import run_job
from repro.telemetry import (
    TelemetryConfig,
    export_chrome_trace,
    export_jsonl,
    summary_experiment,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench trace",
        description="Run one workload with telemetry and export a trace.",
    )
    parser.add_argument("workload", help="registered kernel to trace")
    add_job_flags(parser, **ONE_JOB)
    parser.add_argument("--out", default=None,
                        help="Chrome trace output path "
                             "(default <workload>.trace.json)")
    parser.add_argument("--jsonl", default=None,
                        help="also write the JSONL event stream here")
    parser.add_argument("--categories", default=None,
                        help="comma-separated span categories to keep "
                             "(conn,mpi,coll,nic,fabric,via); default all")
    args = parser.parse_args(argv)
    job = build_job_or_exit(parser, args, args.workload)

    categories = csv(args.categories) if args.categories else None
    res = run_job(*job, telemetry=TelemetryConfig(categories=categories))
    tel = res.telemetry
    assert tel is not None

    out = args.out or f"{args.workload}.trace.json"
    n_events = export_chrome_trace(tel, out)
    print(f"wrote {out}: {n_events} trace events "
          f"({len(tel.spans)} spans, {len(tel.instants)} instants)")
    if args.jsonl:
        n_lines = export_jsonl(tel, args.jsonl)
        print(f"wrote {args.jsonl}: {n_lines} lines")

    title = (f"{args.workload}.{args.npb_class} np={args.nprocs} "
             f"{args.connection}/{args.profile} seed={args.seed}")
    print()
    print(summary_experiment(tel, title=title).render())
    print()
    print(res.summary())
    print("open the trace at https://ui.perfetto.dev (Open trace file)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
