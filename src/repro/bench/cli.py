"""Command-line harness: ``python -m repro.bench`` / ``repro-bench``.

Examples::

    python -m repro.bench all                 # every table and figure, fast
    python -m repro.bench fig4 fig8 table2    # a subset
    python -m repro.bench all --full          # the paper's parameters
    python -m repro.bench table1 --large      # add the scaling column
    python -m repro.bench chaos --smoke       # fault-injection sweep
    python -m repro.bench trace cg --np 4     # telemetry + Chrome trace
    python -m repro.bench flow cg --np 8      # where did the time go?
    python -m repro.bench capture cg --np 4   # record a comm trace
    python -m repro.bench capture --replay cg.trace.jsonl  # re-run it
    python -m repro.bench sweep --workers 4   # parallel cached sweep
    python -m repro.bench cluster --workers 3 # multi-job scheduler sweep
    python -m repro.bench golden --check      # golden-trace fingerprints
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.ablations import ALL_ABLATIONS
from repro.bench.figures import ALL_FIGURES
from repro.bench.tables import ALL_TABLES

EXPERIMENTS = {**ALL_FIGURES, **ALL_TABLES, **ALL_ABLATIONS}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "chaos":
        # the chaos sweep has its own flags (--smoke/--full), not the
        # figure/table ones, so it dispatches before this parser
        from repro.bench.chaos import main as chaos_main

        return chaos_main(argv[1:])
    if argv and argv[0] == "trace":
        # telemetry export has its own flags too
        from repro.bench.trace_cmd import main as trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "flow":
        # critical-path attribution of a traced run (own flags as well)
        from repro.bench.flow_cmd import main as flow_main

        return flow_main(argv[1:])
    if argv and argv[0] == "capture":
        # comm-trace capture/replay (own flags as well)
        from repro.bench.capture_cmd import main as capture_main

        return capture_main(argv[1:])
    if argv and argv[0] == "sanitize":
        # runtime-sanitizer smoke run (own flags as well)
        from repro.bench.sanitize_cmd import main as sanitize_main

        return sanitize_main(argv[1:])
    if argv and argv[0] == "sweep":
        # parallel cached sweep runner (own flags as well)
        from repro.bench.sweep_cmd import main as sweep_main

        return sweep_main(argv[1:])
    if argv and argv[0] == "cluster":
        # multi-job cluster scheduling comparison (own flags as well)
        from repro.bench.cluster_cmd import main as cluster_main

        return cluster_main(argv[1:])
    if argv and argv[0] == "golden":
        # golden-trace fingerprint check/regeneration (own flags as well)
        from repro.bench.golden import main as golden_main

        return golden_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments", nargs="+",
        help=f"experiment ids ({', '.join(sorted(EXPERIMENTS))}) or 'all'",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="use the paper's full parameters (slow)",
    )
    parser.add_argument(
        "--large", action="store_true",
        help="table1: add the 256-process scaling column",
    )
    args = parser.parse_args(argv)

    if "all" in args.experiments:
        # 'all' covers the paper's tables and figures; ablations are
        # opt-in by name (or via 'ablations')
        names = sorted(set(EXPERIMENTS) - set(ALL_ABLATIONS))
    elif "ablations" in args.experiments:
        names = sorted(ALL_ABLATIONS)
    else:
        names = args.experiments
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}")

    for name in names:
        # host wall-clock for operator progress only, never fed to the DES
        start = time.time()  # repro: allow[REPRO001]
        runner = EXPERIMENTS[name]
        if name == "table1":
            exp = runner(fast=not args.full, large=args.large)
        else:
            exp = runner(fast=not args.full)
        print(exp.render())
        print(f"[{name} took {time.time() - start:.1f}s wall]\n")  # repro: allow[REPRO001]
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
