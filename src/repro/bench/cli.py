"""Command-line harness: ``python -m repro.bench`` / ``repro-bench``.

``python -m repro.bench fig4 fig8 table2`` regenerates the paper's tables
and figures (``all`` for every one, ``ablations`` for the ablation
studies, ``--full`` for the paper's parameters, ``--large`` for table1's
256-process column).  A first word naming one of :data:`COMMANDS` runs
that command instead, with its own flags::
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

from repro.bench.ablations import ALL_ABLATIONS
from repro.bench.clock import now_s
from repro.bench.figures import ALL_FIGURES
from repro.bench.tables import ALL_TABLES

EXPERIMENTS = {**ALL_FIGURES, **ALL_TABLES, **ALL_ABLATIONS}

#: subcommand -> (the module whose ``main(argv)`` runs it, example
#: arguments, what it does)
COMMANDS = {
    "chaos": ("repro.bench.chaos", "--smoke", "fault-injection sweep"),
    "trace": ("repro.bench.trace_cmd", "cg --np 4", "telemetry + Chrome trace"),
    "flow": ("repro.bench.flow_cmd", "cg --np 8", "where did the time go?"),
    "capture": ("repro.bench.capture_cmd", "cg --np 4",
                "record a comm trace; --replay re-runs one"),
    "sanitize": ("repro.bench.sanitize_cmd", "cg --np 8",
                 "runtime sanitizers"),
    "sweep": ("repro.bench.sweep_cmd", "--workers 4", "parallel cached sweep"),
    "cluster": ("repro.bench.cluster_cmd", "--workers 3",
                "multi-job scheduler comparison"),
    "golden": ("repro.bench.golden", "--check", "golden-trace fingerprints"),
}

__doc__ += "\n" + "\n".join(
    f"    python -m repro.bench {f'{name} {example}':<20} # {what}"
    for name, (_module, example, what) in COMMANDS.items())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        return import_module(COMMANDS[argv[0]][0]).main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
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
        start = now_s()
        runner = EXPERIMENTS[name]
        if name == "table1":
            exp = runner(fast=not args.full, large=args.large)
        else:
            exp = runner(fast=not args.full)
        print(exp.render())
        print(f"[{name} took {now_s() - start:.1f}s wall]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
