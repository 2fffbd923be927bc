"""Command-line harness: ``python -m repro.bench`` / ``repro-bench``.

``python -m repro.bench fig4 fig8 table2`` regenerates the paper's tables
and figures in the order named (``all`` for every one, ``ablations`` for
the ablation studies).  A first word naming one of :data:`COMMANDS` runs
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

#: experiment id -> its :class:`~repro.bench.report.Record`
EXPERIMENTS = {**ALL_FIGURES, **ALL_TABLES, **ALL_ABLATIONS}
#: the words that stand for a list of experiment ids; 'all' covers the
#: paper's tables and figures, ablations are opt-in
GROUPS = {
    "all": sorted(set(EXPERIMENTS) - set(ALL_ABLATIONS)),
    "ablations": sorted(ALL_ABLATIONS),
}

#: subcommand -> (the module whose ``main(argv)`` runs it, example
#: arguments, what it does)
COMMANDS = {
    "chaos": ("repro.bench.chaos", "", "fault-injection sweep"),
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
        help=(f"experiment ids ({', '.join(sorted(EXPERIMENTS))}), "
              "'all' or 'ablations'"),
    )
    args = parser.parse_args(argv)

    # each id runs once, where it first appears
    names = list(dict.fromkeys(
        name for word in args.experiments
        for name in GROUPS.get(word, [word])))
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}")

    for name in names:
        start = now_s()
        exp = EXPERIMENTS[name].run()
        print(exp.render())
        print(f"[{name} took {now_s() - start:.1f}s wall]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
