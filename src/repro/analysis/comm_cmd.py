"""``python -m repro.analysis comm <kernel>`` — predict the comm graph.

Statically analyzes a registered kernel at a given ``--nprocs`` and
prints the per-rank connection peers, the REPROC diagnostics, and — with
``--measure`` — the paper's Table-2 comparison: statically predicted VI
counts next to the counts a real (simulated) on-demand run measures.
``--check`` additionally runs the observed-⊆-predicted differential gate
with PR 7 flow tracing.

Exit status: 0 when the graph is diagnostic-free (and, when requested,
the differential holds); 1 otherwise — the CI comm-analysis job fails on
any REPROC diagnostic in tree.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.comm import analyze_kernel, check_observed_subset
from repro.analysis.commgraph import CommGraph, REPROC_RULES
from repro.via.profiles import PROFILE_NAMES
from repro.workloads.registry import KERNEL_DEFS


def _measure(kernel: str, nprocs: int, npb_class: str, nodes: Optional[int],
             ppn: int, profile: str, seed: int) -> Dict[str, Any]:
    """One simulated on-demand run; the measured side of Table 2."""
    from repro.cluster.job import build_job, run_job

    res = run_job(*build_job(kernel, npb_class, nprocs, nodes, ppn, profile,
                             "ondemand", seed))
    return {
        "total_connections": res.resources.total_connections,
        "avg_vis": res.resources.avg_vis,
    }


def _table(graph: CommGraph, measured: Optional[Dict[str, Any]]) -> List[str]:
    """The Table-2 row for one kernel: predicted vs measured VI counts."""
    mesh = max(0, graph.nprocs - 1)
    lines = [
        f"{'':14s}{'per-process VIs':>18s}",
        f"{'full mesh':14s}{mesh:18d}",
        f"{'predicted max':14s}{graph.max_degree:18d}",
        f"{'predicted avg':14s}{graph.avg_degree:18.2f}",
    ]
    if measured is not None:
        avg = measured["total_connections"] / max(1, graph.nprocs)
        lines.append(f"{'measured avg':14s}{avg:18.2f}")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis comm",
        description="Static communication-graph analysis "
                    "(predicted connection peers, REPROC diagnostics).",
    )
    parser.add_argument("kernel", choices=sorted(KERNEL_DEFS),
                        help="registered kernel to analyze")
    parser.add_argument("--nprocs", type=int, default=4,
                        help="job size to analyze for (default 4)")
    parser.add_argument("--cls", default="S", dest="npb_class",
                        help="NPB problem class (default S)")
    parser.add_argument("--json", metavar="FILE",
                        help="write the CommGraph JSON report here")
    parser.add_argument("--measure", action="store_true",
                        help="also run the kernel (on-demand, simulated) "
                             "and print predicted-vs-measured VI counts")
    parser.add_argument("--check", action="store_true",
                        help="run the observed-subset-of-predicted "
                             "differential gate (implies a traced run)")
    parser.add_argument("--nodes", type=int, default=None,
                        help="cluster nodes for --measure/--check "
                             "(default: nprocs)")
    parser.add_argument("--ppn", type=int, default=1,
                        help="processes per node (default 1)")
    parser.add_argument("--profile", choices=PROFILE_NAMES, default="clan")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="print only the summary and diagnostics")
    args = parser.parse_args(argv)

    graph = analyze_kernel(args.kernel, args.nprocs,
                           npb_class=args.npb_class)

    report = graph.as_dict()
    ok = graph.ok
    measured = None
    if args.measure or args.check:
        measured = _measure(args.kernel, args.nprocs, args.npb_class,
                            args.nodes, args.ppn, args.profile, args.seed)
        report["measured"] = measured
    if args.check:
        diff = check_observed_subset(
            args.kernel, args.nprocs, npb_class=args.npb_class,
            nodes=args.nodes, ppn=args.ppn, profile=args.profile,
            seed=args.seed,
        )
        report["differential"] = diff
        ok = ok and diff["ok"]

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")

    for line in graph.summary_lines():
        print(line)
    if not args.quiet:
        if not graph.ok:
            print()
            for code in sorted({d.code for d in graph.diagnostics}):
                print(f"{code}: {REPROC_RULES[code]}")
        print()
        for line in _table(graph, measured):
            print(line)
        if not args.quiet and graph.peers:
            print()
            for rank, peers in enumerate(graph.peers):
                print(f"rank {rank}: -> {list(peers)}")
    if args.check:
        diff = report["differential"]
        verdict = "holds" if diff["ok"] else f"FAILS: {diff['violations']}"
        print(f"\nobserved ⊆ predicted: {verdict} "
              f"({len(diff['observed_edges'])} observed edges)")
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
