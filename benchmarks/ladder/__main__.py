"""``PYTHONPATH=src python -m benchmarks.ladder`` — run the ladder, compare two runs.

::

    python -m benchmarks.ladder run [--seed N] [--workload NAME]... [--reps K]
                                    [--seconds S] [--traced] [--scale smoke] [--out FILE]
    python -m benchmarks.ladder compare A.json B.json

``run`` prints, per workload, every end-to-end metric by name with its
unit — the median over repetitions with min, max and the sample count —
then the workload-only metrics, ``failed_share``, each op's time
(calibrated, and as the host read it), and with ``--traced`` the
per-layer metrics of one extra traced repetition.  A failing
workload does not stop the others: its metrics are reported as missing
and its ``failed_share`` is 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import launch
from .compare import compare_files
from .metrics import END_TO_END, RUN_SECONDS, WORKLOAD_ONLY, WORKLOADS


def summarize(values: List[float], unit: str) -> Dict[str, Any]:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values), "unit": unit, "values": values}


def run_workload(name: str, args) -> Dict[str, Any]:
    """All repetitions of one workload, reduced to medians and a gate."""
    reps: List[Dict[str, Any]] = []
    attempted = failed = 0
    misses: List[str] = []
    for rep in range(args.reps):
        try:
            doc = launch.measure(name, args.seed, args.seconds, 0, args.scale)
        except launch.WorkerFailed as exc:
            attempted += 1
            failed += 1
            misses.append(str(exc))
            continue
        reps.append(doc)
        attempted += doc["attempted"]
        failed += doc["failed"]
        misses += doc["misses"]
    # same seed, separate processes: identical simulated digests
    if len(reps) > 1:
        attempted += 1
        if len({doc["digest"] for doc in reps}) != 1:
            failed += 1
            misses.append(f"{name}: repetitions disagree on the simulated digest")
    summary: Dict[str, Any] = {}
    for doc in reps[:1]:
        for metric, cell in doc["metrics"].items():
            values = [d["metrics"][metric]["value"] for d in reps if metric in d["metrics"]]
            summary[metric] = summarize(values, cell["unit"])
    result: Dict[str, Any] = {
        "metrics": summary,
        "failed_share": (failed / attempted) if reps and attempted else 1.0,
        "attempted": attempted, "failed": failed, "misses": misses,
        "digest": reps[0]["digest"] if reps else None,
        "ops": reps[0]["ops"] if reps else {},
    }
    if args.traced:
        spans_out = f"{args.out}.{name}.spans.json" if args.out else None
        try:
            traced = launch.measure(name, args.seed, args.seconds, 1, args.scale, spans_out)
            result["per_layer"] = traced["metrics"]
            result["misses"] += traced["misses"]
        except launch.WorkerFailed as exc:
            result["misses"].append(f"traced pass: {exc}")
    return result


def print_workload(name: str, result: Dict[str, Any]) -> None:
    print(f"\n== {name}  (failed_share = {result['failed_share']:.4g}, "
          f"{result['failed']}/{result['attempted']} operations)")
    everywhere = [m for m, *_rest in END_TO_END]
    for metric in everywhere + [m for m, *_rest in WORKLOAD_ONLY]:
        cell = result["metrics"].get(metric)
        if cell is None:
            if metric in everywhere:
                print(f"  {metric:<20} missing")
            continue
        print(f"  {metric:<20} {cell['median']:>14.6g} {cell['unit']:<5} "
              f"(min {cell['min']:.6g}, max {cell['max']:.6g}, n={cell['n']})")
    for op, cell in result["ops"].items():
        print(f"    op {op:<22} {1e3 * cell['best_s']:>9.3f} ms calibrated  "
              f"(as read: min {1e3 * cell['raw_min_s']:.3f}, median "
              f"{1e3 * cell['raw_median_s']:.3f})  x{cell['samples']}  {cell['events']:>7} events")
    for miss in result["misses"]:
        print(f"  MISS {miss}", file=sys.stderr)
    if "per_layer" in result:
        print("  -- per-layer (traced pass; 0 = this workload does no such work)")
        for metric, cell in result["per_layer"].items():
            if cell["value"]:
                print(f"  {metric:<36} {cell['value']:>14.6g} {cell['unit']}")


def cmd_run(args) -> int:
    names = args.workload or list(WORKLOADS)
    doc: Dict[str, Any] = {
        "schema": 1, "seed": args.seed, "reps": args.reps, "seconds": args.seconds,
        "scale": args.scale, "host": launch.host_facts(), "results": {},
    }
    print(f"ladder: seed {args.seed}, {args.reps} repetitions x {args.seconds:g} s, "
          f"scale {args.scale}; host {doc['host']}")
    for name in names:
        result = run_workload(name, args)
        doc["results"][name] = result
        print_workload(name, result)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    worst = max(r["failed_share"] for r in doc["results"].values())
    print(f"\nladder: correctness gate {'passed' if worst == 0 else 'FAILED'}")
    return 0 if worst == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ladder",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run workloads, print every metric")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--workload", action="append", choices=list(WORKLOADS))
    run.add_argument("--reps", type=int, default=3)
    run.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    run.add_argument("--traced", action="store_true",
                     help="add one traced repetition per workload: per-layer metrics")
    run.add_argument("--scale", choices=("full", "smoke"), default="full")
    run.add_argument("--out", default=None, help="write results (and spans) here")
    cmp_ = sub.add_parser("compare", help="compare two --out files")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = parser.parse_args(argv)
    if args.cmd == "run":
        return cmd_run(args)
    return compare_files(args.a, args.b)


if __name__ == "__main__":
    raise SystemExit(main())
