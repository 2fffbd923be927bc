#!/usr/bin/env python3
"""The benchmark's one command (see ``BENCHMARK.json``)::

    python3 benchmarks/ladder/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one repetition of one workload and prints, as the last line of
standard output, ``{"correct", "attempted", "failed", "metrics"}`` —
every end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  Exits non-zero, printing no result, when the program
under test is not there to measure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(ROOT))

from benchmarks.ladder import launch  # noqa: E402
from benchmarks.ladder.metrics import END_TO_END, WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke is the self-tests' size, not a measurement")
    args = parser.parse_args()
    try:
        doc = launch.measure(args.workload, args.seed, args.seconds, args.trace, args.scale)
    except launch.WorkerFailed as exc:
        print(f"ladder: {exc}", file=sys.stderr)
        return 1
    metrics = doc["metrics"]
    if not args.trace:
        # the contract's end-to-end set; workload-only metrics are
        # per-layer there and printed by ``python -m benchmarks.ladder``
        metrics = {name: metrics[name] for name, *_rest in END_TO_END if name in metrics}
    print(json.dumps({
        "correct": doc["correct"], "attempted": doc["attempted"],
        "failed": doc["failed"], "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
