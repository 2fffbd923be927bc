"""One repetition of one workload, in a process of its own.

``run.py`` and ``python -m benchmarks.ladder run`` start this module as
a fresh subprocess for every repetition, so peak RSS and set-up time
are attributable to one workload and nothing memoised in-process
(``repro.analysis``'s ``lru_cache``) leaks between repetitions.  The
last line of standard output is one JSON document; misses of the
correctness gate are named on standard error.

Untraced (``--trace 0``): set up, one cheap warm-up op, then cycle the
ops for ``--seconds``.  Traced (``--trace 1``): the same cycles for a
third of ``--seconds`` unprofiled (boundary spans, exact counts, per-op
host costs), then cycles under ``cProfile`` whose ``tottime`` is folded
by package, then the workload's paper-scale ops once each, then
whatever switched-feature measurements the workload adds.  End-to-end
metrics never come from a profiled cycle.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from . import harness
from .metrics import LAYERS, PER_LAYER, SUMMED_COUNTS, WORKLOAD_ONLY

ROOT = Path(__file__).resolve().parent.parent.parent

#: workload name -> (module, class); imported only when chosen, so the
#: import cost a workload pays in ``setup_s`` is its own
REGISTRY: Dict[str, Tuple[str, str]] = {
    "engine_churn": ("w_engine", "EngineChurn"),
    "via_stream": ("w_via", "ViaStream"),
    "mpi_pt2pt": ("w_mpi", "MpiPt2pt"),
    "npb_cells": ("w_cells", "NpbCells"),
    "conn_init": ("w_cells", "ConnInit"),
    "cluster_mix": ("w_cluster", "ClusterMix"),
    "predict_cold": ("w_predict", "PredictCold"),
    "service_mix": ("w_service", "ServiceMix"),
}
#: probes taken right after set-up (20 ms)
SETUP_PROBES = 30
#: the traced pass times unprofiled cycles for this share of ``--seconds``
TRACED_SHARE = 1.0 / 3.0
#: and folds profiled cycles for at most this long
PROFILE_SECONDS = 1.5


def fold_profile(profile: cProfile.Profile) -> Dict[str, float]:
    """``tottime`` per layer: ``repro.<pkg>`` by package (``mpi.conn``
    apart from ``mpi``); numpy, the standard library, built-ins and the
    benchmark's own files are ``other``."""
    src = str(ROOT / "src" / "repro") + os.sep
    folded = {layer: 0.0 for layer in LAYERS}
    for entry in profile.getstats():
        code = entry.code
        layer = "other"
        filename = getattr(code, "co_filename", "")
        if filename.startswith(src):
            parts = filename[len(src):].split(os.sep)
            layer = "mpi.conn" if parts[:2] == ["mpi", "conn"] else parts[0]
            if layer not in folded:
                layer = "other"
        folded[layer] += entry.inlinetime
    return folded


def profiled_cycles(workload, ops, seconds: float) -> Tuple[Dict[str, float], float]:
    """Cycles under ``cProfile`` for about ``seconds`` (at least one):
    self time per layer *per cycle*, and the fastest profiled cycle."""
    profile = cProfile.Profile()
    walls: List[float] = []
    started = harness.clock()
    while not walls or harness.clock() - started + min(walls) <= seconds:
        gc.collect()
        cycle_started = harness.clock()
        profile.enable()
        for op in ops:
            op.fn()
        profile.disable()
        walls.append(harness.clock() - cycle_started)
    folded = fold_profile(profile)
    return {layer: self_s / len(walls) for layer, self_s in folded.items()}, min(walls)


def paper_values(workload, paper: Dict[str, List[harness.Sample]]) -> Dict[str, float]:
    """``paper.*``: one sample per paper-scale op, so host times here
    carry whatever the host was doing; the counts are exact."""
    if not paper:
        return {}
    simulating = [n for n, taken in paper.items() if taken[0].outcome.events]
    values = {
        "paper.wall_s": harness.cycle_wall(paper),
        "paper.events": harness.cycle_events(paper),
        "paper.events_per_s": (harness.cycle_events(paper, simulating)
                               / harness.cycle_wall(paper, simulating)) if simulating else 0.0,
    }
    values.update(workload.paper_metrics(paper))
    return values


def per_layer(workload, samples, spans, folded, traced_wall, extras, paper) -> Dict[str, float]:
    """Every per-layer metric, 0 where this workload does no such work."""
    values = {name: 0.0 for name, _unit, _better in PER_LAYER}
    total = sum(folded.values())
    for layer in LAYERS:
        values[f"{layer}.self_s"] = folded[layer]
        values[f"{layer}.self_share"] = folded[layer] / total if total else 0.0
    values["trace.overhead_ratio"] = traced_wall / harness.cycle_wall(samples)
    values["sim.events"] = harness.cycle_events(samples)
    for key in SUMMED_COUNTS:
        values[key] = harness.cycle_count(samples, key)
    firsts = [taken[0].outcome.counts for taken in samples.values()]
    values["memory.pinned_peak_bytes"] = max(
        (c.get("memory.pinned_peak_bytes", 0) for c in firsts), default=0)
    for target, key in (("via.vis_avg", "via.vis"), ("mpi.init_us_avg", "mpi.init_us")):
        seen = [c[key] for c in firsts if key in c]
        values[target] = statistics.fmean(seen) if seen else 0.0
    values["cluster.build_s"] = spans.median("cluster.build")
    values["cluster.run_job_s"] = spans.median("cluster.run_job")
    values.update(workload.layer_metrics(samples))
    for name, _unit, _better, _bound, _workload, layer in WORKLOAD_ONLY:
        if name in extras:
            values[f"{layer}.{name}"] = extras[name][0]
    values.update(paper_values(workload, paper))
    values.update(workload.traced_extras())
    return values


def measure(args, launched_at: float) -> Dict[str, Any]:
    module, cls = REGISTRY[args.workload]
    spans = harness.Spans()
    workload = getattr(importlib.import_module(f"{__package__}.{module}"), cls)(
        args.seed, args.scale, spans)
    try:
        workload.warm_up()
        setup_s = harness.clock() - launched_at
        # how fast the host ran while this process set up: the parent
        # calibrates set-up readings with it (``launch.measure``)
        setup_probe_s = min(harness.probe() for _ in range(SETUP_PROBES))
        doc: Dict[str, Any] = {
            "workload": args.workload, "seed": args.seed, "scale": args.scale,
            "seconds": args.seconds, "trace": args.trace,
            "setup_s": setup_s, "setup_probe_s": setup_probe_s,
        }
        if args.setup_only:
            return doc

        ops = workload.ops()
        # what set-up imported and built stays for the whole run: exempt
        # it from collection, so the collection before each timed op
        # (``harness.run_op``) walks that op's garbage only — 0.3 ms
        # instead of 8 ms — and the run spends its time on samples
        gc.freeze()
        rss_mb: List[float] = []

        def read_rss() -> None:
            # after one cycle — a fixed amount of work — not at the end:
            # a faster host fits more cycles in and would read higher
            rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                          + workload.peak_rss_extra_mb())

        budget = args.seconds * TRACED_SHARE if args.trace else args.seconds
        samples = harness.run_ops(ops, budget, spans, read_rss)
        attempted, misses, run_digest = harness.gate(samples, ops)
        metrics: Dict[str, Dict[str, Any]] = {}
        try:
            extra_attempted, extra_misses = workload.cycle_checks(samples)
            attempted += extra_attempted
            misses += extra_misses
            extras = workload.extras(samples)
            wall_s = harness.cycle_wall(samples)
            rate = (harness.cycle_events(samples, workload.rate_ops)
                    / harness.cycle_wall(samples, workload.rate_ops))
            if args.trace:
                unprofiled = len(spans.records)
                folded, traced_wall = profiled_cycles(
                    workload, ops, min(PROFILE_SECONDS, budget))
                # spans taken under the profiler are 3x too long: drop them
                del spans.records[unprofiled:]
                paper_ops = workload.paper_ops()
                paper = {op.name: [harness.run_op(op, spans)] for op in paper_ops}
                paper_attempted, paper_misses, _digest = harness.gate(paper, paper_ops)
                shape_attempted, shape_misses = workload.paper_checks(paper)
                attempted += paper_attempted + shape_attempted
                misses += paper_misses + shape_misses
                layer_values = per_layer(
                    workload, samples, spans, folded, traced_wall, extras, paper)
                metrics = {name: {"value": layer_values[name], "unit": unit}
                           for name, unit, _better in PER_LAYER}
                samples = {**samples, **{f"paper.{n}": taken for n, taken in paper.items()}}
            else:
                metrics = {
                    "setup_s": {"value": setup_s, "unit": "s"},
                    "wall_s": {"value": wall_s, "unit": "s"},
                    "events_per_s": {"value": rate, "unit": "1/s"},
                    "peak_rss_mb": {"value": rss_mb[0], "unit": "MiB"},
                }
                metrics.update({name: {"value": value, "unit": unit}
                                for name, (value, unit) in extras.items()})
        except Exception as exc:  # an op failed so badly its numbers are missing
            attempted += 1
            misses.append(f"{args.workload}: metrics missing ({type(exc).__name__}: {exc})")
        doc.update({
            "correct": not misses, "attempted": attempted, "failed": len(misses),
            "misses": misses, "digest": run_digest, "metrics": metrics,
            "ops": {
                name: {
                    "samples": len(taken),
                    "best_s": harness.best_wall(taken),
                    # as read, uncalibrated: what the host did to the op
                    "raw_min_s": min(s.wall_s for s in taken),
                    "raw_median_s": statistics.median(s.wall_s for s in taken),
                    "raw_max_s": max(s.wall_s for s in taken),
                    "events": taken[0].outcome.events,
                }
                for name, taken in samples.items()
            },
        })
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(spans.as_dicts()), encoding="utf-8")
        return doc
    finally:
        workload.close()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.ladder.worker")
    parser.add_argument("--workload", required=True, choices=sorted(REGISTRY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, warm up, report setup_s, stop")
    parser.add_argument("--launched-at", type=float, default=None,
                        help="harness.clock() of the parent just before it started "
                             "this process (setup_s then covers interpreter start-up)")
    parser.add_argument("--spans-out", default=None, help="write the boundary spans here")
    args = parser.parse_args(argv)
    launched_at = args.launched_at if args.launched_at is not None else _PROCESS_START
    doc = measure(args, launched_at)
    for miss in doc.get("misses", []):
        print(f"MISS {args.workload}: {miss}", file=sys.stderr)
    print(json.dumps(doc))
    return 0


_PROCESS_START = harness.clock()

if __name__ == "__main__":
    raise SystemExit(main())
