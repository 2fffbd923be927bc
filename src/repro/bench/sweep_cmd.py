"""``python -m repro.bench sweep`` — parallel, cached experiment sweeps.

Examples::

    python -m repro.bench sweep                      # mini matrix, cached
    python -m repro.bench sweep --workers 4          # fan out 4 processes
    python -m repro.bench sweep --matrix smoke --workers 2
    python -m repro.bench sweep --kernels cg,mg --np 4,8 --seeds 0,1
    python -m repro.bench sweep --no-cache           # force recompute
    python -m repro.bench sweep --cache-dir /tmp/bc --out-dir results/
    python -m repro.bench sweep --replay mytrace=cg.trace.jsonl --np 4

``--replay NAME=FILE`` (repeatable) registers captured trace files as
sweep kernels: the named kernel replays the trace in every cell (cells
whose ``--np`` differs from the capture size are skipped), cached by
the trace's content digest.

The sweep writes a byte-deterministic ``BENCH_<name>.json`` artifact
(wall-time per cell, simulated time, event count, events/sec, resource
counters).  With the cache enabled a second invocation reuses every
finished cell — including after a crash mid-sweep — and produces an
identical artifact.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.bench.clock import now_s
from repro.bench.flags import (
    add_fan_out_flags,
    add_job_flags,
    csv,
    open_cache,
    render_cache_stats,
    report_progress,
    run_resumable,
)
from repro.bench.report import Experiment
from repro.bench.runner import (
    MATRICES,
    SweepMatrix,
    SweepOutcome,
    SweepRunner,
    write_bench_json,
)
from repro.workloads.registry import kernel_def


def build_matrix(args: argparse.Namespace) -> SweepMatrix:
    """The built-in matrix with the axes the command line overrides (each
    flag's dest is the matrix field it sets); raises the registry's error
    for a kernel nobody registered."""
    base = MATRICES[args.matrix]
    axes = {field.name for field in dataclasses.fields(SweepMatrix)}
    overrides = {name: value for name, value in vars(args).items()
                 if name in axes and value not in (None, "", ())}
    if args.replay:
        overrides["traces"] = tuple(args.replay)
        kernels = overrides.get("kernels", base.kernels)
        overrides["kernels"] = kernels + tuple(
            name for name, _ in args.replay if name not in kernels)
    matrix = dataclasses.replace(base, **overrides)
    replayed = [name for name, _ in matrix.traces]
    for kernel in matrix.kernels:
        if kernel not in replayed:
            kernel_def(kernel)
    return matrix


def render_outcome(outcome: SweepOutcome) -> str:
    exp = Experiment(
        f"sweep:{outcome.matrix.name}",
        f"{len(outcome.results)} cells "
        f"({outcome.computed} computed, {outcome.cached} cached)",
        ["kernel", "np", "conn", "seed", "sim_ms", "events", "ev_per_s",
         "conns", "wall_s"],
        notes="ev_per_s and wall_s are host measurements recorded when "
              "the cell was first computed (cache-preserved).",
    )
    for cell, result in outcome.results:
        exp.add(
            cell.label,
            kernel=f"{cell.kernel}.{cell.npb_class}", np=cell.nprocs,
            conn=cell.connection, seed=cell.seed,
            sim_ms=result["sim_time_us"] / 1e3,
            events=result["events"],
            ev_per_s=result["events_per_sec"],
            conns=result["total_connections"],
            wall_s=result["wall_s"],
        )
    return exp.render()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench sweep",
        description="Run a declarative experiment sweep in parallel, "
                    "with content-addressed result caching.",
    )
    parser.add_argument("--matrix", choices=sorted(MATRICES), default="mini",
                        help="built-in sweep matrix (default mini); the "
                             "flags below override its axes")
    parser.add_argument("--kernels", type=csv, default=None,
                        help="comma-separated kernels (e.g. cg,mg)")
    add_job_flags(parser, swept=("np", "connection", "seed"), np=None,
                  nodes=None, ppn=None, cls=None, connection=None,
                  profile=None, seed=None)
    parser.add_argument("--name", default=None,
                        help="artifact name override (BENCH_<name>.json)")
    add_fan_out_flags(parser)
    args = parser.parse_args(argv)

    try:
        matrix = build_matrix(args)
    except ValueError as exc:
        parser.error(str(exc))
    cache = open_cache(args)
    runner = SweepRunner(matrix, workers=args.workers, cache=cache,
                         progress=report_progress)
    started = now_s()
    outcome = run_resumable("sweep", cache, runner.run)
    if outcome is None:
        return 130
    wall = now_s() - started

    path = write_bench_json(outcome, args.out_dir)
    print(render_outcome(outcome))
    print(f"\nwrote {path}")
    if cache is not None:
        print(render_cache_stats(cache))
    print(f"[sweep took {wall:.1f}s wall with {args.workers} workers: "
          f"{outcome.computed} computed, {outcome.cached} cached]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
