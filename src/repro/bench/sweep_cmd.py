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
import signal
import sys
import time

from repro.bench.report import Experiment
from repro.bench.runner import (
    ALL_CONNECTIONS,
    MATRICES,
    ResultCache,
    SweepMatrix,
    SweepOutcome,
    SweepRunner,
    default_cache_dir,
    write_bench_json,
)


def _csv(text: str) -> tuple:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _csv_int(text: str) -> tuple:
    return tuple(int(part) for part in _csv(text))


def _parse_replays(specs) -> tuple:
    traces = []
    for item in specs or ():
        name, sep, path = item.partition("=")
        if not sep or not name.strip() or not path.strip():
            raise ValueError(
                f"--replay needs NAME=FILE, got {item!r}")
        traces.append((name.strip(), path.strip()))
    return tuple(traces)


def build_matrix(args: argparse.Namespace) -> SweepMatrix:
    base = MATRICES[args.matrix]
    overrides = {}
    if args.kernels:
        overrides["kernels"] = _csv(args.kernels)
    traces = _parse_replays(getattr(args, "replay", None))
    if traces:
        overrides["traces"] = traces
        kernels = tuple(overrides.get("kernels", base.kernels))
        missing = tuple(n for n, _ in traces if n not in kernels)
        overrides["kernels"] = kernels + missing
    if args.nprocs:
        overrides["nprocs"] = _csv_int(args.nprocs)
    if args.connections:
        overrides["connections"] = _csv(args.connections)
    if args.seeds:
        overrides["seeds"] = _csv_int(args.seeds)
    if args.nodes is not None:
        overrides["nodes"] = args.nodes
    if args.ppn is not None:
        overrides["ppn"] = args.ppn
    if args.profile:
        overrides["profile"] = args.profile
    if args.npb_class:
        overrides["npb_class"] = args.npb_class
    if args.name:
        overrides["name"] = args.name
    if not overrides:
        return base
    import dataclasses

    return dataclasses.replace(base, **overrides)


def render_cache_stats(cache: ResultCache) -> str:
    """One-line hit/miss digest of a sweep's cache traffic.

    The counters are the :class:`ResultCache`'s own (`hits`/`misses`
    accumulate across every ``get``) — the same counters the service
    exports as its cache-hit-rate metric, so the CLI line and the
    server's ``service.cache.*`` gauges always agree on semantics.
    """
    lookups = cache.hits + cache.misses
    rate = (100.0 * cache.hits / lookups) if lookups else 0.0
    line = (f"[cache: {cache.hits} hits / {cache.misses} misses "
            f"({rate:.0f}% hit rate)")
    if cache.corrupt_recovered:
        line += f", {cache.corrupt_recovered} corrupt entries recovered"
    return line + "]"


def _raise_keyboard_interrupt(signum, frame):
    """SIGTERM handler: reuse the SIGINT unwind path (finally-blocks
    run, the worker pool is terminated, completed cells stay cached)."""
    raise KeyboardInterrupt


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
                        help="built-in sweep matrix (default mini)")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel worker processes (default 1)")
    parser.add_argument("--kernels", default=None,
                        help="comma-separated kernel override (e.g. cg,mg)")
    parser.add_argument("--replay", action="append", default=None,
                        metavar="NAME=FILE",
                        help="register a captured trace file as sweep "
                             "kernel NAME (repeatable)")
    parser.add_argument("--np", dest="nprocs", default=None,
                        help="comma-separated process counts (e.g. 4,8,16)")
    parser.add_argument("--connections", default=None,
                        help="comma-separated connection mechanisms "
                             f"({','.join(ALL_CONNECTIONS)})")
    parser.add_argument("--seeds", default=None,
                        help="comma-separated seeds (e.g. 0,1,2)")
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--ppn", type=int, default=None)
    parser.add_argument("--profile", choices=("clan", "berkeley"), default=None)
    parser.add_argument("--cls", dest="npb_class", default=None,
                        help="NPB problem class (default from matrix)")
    parser.add_argument("--name", default=None,
                        help="artifact name override (BENCH_<name>.json)")
    parser.add_argument("--out-dir", default=".",
                        help="directory for BENCH_<name>.json (default .)")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory (default .bench-cache, "
                             "or $REPRO_BENCH_CACHE)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not populate the cache")
    args = parser.parse_args(argv)

    try:
        matrix = build_matrix(args)
    except ValueError as exc:
        parser.error(str(exc))
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())

    runner = SweepRunner(
        matrix, workers=args.workers, cache=cache,
        progress=lambda msg: print(f"  {msg}", file=sys.stderr),
    )
    # graceful kill: SIGTERM joins SIGINT's KeyboardInterrupt unwind —
    # in-flight cells are abandoned (the pool is terminated by the
    # context manager), completed cells are already on disk via the
    # cache's atomic writes, and re-running the same command resumes
    try:
        prev_term = signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
    except ValueError:  # not the main thread (e.g. driven from a test rig)
        prev_term = None
    # host wall-clock for operator progress only, never fed to the DES
    started = time.time()  # repro: allow[REPRO001]
    try:
        outcome = runner.run()
    except KeyboardInterrupt:
        print("\nsweep interrupted — completed cells remain cached; "
              "re-run the same command to resume", file=sys.stderr)
        if cache is not None:
            print(render_cache_stats(cache), file=sys.stderr)
        return 130
    finally:
        if prev_term is not None:
            signal.signal(signal.SIGTERM, prev_term)
    wall = time.time() - started  # repro: allow[REPRO001]

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
