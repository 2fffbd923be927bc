"""The flags the ``repro.bench`` commands share, each declared once.

*Job flags* describe one simulated job the way
:func:`repro.cluster.job.build_job` takes it —
``--np/--nodes/--ppn/--cls/--connection/--profile/--seed``.  A command
declares the ones it takes with its own defaults; the fan-out commands
sweep some of them as comma-separated lists (``--np 2,4``,
``--connections``, ``--seeds``).  *Fan-out flags*
(``--workers/--cache-dir/--no-cache/--out-dir/--replay NAME=FILE``)
configure :func:`repro.bench.runner.fan_out`.

Only the commands import this module: the cluster layer and the
service's worker path never parse arguments.
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import Callable, Optional, Tuple, TypeVar

from repro.bench.cache import ResultCache
from repro.bench.runner import default_cache_dir
from repro.cluster.job import KernelJob, build_job
from repro.mpi.config import CONNECTION_MODES
from repro.via.profiles import PROFILE_NAMES

T = TypeVar("T")


def csv(text: str) -> Tuple[str, ...]:
    """``"cg, is,"`` -> ``("cg", "is")``."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


def csv_int(text: str) -> Tuple[int, ...]:
    return tuple(int(part) for part in csv(text))


def mechanisms(text: str) -> Tuple[str, ...]:
    """A comma-separated list of connection mechanisms."""
    names = csv(text)
    unknown = [name for name in names if name not in CONNECTION_MODES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown connections {unknown}; choose from "
            f"{', '.join(CONNECTION_MODES)}")
    return names


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def replay_spec(text: str) -> Tuple[str, str]:
    """``NAME=FILE`` -> ``(NAME, FILE)``."""
    name, sep, path = text.partition("=")
    if not sep or not name.strip() or not path.strip():
        raise argparse.ArgumentTypeError(f"needs NAME=FILE, got {text!r}")
    return name.strip(), path.strip()


#: job flag -> (spelling, dest, argparse keywords, help)
_ONE_VALUE = {
    "np": ("--np", "nprocs", {"type": int}, "MPI process count"),
    "nodes": ("--nodes", "nodes", {"type": int}, "cluster nodes"),
    "ppn": ("--ppn", "ppn", {"type": int},
            "processes per node; None fits --np"),
    "cls": ("--cls", "npb_class", {}, "NPB problem class"),
    "connection": ("--connection", "connection",
                   {"choices": CONNECTION_MODES}, "connection mechanism"),
    "profile": ("--profile", "profile", {"choices": PROFILE_NAMES},
                "VIA NIC profile"),
    "seed": ("--seed", "seed", {"type": int}, "simulation seed"),
}
#: the spelling of a job flag a fan-out command sweeps
_SWEPT = {
    "np": ("--np", "nprocs", csv_int),
    "connection": ("--connections", "connections", mechanisms),
    "seed": ("--seeds", "seeds", csv_int),
}

#: the defaults of the commands that run one job
ONE_JOB = dict(np=4, nodes=4, ppn=None, cls="S", connection="ondemand",
               profile="clan", seed=0)


def add_job_flags(parser: argparse.ArgumentParser, swept: Tuple[str, ...] = (),
                  **defaults) -> None:
    """Declare the job flags named in ``defaults``, each with its default.

    A flag named in ``swept`` takes a comma-separated list instead
    (``--connection`` and ``--seed`` are then ``--connections`` and
    ``--seeds``); a string default is parsed like the command line.
    """
    for name, default in defaults.items():
        flag, dest, kwargs, text = _ONE_VALUE[name]
        if name in swept:
            flag, dest, parse = _SWEPT[name]
            kwargs, text = {"type": parse}, f"{text}s, comma-separated"
        parser.add_argument(flag, dest=dest, default=default,
                            help=f"{text} (default %(default)s)", **kwargs)


def build_job_or_exit(parser: argparse.ArgumentParser,
                      args: argparse.Namespace, kernel: str) -> KernelJob:
    """The job the parsed job flags describe; bad input exits 2 with the
    job builder's message before anything runs."""
    try:
        return build_job(kernel, args.npb_class, args.nprocs, args.nodes,
                         args.ppn, args.profile, args.connection, args.seed)
    except ValueError as exc:
        parser.error(str(exc))


def add_fan_out_flags(parser: argparse.ArgumentParser) -> None:
    """Declare the flags of a cached fan-out command."""
    parser.add_argument("--workers", type=positive_int, default=1,
                        help="parallel worker processes (default 1)")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory (default .bench-cache, "
                             "or $REPRO_BENCH_CACHE)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not populate the cache")
    parser.add_argument("--out-dir", default=".",
                        help="directory for the artifact (default .)")
    parser.add_argument("--replay", action="append", type=replay_spec,
                        default=[], metavar="NAME=FILE",
                        help="register a captured trace file as kernel NAME "
                             "(repeatable)")


def open_cache(args: argparse.Namespace) -> Optional[ResultCache]:
    return None if args.no_cache else ResultCache(
        args.cache_dir or default_cache_dir())


def report_progress(message: str) -> None:
    print(f"  {message}", file=sys.stderr)


def render_cache_stats(cache: ResultCache) -> str:
    """One-line hit/miss digest of a fan-out's cache traffic.

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
    raise KeyboardInterrupt


def run_resumable(command: str, cache: Optional[ResultCache],
                  work: Callable[[], T]) -> Optional[T]:
    """``work()``, or None once SIGINT or SIGTERM stopped it.

    SIGTERM joins SIGINT's ``KeyboardInterrupt`` unwind: in-flight cells
    are abandoned (the fan-out closes its pool with ``abort``, and the
    workers, which keep default signal handling, die of the SIGTERM it
    sends), completed cells are already on disk through the cache's
    atomic writes, and re-running the same command resumes.
    """
    try:
        previous = signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
    except ValueError:  # not the main thread (e.g. driven from a test rig)
        previous = None
    try:
        return work()
    except KeyboardInterrupt:
        print(f"\n{command} interrupted — completed cells remain cached; "
              "re-run the same command to resume", file=sys.stderr)
        if cache is not None:
            print(render_cache_stats(cache), file=sys.stderr)
        return None
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
