"""Parallel cell runner with content-addressed result caching.

A :class:`SweepMatrix` declares an experiment grid — kernel × nprocs ×
connection mechanism × seed on one cluster shape — and expands it into
:class:`SweepCell` objects (invalid combinations, e.g. client/server on
Berkeley VIA, are skipped at expansion).  :func:`fan_out` is the one
cached loop every fan-out command runs its cells through: the sweep's
through :func:`compute_cell`, the cluster command's through
:func:`compute_cluster_cell` (the ``repro.service`` worker pool calls
the same two entries).  It consults a
:class:`~repro.bench.cache.ResultCache` first so re-runs and resumed
partially-failed runs only compute what is missing.

The merged artifact is byte-deterministic: cells are ordered by their
configuration fingerprint, JSON keys are sorted, and per-cell host
wall-time (the one nondeterministic measurement) is recorded once at
first computation and *preserved by the cache*, so a second invocation
writes an identical ``BENCH_<name>.json``.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.cache import ResultCache, canonical_json, config_fingerprint
from repro.bench.clock import now_s
from repro.cluster.job import run_kernel_cell
from repro.cluster.sched import run_cluster_cell
from repro.mpi.conn import runs_on
from repro.via.profiles import profile_by_name

#: connection mechanisms in sweep order
ALL_CONNECTIONS = ("ondemand", "static-p2p", "static-cs")


@dataclass(frozen=True)
class SweepCell:
    """One point of the sweep grid: a fully specified simulated job."""

    kernel: str
    npb_class: str
    nprocs: int
    nodes: int
    ppn: int
    profile: str
    connection: str
    seed: int
    #: trace-replay cells: file to load and its content digest
    trace_path: Optional[str] = None
    trace_sha: Optional[str] = None

    def config_dict(self) -> Dict[str, Any]:
        """JSON-able configuration (everything but the seed, which the
        cache fingerprints separately).  The trace *path* is excluded —
        identity follows the trace content (``trace_sha``), so moving a
        trace file never invalidates the cache; plain cells omit both
        keys, keeping their historical fingerprints."""
        cfg = dataclasses.asdict(self)
        del cfg["seed"]
        del cfg["trace_path"]
        if cfg["trace_sha"] is None:
            del cfg["trace_sha"]
        return cfg

    def key(self) -> str:
        """Content-addressed cache key for this cell."""
        return config_fingerprint(self.config_dict(), seed=self.seed)

    @property
    def label(self) -> str:
        return (
            f"{self.kernel}.{self.npb_class}/np={self.nprocs}/"
            f"{self.connection}/{self.profile}/seed={self.seed}"
        )


@dataclass(frozen=True)
class SweepMatrix:
    """Declarative sweep: the cross product of the axes below."""

    name: str
    kernels: Tuple[str, ...] = ("cg",)
    npb_class: str = "S"
    nprocs: Tuple[int, ...] = (4, 8)
    connections: Tuple[str, ...] = ("ondemand", "static-p2p")
    seeds: Tuple[int, ...] = (0,)
    nodes: int = 8
    ppn: int = 1
    profile: str = "clan"
    #: captured-trace kernels: (kernel name, trace file path) pairs; the
    #: named kernels sweep like any other (list them in ``kernels``)
    traces: Tuple[Tuple[str, str], ...] = ()

    def cells(self) -> List[SweepCell]:
        """Expand the grid in deterministic order, skipping combinations
        the simulated hardware cannot run (mirrors the paper's testbed
        limits rather than failing mid-sweep)."""
        trace_info = {name: _trace_cell_info(path)
                      for name, path in self.traces}
        profile = profile_by_name(self.profile)
        out: List[SweepCell] = []
        for kernel in self.kernels:
            trace = trace_info.get(kernel)
            for np_ in self.nprocs:
                for conn in self.connections:
                    for seed in self.seeds:
                        if np_ > self.nodes * self.ppn:
                            continue
                        if not runs_on(conn, profile) or (
                            self.profile == "berkeley" and np_ > self.nodes
                        ):
                            continue
                        if trace is not None and np_ != trace["nprocs"]:
                            # a replay only runs at its capture size
                            continue
                        out.append(
                            SweepCell(
                                kernel=kernel, npb_class=self.npb_class,
                                nprocs=np_, nodes=self.nodes, ppn=self.ppn,
                                profile=self.profile, connection=conn,
                                seed=seed,
                                trace_path=None if trace is None
                                else trace["path"],
                                trace_sha=None if trace is None
                                else trace["sha"],
                            )
                        )
        return out

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


#: built-in matrices for the CLI; "mini" is the acceptance-criteria
#: sweep (4 comparable-duration CG cells — parallel speedup is visible
#: because no single cell dominates the critical path)
MATRICES: Dict[str, SweepMatrix] = {
    "mini": SweepMatrix(name="mini"),
    "smoke": SweepMatrix(
        name="smoke", kernels=("cg", "is"), nprocs=(2, 4),
        connections=("ondemand", "static-p2p"), nodes=4,
    ),
    "paper": SweepMatrix(
        name="paper",
        kernels=("cg", "ep", "ft", "is", "lu", "mg", "sp"),
        nprocs=(4, 8, 16),
        connections=ALL_CONNECTIONS,
        nodes=8, ppn=2,
    ),
}


def _trace_cell_info(path: str) -> Dict[str, Any]:
    """Peek a trace file for sweep expansion: content sha + rank count.

    Only the header line is parsed (cheap); full validation happens in
    the worker via :func:`repro.workloads.trace.load_trace`.
    """
    import hashlib
    import json as _json

    from repro.workloads.trace import TraceFormatError

    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace {path!r}: {exc}") from exc
    first = data.split(b"\n", 1)[0]
    try:
        header = _json.loads(first)
        nprocs = int(header["nprocs"])
    except (ValueError, KeyError, TypeError) as exc:
        raise TraceFormatError(
            f"trace {path!r} has no parseable header") from exc
    return {
        "path": path,
        "sha": hashlib.sha256(data).hexdigest(),
        "nprocs": nprocs,
    }


def matrix_from_dict(doc: Dict[str, Any]) -> SweepMatrix:
    """Rebuild a :class:`SweepMatrix` from its JSON form.

    The inverse of :meth:`SweepMatrix.to_dict` modulo list/tuple: JSON
    has no tuples, so sequence fields are re-tupled here.  This is the
    deserialization boundary of ``repro.service`` sweep requests —
    unknown keys raise so a typo'd request fails loudly instead of
    silently sweeping the default matrix.
    """
    known = {f.name for f in dataclasses.fields(SweepMatrix)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValueError(f"unknown sweep matrix fields: {unknown}")
    if "name" not in doc:
        raise ValueError("sweep matrix needs a 'name'")
    kwargs: Dict[str, Any] = dict(doc)
    for field_name in ("kernels", "connections"):
        if field_name in kwargs:
            kwargs[field_name] = tuple(str(k) for k in kwargs[field_name])
    for field_name in ("nprocs", "seeds"):
        if field_name in kwargs:
            kwargs[field_name] = tuple(int(v) for v in kwargs[field_name])
    if "traces" in kwargs:
        kwargs["traces"] = tuple(
            (str(n), str(p)) for n, p in kwargs["traces"])
    return SweepMatrix(**kwargs)


def compute_cell(params: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """Pool entry: compute one cell and time it.

    Top level (picklable under spawn and fork).  Returns ``(key,
    result)`` so the parent can merge out-of-order completions.  Host
    wall-clock is operator-facing measurement *about* the simulator,
    never fed back into it.  Shared by :class:`SweepRunner` and the
    ``repro.service`` worker pool — both feed it the dict shape built
    by :func:`cell_params`.
    """
    key = params["key"]
    started = now_s()
    metrics = run_kernel_cell(
        kernel=params["kernel"], npb_class=params["npb_class"],
        nprocs=params["nprocs"], nodes=params["nodes"], ppn=params["ppn"],
        profile=params["profile"], connection=params["connection"],
        seed=params["seed"],
        trace_path=params.get("trace_path"),
    )
    wall_s = now_s() - started
    metrics["wall_s"] = round(wall_s, 6)
    metrics["events_per_sec"] = round(metrics["events"] / wall_s, 1)
    return key, metrics


def cell_params(cell: SweepCell) -> Dict[str, Any]:
    """The picklable parameter dict :func:`compute_cell` expects."""
    return {"key": cell.key(), **dataclasses.asdict(cell)}


def cluster_cell_config(
    *,
    connection: str,
    nodes: int = 4,
    ppn: int = 2,
    profile: str = "clan",
    vi_quota: Optional[int] = 4,
    policy: str = "fcfs",
    placement: str = "spread",
    njobs: int = 8,
    mean_interarrival_us: float = 1500.0,
    kernels: Tuple[str, ...] = ("ring", "allreduce"),
    nprocs_choices: Tuple[int, ...] = (4,),
    trace_shas: Tuple[Tuple[str, str], ...] = (),
) -> Dict[str, Any]:
    """The JSON-able config of one cluster mechanism cell (its cache
    identity).

    Plain-parameter form shared by the ``cluster`` command and
    ``repro.service`` cluster requests, so a scenario submitted to the
    server hashes to the *same* fingerprint as the direct CLI invocation
    and the two share cache entries.  Replay cells carry the trace
    *digests* (content identity) rather than paths; plain cells omit the
    key entirely so historical fingerprints and artifacts are unchanged.
    """
    config: Dict[str, Any] = {
        "experiment": "cluster",
        "nodes": nodes,
        "ppn": ppn,
        "profile": profile,
        "vi_quota": vi_quota,
        "policy": policy,
        "placement": placement,
        "connection": connection,
        "njobs": njobs,
        "mean_interarrival_us": mean_interarrival_us,
        "kernels": list(kernels),
        "nprocs_choices": list(nprocs_choices),
    }
    if trace_shas:
        config["trace_shas"] = dict(trace_shas)
    return config


def compute_cluster_cell(params: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """Pool entry: compute one cluster mechanism cell and time it.

    The cluster twin of :func:`compute_cell`, shared by the ``cluster``
    command and the ``repro.service`` worker pool; ``params`` is
    ``{"key", "config", "seed", "trace_paths"?}`` with ``config`` shaped
    by :func:`cluster_cell_config`.
    """
    cfg = params["config"]
    started = now_s()
    report = run_cluster_cell(
        nodes=cfg["nodes"], ppn=cfg["ppn"], profile=cfg["profile"],
        vi_quota=cfg["vi_quota"], policy=cfg["policy"],
        placement=cfg["placement"], connection=cfg["connection"],
        njobs=cfg["njobs"],
        mean_interarrival_us=cfg["mean_interarrival_us"],
        kernels=tuple(cfg["kernels"]),
        nprocs_choices=tuple(cfg["nprocs_choices"]),
        seed=params["seed"],
        trace_paths=tuple(params.get("trace_paths") or ()),
    )
    report["wall_s"] = round(now_s() - started, 6)
    return params["key"], report


def fan_out(
    compute: Callable[[Dict[str, Any]], Tuple[str, Dict[str, Any]]],
    cells: Sequence[Tuple[str, Dict[str, Any]]],
    workers: int,
    cache: Optional[ResultCache],
    progress: Callable[[str], None],
) -> Tuple[Dict[str, Dict[str, Any]], int]:
    """Run ``(label, params)`` cells through a cache; return the results
    by key and how many were computed.

    Each cell's ``params["key"]`` is probed in ``cache`` first; the
    misses run through ``compute`` (a top-level, picklable pool entry
    returning ``(key, result)``), in this process or on ``workers``
    processes.  Each result is put as it completes, not at the end,
    which is what makes an interrupted or partially failed run
    resumable: finished cells survive.
    """
    results: Dict[str, Dict[str, Any]] = {}
    labels: Dict[str, str] = {}
    misses: List[Dict[str, Any]] = []
    for label, params in cells:
        hit = None if cache is None else cache.get(params["key"])
        if hit is not None:
            results[params["key"]] = hit
            progress(f"cache hit  {label}")
        else:
            labels[params["key"]] = label
            misses.append(params)
    parallel = workers > 1 and len(misses) > 1
    with (multiprocessing.Pool(min(workers, len(misses))) if parallel
          else nullcontext()) as pool:
        completions = (pool.imap_unordered(compute, misses) if parallel
                       else map(compute, misses))
        for key, result in completions:
            results[key] = result
            if cache is not None:
                cache.put(key, result)
            progress(f"computed   {labels[key]}  "
                     f"[{result['wall_s']:.2f}s wall]")
    return results, len(misses)


@dataclass
class SweepOutcome:
    """Everything one sweep run produced."""

    matrix: SweepMatrix
    #: (cell, result) in deterministic (fingerprint-sorted) order
    results: List[Tuple[SweepCell, Dict[str, Any]]]
    computed: int
    cached: int


class SweepRunner:
    """Fan a :class:`SweepMatrix` out over worker processes, with caching."""

    def __init__(
        self,
        matrix: SweepMatrix,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        progress: Optional[Callable[[str], None]] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.matrix = matrix
        self.workers = workers
        self.cache = cache
        self._progress = progress or (lambda _msg: None)

    def run(self) -> SweepOutcome:
        cells = self.matrix.cells()
        if not cells:
            raise ValueError(f"sweep matrix {self.matrix.name!r} expands to 0 cells")
        params = [cell_params(cell) for cell in cells]
        results, computed = fan_out(
            compute_cell, [(cell.label, p) for cell, p in zip(cells, params)],
            self.workers, self.cache, self._progress)
        cell_by_key = {p["key"]: cell for cell, p in zip(cells, params)}
        return SweepOutcome(
            matrix=self.matrix,
            results=[(cell_by_key[k], results[k]) for k in sorted(results)],
            computed=computed,
            cached=len(cells) - computed,
        )


def bench_artifact(outcome: SweepOutcome) -> Dict[str, Any]:
    """The ``BENCH_<name>.json`` document for one sweep outcome.

    Deterministic by construction: no timestamps, no hit/miss flags
    (those differ between a cold and a warm run of the same sweep),
    cells sorted by fingerprint, wall-times carried through the cache.
    """
    return {
        "bench": outcome.matrix.name,
        "schema": 2,
        "matrix": outcome.matrix.to_dict(),
        "cells": [
            {"key": cell.key(), "config": {**cell.config_dict(), "seed": cell.seed},
             "result": result}
            for cell, result in outcome.results
        ],
    }


def artifact_text(doc: Dict[str, Any]) -> str:
    """The canonical on-disk serialization of a bench/cluster artifact.

    Sorted keys + fixed separators + trailing newline = reproducible
    bytes.  Every artifact writer (sweep CLI, cluster CLI, service
    ``fetch``) goes through this one function, which is what makes
    ``cmp`` equivalence between the service and the direct CLIs hold.
    """
    return json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def write_bench_json(outcome: SweepOutcome, out_dir: os.PathLike | str = ".") -> Path:
    """Write ``BENCH_<name>.json`` (byte-deterministic) and return its path."""
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    path = Path(out_dir) / f"BENCH_{outcome.matrix.name}.json"
    path.write_text(artifact_text(bench_artifact(outcome)), encoding="utf-8")
    return path


def default_cache_dir() -> Path:
    """Default on-disk cache location (override with REPRO_BENCH_CACHE)."""
    env = os.environ.get("REPRO_BENCH_CACHE")
    return Path(env) if env else Path(".bench-cache")


__all__ = [
    "ALL_CONNECTIONS",
    "MATRICES",
    "ResultCache",
    "SweepCell",
    "SweepMatrix",
    "SweepOutcome",
    "SweepRunner",
    "artifact_text",
    "bench_artifact",
    "canonical_json",
    "cell_params",
    "cluster_cell_config",
    "compute_cell",
    "compute_cluster_cell",
    "default_cache_dir",
    "fan_out",
    "matrix_from_dict",
    "write_bench_json",
]
