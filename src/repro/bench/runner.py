"""Parallel sweep runner with content-addressed result caching.

A :class:`SweepMatrix` declares an experiment grid — kernel × nprocs ×
connection mechanism × seed on one cluster shape — and expands it into
:class:`SweepCell` objects (invalid combinations, e.g. client/server on
Berkeley VIA, are skipped at expansion).  :class:`SweepRunner` fans the
cells out across ``multiprocessing`` workers through the worker-safe
entry :func:`repro.cluster.job.run_kernel_cell`, consulting a
:class:`~repro.bench.cache.ResultCache` first so re-runs and resumed
partially-failed sweeps only compute what is missing.

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
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.cache import ResultCache, canonical_json, config_fingerprint
from repro.cluster.job import run_kernel_cell
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
    started = time.perf_counter()  # repro: allow[REPRO001]
    metrics = run_kernel_cell(
        kernel=params["kernel"], npb_class=params["npb_class"],
        nprocs=params["nprocs"], nodes=params["nodes"], ppn=params["ppn"],
        profile=params["profile"], connection=params["connection"],
        seed=params["seed"],
        trace_path=params.get("trace_path"),
    )
    wall_s = time.perf_counter() - started  # repro: allow[REPRO001]
    metrics["wall_s"] = round(wall_s, 6)
    metrics["events_per_sec"] = round(metrics["events"] / wall_s, 1)
    return key, metrics


def cell_params(cell: SweepCell) -> Dict[str, Any]:
    """The picklable parameter dict :func:`compute_cell` expects."""
    return {"key": cell.key(), **dataclasses.asdict(cell)}


@dataclass
class SweepOutcome:
    """Everything one sweep run produced."""

    matrix: SweepMatrix
    #: (cell, result) in deterministic (fingerprint-sorted) order
    results: List[Tuple[SweepCell, Dict[str, Any]]]
    computed: int
    cached: int

    @property
    def total_wall_s(self) -> float:
        return sum(r["wall_s"] for _, r in self.results)


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
        keyed = [(cell.key(), cell) for cell in cells]
        results: Dict[str, Dict[str, Any]] = {}

        misses: List[Dict[str, Any]] = []
        for key, cell in keyed:
            hit = None if self.cache is None else self.cache.get(key)
            if hit is not None:
                results[key] = hit
                self._progress(f"cache hit  {cell.label}")
            else:
                misses.append({"key": key, **dataclasses.asdict(cell)})

        if misses:
            by_key = {params["key"]: params for params in misses}
            if self.workers == 1 or len(misses) == 1:
                completions = map(compute_cell, misses)
                for key, metrics in completions:
                    self._on_computed(key, by_key[key], metrics, results)
            else:
                with multiprocessing.Pool(min(self.workers, len(misses))) as pool:
                    for key, metrics in pool.imap_unordered(
                        compute_cell, misses
                    ):
                        self._on_computed(key, by_key[key], metrics, results)

        cell_by_key = dict(keyed)
        ordered = sorted(results)
        return SweepOutcome(
            matrix=self.matrix,
            results=[(cell_by_key[k], results[k]) for k in ordered],
            computed=len(misses),
            cached=len(cells) - len(misses),
        )

    def _on_computed(
        self,
        key: str,
        params: Dict[str, Any],
        metrics: Dict[str, Any],
        results: Dict[str, Dict[str, Any]],
    ) -> None:
        results[key] = metrics
        if self.cache is not None:
            # persisting immediately (not at sweep end) is what makes a
            # partially-failed sweep resumable: finished cells survive
            self.cache.put(key, metrics)
        self._progress(
            f"computed   {params['kernel']}.{params['npb_class']}"
            f"/np={params['nprocs']}/{params['connection']}"
            f"/seed={params['seed']}  [{metrics['wall_s']:.2f}s wall]"
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
    "compute_cell",
    "default_cache_dir",
    "matrix_from_dict",
    "write_bench_json",
]
