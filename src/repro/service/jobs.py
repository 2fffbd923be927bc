"""Request normalization and worker-pool entries for the job server.

Every wire request is normalized into a :class:`JobRequest`: a typed
kind, a content-addressed identity (``key``), and a plain picklable
parameter dict for the worker pool.  Normalization is where requests
fail fast — unknown kernels, connections, or request fields raise a
typed :class:`~repro.service.protocol.RequestError` at submit time
instead of poisoning a pool worker.

The compute entries are the *same* top-level functions the CLIs use
(:func:`repro.bench.runner.compute_cell`,
:func:`repro.bench.runner.compute_cluster_cell`), so a request
submitted to the server produces byte-for-byte the result the direct
CLI would have cached, under the same SHA-256 identity.

Request types::

    {"type": "kernel", "kernel": "cg", "nprocs": 4, ...}   one sweep cell
    {"type": "sweep", "matrix": {"name": ..., ...}}        a whole matrix
    {"type": "cluster", "connection": "ondemand", ...}     one scheduler cell
    {"type": "noop", "duration_ms": 100, "nonce": "x"}     diagnostics/load

``noop`` exists for load tests and deterministic admission-control
tests: it occupies a worker for ``duration_ms`` host milliseconds,
computes nothing, and is never written to the result cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from repro.bench.cache import config_fingerprint
from repro.bench.runner import (
    SweepCell,
    cell_params,
    cluster_cell_config,
    compute_cell,
    compute_cluster_cell,
    matrix_from_dict,
)
from repro.cluster.sched import PLACEMENTS, POLICIES
from repro.mpi.config import CONNECTION_MODES
from repro.service.protocol import RequestError
from repro.via.profiles import PROFILE_NAMES

KIND_KERNEL = "kernel"
KIND_SWEEP = "sweep"
KIND_CLUSTER = "cluster"
KIND_NOOP = "noop"


@dataclass(frozen=True)
class JobRequest:
    """One normalized, admissible unit of service work."""

    kind: str
    #: content-addressed job id (doubles as the result-cache key)
    key: str
    #: human-readable label for progress events and reports
    label: str
    #: picklable payload for the pool entry (empty for sweeps)
    params: Dict[str, Any] = field(default_factory=dict)
    #: whether the result may be persisted in the ResultCache
    cacheable: bool = True


#: kind -> top-level picklable pool entry ``fn(params) -> (key, result)``
def compute_noop(params: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """Diagnostic pool entry: hold a worker for ``duration_ms``."""
    duration_ms = float(params.get("duration_ms", 0.0))
    if duration_ms > 0:
        time.sleep(duration_ms / 1000.0)
    return params["key"], {
        "noop": True,
        "duration_ms": duration_ms,
        "nonce": params.get("nonce", ""),
    }


COMPUTE_FNS = {
    KIND_KERNEL: compute_cell,
    KIND_CLUSTER: compute_cluster_cell,
    KIND_NOOP: compute_noop,
}


#: every key a request of that type may carry; anything else is a typed
#: error, so a typo'd ``"nproc"`` never silently runs the default size
KERNEL_FIELDS = frozenset({
    "type", "kernel", "npb_class", "nprocs", "nodes", "ppn", "profile",
    "connection", "seed",
})
CLUSTER_FIELDS = frozenset({
    "type", "connection", "seed", "nodes", "ppn", "profile", "vi_quota",
    "policy", "placement", "njobs", "mean_interarrival_us", "kernels",
    "nprocs_choices",
})


def _require(doc: Dict[str, Any], name: str) -> Any:
    if name not in doc:
        raise RequestError(f"{doc.get('type', '?')} request needs {name!r}")
    return doc[name]


def _reject_unknown(doc: Dict[str, Any], fields: frozenset) -> None:
    unknown = sorted(set(doc) - fields)
    if unknown:
        raise RequestError(
            f"unknown {doc.get('type', '?')} request fields: {unknown}")


def kernel_request_cell(doc: Dict[str, Any]) -> SweepCell:
    """Build (and validate) the :class:`SweepCell` a kernel request names."""
    from repro.workloads.registry import KERNEL_DEFS

    _reject_unknown(doc, KERNEL_FIELDS)
    kernel = str(_require(doc, "kernel"))
    if kernel not in KERNEL_DEFS:
        raise RequestError(
            f"unknown kernel {kernel!r}; available: {sorted(KERNEL_DEFS)}")
    connection = str(doc.get("connection", "ondemand"))
    if connection not in CONNECTION_MODES:
        raise RequestError(
            f"unknown connection {connection!r}; "
            f"available: {list(CONNECTION_MODES)}")
    try:
        cell = SweepCell(
            kernel=kernel,
            npb_class=str(doc.get("npb_class", "S")),
            nprocs=int(doc.get("nprocs", 4)),
            nodes=int(doc.get("nodes", 8)),
            ppn=int(doc.get("ppn", 1)),
            profile=str(doc.get("profile", "clan")),
            connection=connection,
            seed=int(doc.get("seed", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise RequestError(f"bad kernel request: {exc}") from exc
    if cell.profile not in PROFILE_NAMES:
        raise RequestError(f"unknown profile {cell.profile!r}")
    if cell.nprocs < 1 or cell.nodes < 1 or cell.ppn < 1:
        raise RequestError("kernel request sizes must be >= 1")
    if cell.nprocs > cell.nodes * cell.ppn:
        raise RequestError(
            f"nprocs={cell.nprocs} exceeds nodes*ppn="
            f"{cell.nodes * cell.ppn}")
    return cell


def request_from_cell(cell: SweepCell) -> JobRequest:
    """The :class:`JobRequest` of one sweep cell (shared by direct
    kernel submissions and sweep expansion — identical keys)."""
    return JobRequest(
        kind=KIND_KERNEL, key=cell.key(), label=cell.label,
        params=cell_params(cell),
    )


def sweep_request_matrix(doc: Dict[str, Any]):
    """Build (and validate) the matrix a sweep request names.

    Returns ``(matrix, cells)`` so callers never re-expand (expansion
    may stat replay trace files).
    """
    matrix_doc = _require(doc, "matrix")
    if not isinstance(matrix_doc, dict):
        raise RequestError("sweep 'matrix' must be an object")
    try:
        matrix = matrix_from_dict(matrix_doc)
        cells = matrix.cells()
    except (TypeError, ValueError, KeyError, OSError) as exc:
        raise RequestError(f"bad sweep matrix: {exc}") from exc
    if not cells:
        raise RequestError(
            f"sweep matrix {matrix.name!r} expands to 0 cells")
    return matrix, cells


def normalize_request(doc: Any) -> JobRequest:
    """Wire request -> :class:`JobRequest`; typed RequestError on junk."""
    if not isinstance(doc, dict):
        raise RequestError("submit 'request' must be a JSON object")
    kind = doc.get("type")
    if kind == KIND_KERNEL:
        return request_from_cell(kernel_request_cell(doc))
    if kind == KIND_SWEEP:
        matrix, cells = sweep_request_matrix(doc)
        key = config_fingerprint(
            {"experiment": "service-sweep", "matrix": matrix.to_dict()},
            seed=0,
        )
        return JobRequest(
            kind=KIND_SWEEP, key=key,
            label=f"sweep:{matrix.name}[{len(cells)} cells]",
            params={"matrix": matrix.to_dict()},
        )
    if kind == KIND_CLUSTER:
        _reject_unknown(doc, CLUSTER_FIELDS)
        connection = str(doc.get("connection", "ondemand"))
        if connection not in CONNECTION_MODES:
            raise RequestError(
                f"unknown connection {connection!r}; "
                f"available: {list(CONNECTION_MODES)}")
        seed = int(doc.get("seed", 0))
        try:
            config = cluster_cell_config(
                connection=connection,
                nodes=int(doc.get("nodes", 4)),
                ppn=int(doc.get("ppn", 2)),
                profile=str(doc.get("profile", "clan")),
                vi_quota=(None if doc.get("vi_quota", 4) is None
                          else int(doc.get("vi_quota", 4))),
                policy=str(doc.get("policy", "fcfs")),
                placement=str(doc.get("placement", "spread")),
                njobs=int(doc.get("njobs", 8)),
                mean_interarrival_us=float(
                    doc.get("mean_interarrival_us", 1500.0)),
                kernels=tuple(str(k) for k in doc.get(
                    "kernels", ("ring", "allreduce"))),
                nprocs_choices=tuple(int(v) for v in doc.get(
                    "nprocs_choices", (4,))),
            )
        except (TypeError, ValueError) as exc:
            raise RequestError(f"bad cluster request: {exc}") from exc
        if config["policy"] not in POLICIES:
            raise RequestError(f"unknown policy {config['policy']!r}")
        if config["placement"] not in PLACEMENTS:
            raise RequestError(
                f"unknown placement {config['placement']!r}")
        key = config_fingerprint(config, seed=seed)
        return JobRequest(
            kind=KIND_CLUSTER, key=key,
            label=f"cluster:{connection}/njobs={config['njobs']}/seed={seed}",
            params={"key": key, "config": config, "seed": seed,
                    "trace_paths": ()},
        )
    if kind == KIND_NOOP:
        duration_ms = float(doc.get("duration_ms", 0.0))
        if duration_ms < 0 or duration_ms > 60_000:
            raise RequestError("noop duration_ms must be in [0, 60000]")
        nonce = str(doc.get("nonce", ""))
        key = config_fingerprint(
            {"experiment": "service-noop", "duration_ms": duration_ms,
             "nonce": nonce},
            seed=0,
        )
        return JobRequest(
            kind=KIND_NOOP, key=key, label=f"noop:{nonce or key[:8]}",
            params={"key": key, "duration_ms": duration_ms, "nonce": nonce},
            cacheable=False,
        )
    raise RequestError(
        f"unknown request type {kind!r}; "
        f"expected one of: kernel, sweep, cluster, noop")
