"""Communication-graph data model for the static comm analyzer.

The abstract interpreter in :mod:`repro.analysis.interp` replays a kernel
generator for every class of ranks and records the communication operations
it can see syntactically; :mod:`repro.analysis.comm` folds those event
streams into a :class:`CommGraph` — per-rank destination sets, message-size
bounds, collective footprints — plus typed ``REPROC*`` diagnostics.

The graph is deliberately *connection-oriented*: ``peers[r]`` is the set of
ranks rank ``r`` needs a VI to (symmetric closure of the message edges, since
the VIA peer-to-peer handshake requires both endpoints to request), which is
exactly what the ``predicted`` connection mechanism pre-establishes during
``MPI_Init`` and what VI-quota admission charges against.  Self-sends never
touch the connection layer (the ADI short-circuits them MPICH-style), so
self-edges are excluded from ``peers``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Union

__all__ = [
    "REPROC_RULES",
    "CommDiagnostic",
    "MsgEvent",
    "CollEvent",
    "Event",
    "EdgeStat",
    "CommGraph",
]

#: Catalogue of comm-analyzer diagnostic codes (mirrors the lint RULES dict).
REPROC_RULES: Dict[str, str] = {
    "REPROC01": "unmatched send/recv pair (send never consumed or recv never satisfied)",
    "REPROC02": "wait-for deadlock cycle between ranks",
    "REPROC03": "rank expression out of range for the analyzed nprocs",
    "REPROC04": "unresolvable (dynamic) destination: conservative full-mesh widening applied",
}


@dataclass(frozen=True)
class CommDiagnostic:
    """One typed finding from the comm analyzer."""

    code: str
    message: str
    rank: Optional[int] = None
    line: Optional[int] = None

    def format(self) -> str:
        where = "" if self.rank is None else f" [rank {self.rank}]"
        at = "" if self.line is None else f" (line {self.line})"
        return f"{self.code}{where}: {self.message}{at}"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "message": self.message,
            "rank": self.rank,
            "line": self.line,
        }


class MsgEvent(NamedTuple):
    """A point-to-point endpoint operation observed for one rank.

    ``peer`` is the concrete partner rank when the analyzer could evaluate the
    destination/source expression, ``None`` when it could not (REPROC04).
    ``wildcard`` marks a receive posted with ``ANY_SOURCE`` — not a
    diagnostic, but it widens the receiver's connection set the same way the
    on-demand manager's MVICH §3.5 rule does at runtime.  ``certain`` is False
    for events recorded under an unresolvable branch or loop condition; such
    events still contribute edges (soundness) but disable the strict
    send/recv matching simulation (REPROC01/02).  Events are tuples, so
    the graph builder counts repeated ones by value at C speed.
    """

    op: str  # "send" | "recv" | "probe"
    peer: Optional[int]
    wildcard: bool
    tag: Optional[int]
    nbytes: Optional[int]
    certain: bool
    line: Optional[int]


class CollEvent(NamedTuple):
    """A collective call observed for one rank (expanded later into the exact
    per-round point-to-point footprint of ``repro.mpi.collectives``)."""

    kind: str
    root: Optional[int]
    nbytes: Optional[int]
    certain: bool
    line: Optional[int]


Event = Union[MsgEvent, CollEvent]


@dataclass(frozen=True)
class EdgeStat:
    """Directed message-edge statistics: ``src`` sends to ``dst``."""

    src: int
    dst: int
    count: int
    min_bytes: Optional[int]
    max_bytes: Optional[int]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "src": self.src,
            "dst": self.dst,
            "count": self.count,
            "min_bytes": self.min_bytes,
            "max_bytes": self.max_bytes,
        }


@dataclass(frozen=True)
class CommGraph:
    """The statically predicted communication graph of one kernel cell."""

    kernel: str
    nprocs: int
    params: Dict[str, Any] = field(default_factory=dict)
    #: symmetric connection peers per rank (what ``predicted`` pre-connects)
    peers: Tuple[Tuple[int, ...], ...] = ()
    #: directed message destinations per rank (collectives expanded)
    send_dests: Tuple[Tuple[int, ...], ...] = ()
    edges: Tuple[EdgeStat, ...] = ()
    #: per-kind collective call counts (rank 0's view)
    collectives: Dict[str, int] = field(default_factory=dict)
    diagnostics: Tuple[CommDiagnostic, ...] = ()
    widened_ranks: Tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    @property
    def max_degree(self) -> int:
        return max((len(p) for p in self.peers), default=0)

    @property
    def avg_degree(self) -> float:
        if not self.peers:
            return 0.0
        return sum(len(p) for p in self.peers) / len(self.peers)

    def vi_demand(self) -> int:
        """VIs per process the graph proves sufficient (max degree)."""
        return self.max_degree

    def as_dict(self) -> Dict[str, Any]:
        return {
            "version": 1,
            "kernel": self.kernel,
            "nprocs": self.nprocs,
            "params": dict(sorted(self.params.items())),
            "peers": [list(p) for p in self.peers],
            "send_dests": [list(d) for d in self.send_dests],
            "edges": [e.as_dict() for e in self.edges],
            "collectives": dict(sorted(self.collectives.items())),
            "max_degree": self.max_degree,
            "avg_degree": round(self.avg_degree, 4),
            "widened_ranks": list(self.widened_ranks),
            "diagnostics": [d.as_dict() for d in self.diagnostics],
            "ok": self.ok,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=False)

    def summary_lines(self) -> List[str]:
        lines = [
            f"kernel={self.kernel} nprocs={self.nprocs} "
            f"max_degree={self.max_degree} avg_degree={self.avg_degree:.2f}",
        ]
        if self.widened_ranks:
            lines.append(
                "widened ranks (full mesh): "
                + ", ".join(str(r) for r in self.widened_ranks)
            )
        for diag in self.diagnostics:
            lines.append(diag.format())
        return lines
