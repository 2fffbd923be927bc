"""The per-rank graph builder and matcher: the oracle for
:mod:`repro.analysis.comm`.

The analyzer builds the graph and simulates message matching on the
event streams of rank *classes*, applies repeated collective instances
with a multiplicity and memoises their footprints.  This module is the
plain version of the same contract, kept as it was before that: every
rank's events expanded into a list of their own, every collective
instance expanded into its per-rank sub-operations, one
``add_edge`` per message, and the matching simulation over flat
per-rank op lists.  ``tests/test_comm_oracle.py`` asserts both give the
same :meth:`CommGraph.as_dict`, diagnostics included.

Interpretation is shared (:func:`repro.analysis.comm._rank_classes`):
what is compared is what happens to the streams after it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis import comm
from repro.analysis.commgraph import (
    CollEvent,
    CommDiagnostic,
    CommGraph,
    EdgeStat,
    Event,
)
from repro.analysis.comm import coll_footprint
from repro.analysis.interp import Ranked
from repro.workloads.registry import KernelDef, kernel_def
from repro.workloads.trace import CommTrace


# ------------------------------------------------------------------------
# per-rank expansion of the class streams
# ------------------------------------------------------------------------

def rank_streams(classes: Sequence[comm.RankClass], nprocs: int
                 ) -> List[List[Event]]:
    """Every rank's own event list: its class's stream with each
    :class:`Ranked` event resolved for the rank (an arm's None left
    out)."""
    out: List[List[Event]] = [[] for _ in range(nprocs)]
    for members, events in classes:
        for p, rank in members:
            out[rank] = [event for event in [
                event.values[p] if type(event) is Ranked else event
                for event in events] if event is not None]
    return out


def rank_outcomes(spec: KernelDef, nprocs: int, npb_class: Optional[str],
                  extra_sources: Optional[Dict[str, str]] = None) -> List[Any]:
    """Every rank's own event list, or the error it stopped with, by
    rank."""
    classes, failed = comm._rank_classes(spec, nprocs, npb_class,
                                         extra_sources)
    outcomes: List[Any] = rank_streams(classes, nprocs)
    for rank, error in failed.items():
        outcomes[rank] = error
    return outcomes


def rank_events(spec: KernelDef, nprocs: int, npb_class: Optional[str],
                extra_sources: Optional[Dict[str, str]] = None
                ) -> List[List[Event]]:
    """Every rank's events; the error of the lowest failing rank."""
    outcomes = rank_outcomes(spec, nprocs, npb_class, extra_sources)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def analyze_kernel(kernel: str, nprocs: int, npb_class: str = "S"
                   ) -> CommGraph:
    defn = kernel_def(kernel)
    per_rank = rank_events(defn, nprocs,
                           npb_class if defn.npb_class_arg else None)
    params: Dict[str, Any] = dict(defn.kwargs)
    if defn.npb_class_arg:
        params["npb_class"] = npb_class
    return _build_graph(defn.name, nprocs, params, per_rank)


def analyze_source(source: str, factory: str, nprocs: int,
                   kwargs: Optional[Dict[str, Any]] = None,
                   module_name: str = "commtest",
                   kernel: str = "<source>") -> CommGraph:
    spec = KernelDef(name=kernel, module=module_name, factory=factory,
                     kwargs=tuple(sorted((kwargs or {}).items())))
    per_rank = rank_events(spec, nprocs, None,
                           extra_sources={module_name: source})
    return _build_graph(kernel, nprocs, dict(spec.kwargs), per_rank)


# ------------------------------------------------------------------------
# matching simulation (REPROC01 / REPROC02)
# ------------------------------------------------------------------------

#: one matchable op: (op, peer-or-None, tagkey-or-None, line)
_SimOp = Tuple[str, Optional[int], Any, Optional[int]]


def _sim_ops(events: Sequence[Event], rank: int, size: int) -> List[_SimOp]:
    """Flatten one rank's events for the matching simulation: collectives
    expand to their exact sub-ops with per-instance synthetic tags."""
    ops: List[_SimOp] = []
    coll_seq: Dict[str, int] = {}
    for event in events:
        if isinstance(event, CollEvent):
            index = coll_seq.get(event.kind, 0)
            coll_seq[event.kind] = index + 1
            foot = coll_footprint(event.kind, rank, size, event.root,
                                  event.nbytes)
            if foot is None:
                continue
            tag = ("coll", event.kind, index)
            for op, peer, _nb in foot:
                ops.append((op, peer, tag, event.line))
        elif event.op in ("send", "recv"):
            ops.append((event.op, None if event.wildcard else event.peer,
                        event.tag, event.line))
    return ops


def _matchable(fsrc: int, ftag: Any, src: Optional[int], tag: Any) -> bool:
    """Can the in-flight send ``(fsrc, ftag)`` satisfy a receive of
    ``(src, tag)`` (``None`` = any source / any tag)?"""
    if src is not None and fsrc != src:
        return False
    if tag is None:
        # ANY_TAG matches user tags only, never collective internals
        return not isinstance(ftag, tuple)
    # a send tag of None means "not statically known": assume it can
    # match rather than fabricate an unmatched pair
    return ftag is None or ftag == tag


def _take_send(keys: Dict[Tuple[int, Any], int],
               order: Dict[Tuple[int, int, Any], int],
               dst: int, src: Optional[int], tag: Any) -> bool:
    """Consume one of the sends in flight to ``dst`` (``keys``: its
    ``(src, tag) -> count`` table) for a receive of ``(src, tag)``: the
    matchable key that was first sent earliest, whatever its count."""
    if src is not None and tag is not None and (src, None) not in keys:
        # fully specified, no unknown-tag send from that source in
        # flight: the exact key is the only possible candidate
        key = (src, tag) if (src, tag) in keys else None
    else:
        key = min((k for k in keys if _matchable(k[0], k[1], src, tag)),
                  key=lambda k: order[k[0], dst, k[1]], default=None)
    if key is None:
        return False
    keys[key] -= 1
    if not keys[key]:
        del keys[key]
    return True


def _match_events(per_rank: Sequence[Sequence[Event]],
                  size: int) -> List[CommDiagnostic]:
    """Eagerly simulate message matching; report REPROC01/REPROC02."""
    ops = [_sim_ops(events, rank, size)
           for rank, events in enumerate(per_rank)]
    ptr = [0] * size
    # unreceived sends by destination: dst -> {(src, tag): count}.  A key
    # leaves its table when its count reaches zero, so a receive looks
    # only at what is in flight to its own rank.  A dict, not a list: an
    # out-of-range destination must still reach REPROC03.
    inbound: Dict[int, Dict[Tuple[int, Any], int]] = {}
    # first-send order of every (src, dst, tag) ever sent, kept for good:
    # the deterministic choice between several matchable keys
    order: Dict[Tuple[int, int, Any], int] = {}

    progressed = True
    while progressed:
        progressed = False
        for rank in range(size):
            while ptr[rank] < len(ops[rank]):
                op, peer, tag, _line = ops[rank][ptr[rank]]
                if op == "send":
                    if peer is None:
                        ptr[rank] += 1  # unknown dest: not matchable
                        continue
                    keys = inbound.setdefault(peer, {})
                    keys[rank, tag] = keys.get((rank, tag), 0) + 1
                    order.setdefault((rank, peer, tag), len(order))
                    ptr[rank] += 1
                    progressed = True
                    continue
                keys = inbound.get(rank)
                if keys and _take_send(keys, order, rank, peer, tag):
                    ptr[rank] += 1
                    progressed = True
                    continue
                break  # blocked

    diags: List[CommDiagnostic] = []
    stuck = [r for r in range(size) if ptr[r] < len(ops[r])]
    if stuck:
        waits: Dict[int, Optional[int]] = {}
        lines: Dict[int, Optional[int]] = {}
        for r in stuck:
            _op, peer, _tag, line = ops[r][ptr[r]]
            waits[r] = peer
            lines[r] = line
        cycle_ranks = _find_cycle(waits)
        if cycle_ranks:
            path = " -> ".join(str(r) for r in cycle_ranks)
            diags.append(CommDiagnostic(
                code="REPROC02",
                message=f"wait-for deadlock cycle: {path}",
                rank=cycle_ranks[0], line=lines.get(cycle_ranks[0])))
        for r in stuck:
            if cycle_ranks and r in cycle_ranks:
                continue
            peer = waits[r]
            who = "any source" if peer is None else f"rank {peer}"
            diags.append(CommDiagnostic(
                code="REPROC01",
                message=f"recv from {who} is never satisfied",
                rank=r, line=lines[r]))
    else:
        leftovers = {(src, dst) for dst, keys in inbound.items()
                     for src, _tag in keys}
        for src, dst in sorted(leftovers):
            diags.append(CommDiagnostic(
                code="REPROC01",
                message=f"send from rank {src} to rank {dst} "
                        "is never received",
                rank=src, line=None))
    return diags


def _find_cycle(waits: Dict[int, Optional[int]]) -> List[int]:
    """Smallest wait-for cycle (each rank waits on at most one peer)."""
    best: List[int] = []
    for start in sorted(waits):
        path = [start]
        seen = {start}
        current = waits.get(start)
        while current is not None and current in waits:
            if current in seen:
                if current == start and (not best or len(path) < len(best)):
                    best = list(path)
                break
            path.append(current)
            seen.add(current)
            current = waits.get(current)
    return best


# ------------------------------------------------------------------------
# graph construction
# ------------------------------------------------------------------------

def _build_graph(kernel: str, nprocs: int, params: Dict[str, Any],
                 per_rank: Sequence[List[Event]]) -> CommGraph:
    diags: List[CommDiagnostic] = []
    widened: Set[int] = set()
    all_certain = True
    # per-edge aggregates; None bytes means "size not statically known"
    edge_counts: Dict[Tuple[int, int], int] = {}
    edge_min: Dict[Tuple[int, int], Optional[int]] = {}
    edge_max: Dict[Tuple[int, int], Optional[int]] = {}
    peers: List[Set[int]] = [set() for _ in range(nprocs)]
    send_dests: List[Set[int]] = [set() for _ in range(nprocs)]
    collectives: Dict[str, int] = {}
    seen_r3: Set[Tuple[int, Optional[int]]] = set()
    seen_r4: Set[Tuple[int, Optional[int]]] = set()

    def add_edge(src: int, dst: int, nbytes: Optional[int]) -> None:
        key = (src, dst)
        count = edge_counts.get(key, 0)
        edge_counts[key] = count + 1
        if count == 0:
            edge_min[key] = nbytes
            edge_max[key] = nbytes
        else:
            lo, hi = edge_min[key], edge_max[key]
            # a message of unknown size poisons both bounds
            edge_min[key] = None if (nbytes is None or lo is None) \
                else min(lo, nbytes)
            edge_max[key] = None if (nbytes is None or hi is None) \
                else max(hi, nbytes)

    def widen(rank: int, line: Optional[int], why: str,
              diagnostic: bool) -> None:
        if diagnostic and (rank, line) not in seen_r4:
            seen_r4.add((rank, line))
            diags.append(CommDiagnostic(
                code="REPROC04", message=why, rank=rank, line=line))
        widened.add(rank)

    def out_of_range(rank: int, event: Event, what: str) -> None:
        if (rank, event.line) not in seen_r3:
            seen_r3.add((rank, event.line))
            qualifier = "" if event.certain else "conditionally "
            diags.append(CommDiagnostic(
                code="REPROC03",
                message=f"{what}, {qualifier}out of range for "
                        f"nprocs={nprocs}",
                rank=rank, line=event.line))

    for rank, events in enumerate(per_rank):
        for event in events:
            if not event.certain:
                all_certain = False
            if isinstance(event, CollEvent):
                if rank == 0:
                    collectives[event.kind] = \
                        collectives.get(event.kind, 0) + 1
                if event.root is not None \
                        and not 0 <= event.root < nprocs:
                    out_of_range(rank, event,
                                 f"{event.kind} root is rank {event.root}")
                    continue
                foot = coll_footprint(event.kind, rank, nprocs, event.root,
                                      event.nbytes)
                if foot is None:
                    widen(rank, event.line,
                          f"{event.kind} root is data-dependent; "
                          f"widening rank {rank} to full mesh",
                          diagnostic=True)
                    all_certain = False
                    continue
                for op, peer, nbytes in foot:
                    if peer == rank:
                        continue
                    peers[rank].add(peer)
                    if op == "send":
                        send_dests[rank].add(peer)
                        add_edge(rank, peer, nbytes)
                continue
            # point-to-point / probe events
            if event.peer is None:
                if event.wildcard:
                    # ANY_SOURCE: the on-demand manager connects every
                    # peer when a wildcard recv posts (MVICH §3.5), so
                    # prediction must too — benign, but full fan-in
                    widen(rank, event.line,
                          "wildcard receive", diagnostic=False)
                else:
                    all_certain = False
                    widen(rank, event.line,
                          f"{event.op} peer is unresolvable at rank "
                          f"{rank}; widening to full mesh",
                          diagnostic=True)
                continue
            if not (0 <= event.peer < nprocs):
                out_of_range(rank, event,
                             f"{event.op} targets rank {event.peer}")
                continue
            if event.peer == rank:
                if event.op == "send":
                    # MPICH-style self short-circuit: a message edge but
                    # no VI, so it joins edges/send_dests but not peers
                    send_dests[rank].add(rank)
                    add_edge(rank, rank, event.nbytes)
                continue
            peers[rank].add(event.peer)
            if event.op == "send":
                send_dests[rank].add(event.peer)
                add_edge(rank, event.peer, event.nbytes)

    # symmetric closure: the VIA handshake needs both endpoints to request
    for rank in range(nprocs):
        for peer in sorted(peers[rank]):
            peers[peer].add(rank)
    # widening: full mesh for widened ranks, symmetric
    for rank in sorted(widened):
        peers[rank] = set(range(nprocs)) - {rank}
        for other in range(nprocs):
            if other != rank:
                peers[other].add(rank)

    has_unknown_peer = any(d.code == "REPROC04" for d in diags)
    matching_checked = all_certain and not has_unknown_peer
    if matching_checked:
        diags.extend(_match_events(per_rank, nprocs))

    out_of_range = {(s, d) for (s, d) in edge_counts
                    if not (0 <= d < nprocs)}
    edges = tuple(
        EdgeStat(src=s, dst=d, count=edge_counts[(s, d)],
                 min_bytes=edge_min[(s, d)], max_bytes=edge_max[(s, d)])
        for (s, d) in sorted(edge_counts)
        if (s, d) not in out_of_range)

    params = dict(params)
    params["matching_checked"] = matching_checked
    code_order = {"REPROC01": 1, "REPROC02": 2, "REPROC03": 3, "REPROC04": 4}
    diags.sort(key=lambda d: (code_order.get(d.code, 9),
                              -1 if d.rank is None else d.rank,
                              -1 if d.line is None else d.line))
    return CommGraph(
        kernel=kernel,
        nprocs=nprocs,
        params=params,
        peers=tuple(tuple(sorted(p)) for p in peers),
        send_dests=tuple(tuple(sorted(d)) for d in send_dests),
        edges=edges,
        collectives=collectives,
        diagnostics=tuple(diags),
        widened_ranks=tuple(sorted(widened)),
    )


def analyze_trace(trace: CommTrace) -> CommGraph:
    trace.validate()
    per_rank = [comm._trace_events(rank_ops) for rank_ops in trace.ops]
    return _build_graph(trace.kernel, trace.nprocs,
                        {"trace_digest": trace.digest()}, per_rank)
