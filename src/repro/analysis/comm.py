"""Static communication-graph analysis for kernels (the paper's Table 2,
derived from source instead of measured at runtime).

``analyze_kernel("cg", nprocs=16)`` abstractly interprets the CG generator
once per class of ranks that take the same path
(:mod:`repro.analysis.interp`), expands every collective call
into the exact per-round point-to-point footprint of
:mod:`repro.mpi.collectives`, and folds the event streams into a
:class:`~repro.analysis.commgraph.CommGraph` with typed diagnostics:

* **REPROC01** — a send nobody receives, or a receive nobody satisfies
  (checked by an eager matching simulation when every event is certain);
* **REPROC02** — a wait-for cycle between blocked ranks (deadlock);
* **REPROC03** — a concrete rank expression outside ``[0, nprocs)``;
* **REPROC04** — an unresolvable (data-dependent) destination; the rank is
  conservatively widened to a full mesh so the graph stays sound.

The graph drives the runtime in three places: the ``predicted`` connection
mechanism pre-establishes ``graph.peers`` during MPI_Init, VI-quota
admission in the cluster scheduler charges ``graph.vi_demand()`` instead of
the worst-case mesh, and the differential gate replays kernels with flow
tracing to assert observed edges are a subset of the predicted ones.
"""

from __future__ import annotations

from functools import lru_cache
from typing import (Any, Dict, List, Optional, Sequence, Set, Tuple, Union,
                    cast)

from repro.analysis.commgraph import (
    CollEvent,
    CommDiagnostic,
    CommGraph,
    EdgeStat,
    Event,
    MsgEvent,
)
from repro.analysis.interp import (
    AnalysisError,
    Interp,
    MpiProxy,
)
from repro.workloads.registry import KernelDef, kernel_def
from repro.workloads.trace import CommTrace

__all__ = [
    "AnalysisError",
    "analyze_kernel",
    "analyze_source",
    "analyze_trace",
    "predicted_peers_for",
    "predicted_vi_demand",
    "observed_edges",
    "check_observed_subset",
]


# ------------------------------------------------------------------------
# collective footprints: exact mirrors of repro.mpi.collectives
# ------------------------------------------------------------------------

#: one expanded sub-operation: (op, peer, nbytes) in program order
FootOp = Tuple[str, int, Optional[int]]


def _floor_pow2(n: int) -> int:
    p = 1
    while p * 2 <= n:
        p *= 2
    return p


def _barrier_like(rank: int, size: int, nbytes: Optional[int],
                  zero_token: bool) -> List[FootOp]:
    """barrier (zero-byte token) and allreduce share their structure."""
    ops: List[FootOp] = []
    if size == 1:
        return ops
    nb: Optional[int] = 0 if zero_token else nbytes
    m = _floor_pow2(size)
    rest = size - m
    if rank >= m:
        ops.append(("send", rank - m, nb))
        ops.append(("recv", rank - m, nb))
        return ops
    if rank < rest:
        ops.append(("recv", rank + m, nb))
    mask = 1
    while mask < m:
        partner = rank ^ mask
        ops.append(("send", partner, nb))
        ops.append(("recv", partner, nb))
        mask *= 2
    if rank < rest:
        ops.append(("send", rank + m, nb))
    return ops


def _bcast_foot(rank: int, size: int, root: int,
                nbytes: Optional[int]) -> List[FootOp]:
    ops: List[FootOp] = []
    if size == 1:
        return ops
    relrank = (rank - root) % size
    mask = 1
    while mask < size:
        if relrank & mask:
            parent = (relrank - mask + root) % size
            ops.append(("recv", parent, nbytes))
            break
        mask *= 2
    mask //= 2
    while mask >= 1:
        child_rel = relrank + mask
        if child_rel < size:
            ops.append(("send", (child_rel + root) % size, nbytes))
        mask //= 2
    return ops


def _reduce_foot(rank: int, size: int, root: int,
                 nbytes: Optional[int]) -> List[FootOp]:
    ops: List[FootOp] = []
    if size == 1:
        return ops
    relrank = (rank - root) % size
    mask = 1
    while mask < size:
        if relrank & mask:
            parent = (relrank & ~mask) % size
            ops.append(("send", (parent + root) % size, nbytes))
            break
        child_rel = relrank | mask
        if child_rel < size:
            ops.append(("recv", (child_rel + root) % size, nbytes))
        mask *= 2
    return ops


def _allgather_foot(rank: int, size: int,
                    block: Optional[int]) -> List[FootOp]:
    ops: List[FootOp] = []
    if size == 1:
        return ops
    if size == _floor_pow2(size):
        mask = 1
        while mask < size:
            partner = rank ^ mask
            nb = None if block is None else block * mask
            ops.append(("send", partner, nb))
            ops.append(("recv", partner, nb))
            mask *= 2
    else:
        left = (rank - 1) % size
        right = (rank + 1) % size
        for _step in range(size - 1):
            ops.append(("send", right, block))
            ops.append(("recv", left, block))
    return ops


def _alltoall_foot(rank: int, size: int,
                   total: Optional[int]) -> List[FootOp]:
    ops: List[FootOp] = []
    block = None if total is None else total // size
    pow2 = size == _floor_pow2(size)
    for step in range(1, size):
        if pow2:
            send_to = recv_from = rank ^ step
        else:
            send_to = (rank + step) % size
            recv_from = (rank - step) % size
        ops.append(("send", send_to, block))
        ops.append(("recv", recv_from, block))
    return ops


def _alltoallv_foot(rank: int, size: int) -> List[FootOp]:
    ops: List[FootOp] = []
    for step in range(1, size):
        ops.append(("send", (rank + step) % size, None))
        ops.append(("recv", (rank - step) % size, None))
    return ops


def _gather_foot(rank: int, size: int, root: int,
                 block: Optional[int]) -> List[FootOp]:
    ops: List[FootOp] = []
    if size == 1:
        return ops
    if rank == root:
        for src in range(size):
            if src != rank:
                ops.append(("recv", src, block))
    else:
        ops.append(("send", root, block))
    return ops


def _scatter_foot(rank: int, size: int, root: int,
                  nbytes: Optional[int]) -> List[FootOp]:
    ops: List[FootOp] = []
    if size == 1:
        return ops
    if rank == root:
        block = None if nbytes is None else nbytes // size
        for dst in range(size):
            if dst != rank:
                ops.append(("send", dst, block))
    else:
        ops.append(("recv", root, nbytes))
    return ops


def coll_footprint(kind: str, rank: int, size: int, root: Optional[int],
                   nbytes: Optional[int]) -> Optional[List[FootOp]]:
    """Ordered p2p sub-ops of one collective call for one rank, mirroring
    ``repro.mpi.collectives`` round for round.  None if the root rank is
    needed but unresolvable (caller widens)."""
    if kind == "barrier":
        return _barrier_like(rank, size, nbytes, zero_token=True)
    if kind == "allreduce":
        return _barrier_like(rank, size, nbytes, zero_token=False)
    if kind == "allgather":
        return _allgather_foot(rank, size, nbytes)
    if kind == "alltoall":
        return _alltoall_foot(rank, size, nbytes)
    if kind == "alltoallv":
        return _alltoallv_foot(rank, size)
    if kind in ("bcast", "reduce", "gather", "scatter"):
        if root is None:
            return None
        if kind == "bcast":
            return _bcast_foot(rank, size, root, nbytes)
        if kind == "reduce":
            return _reduce_foot(rank, size, root, nbytes)
        if kind == "gather":
            return _gather_foot(rank, size, root, nbytes)
        return _scatter_foot(rank, size, root, nbytes)
    return None


# ------------------------------------------------------------------------
# abstract interpretation, one pass per class of ranks
# ------------------------------------------------------------------------

def _rank_outcomes(spec: KernelDef, nprocs: int, npb_class: Optional[str],
                   extra_sources: Optional[Dict[str, str]] = None
                   ) -> List[Union[List[Event], Exception]]:
    """Every rank's events, or the error it stopped with, by rank: a
    worklist of rank classes, each part a pass lets go interpreted again
    from the top."""
    args: Tuple[Any, ...] = ()
    if spec.npb_class_arg and npb_class is not None:
        args = (npb_class,)
    outcomes: Dict[int, Union[List[Event], Exception]] = {}
    work: List[Tuple[int, ...]] = [tuple(range(nprocs))]
    while work:
        work.sort()
        ranks = work.pop(0)
        interp = Interp(extra_sources=extra_sources)
        mpi = MpiProxy(ranks, nprocs)
        failure: Optional[Exception] = None
        try:
            factory = interp.load_program(spec.module or "",
                                          spec.factory or "")
            program = interp.call_value(factory, args, dict(spec.kwargs))
            interp.run_program(program, mpi)
        except Exception as exc:  # that class's outcome, not ours to raise
            failure = exc
        work.extend(interp.split)
        for rank, events in interp.finished(mpi):
            outcomes[rank] = events if failure is None else failure
    return [outcomes[rank] for rank in range(nprocs)]


def _rank_events(spec: KernelDef, nprocs: int, npb_class: Optional[str],
                 extra_sources: Optional[Dict[str, str]] = None
                 ) -> List[List[Event]]:
    """Every rank's events; the error of the lowest failing rank."""
    outcomes = _rank_outcomes(spec, nprocs, npb_class, extra_sources)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return cast(List[List[Event]], outcomes)


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

    for rank, events in enumerate(per_rank):
        for event in events:
            if not event.certain:
                all_certain = False
            if isinstance(event, CollEvent):
                if rank == 0:
                    collectives[event.kind] = \
                        collectives.get(event.kind, 0) + 1
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
                if (rank, event.line) not in seen_r3:
                    seen_r3.add((rank, event.line))
                    qualifier = "" if event.certain else "conditionally "
                    diags.append(CommDiagnostic(
                        code="REPROC03",
                        message=f"{event.op} targets rank {event.peer}, "
                                f"{qualifier}out of range for "
                                f"nprocs={nprocs}",
                        rank=rank, line=event.line))
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


# ------------------------------------------------------------------------
# public API
# ------------------------------------------------------------------------

def analyze_kernel(kernel: str, nprocs: int,
                   npb_class: str = "S") -> CommGraph:
    """Predict the communication graph of a registered kernel.

    Source-backed kernels are abstractly interpreted; trace-backed
    kernels (registered captures) fold the recorded timeline directly.
    """
    if nprocs < 1:
        raise ValueError(f"nprocs must be >= 1, got {nprocs}")
    return _analyze_def(kernel_def(kernel), nprocs, npb_class)


def _analyze_def(defn: KernelDef, nprocs: int, npb_class: str) -> CommGraph:
    if defn.trace is not None:
        if nprocs != defn.trace.nprocs:
            raise ValueError(
                f"trace kernel {defn.name!r} was captured at "
                f"{defn.trace.nprocs} ranks; cannot analyze at {nprocs}")
        return analyze_trace(defn.trace, kernel=defn.name)
    per_rank = _rank_events(defn, nprocs,
                            npb_class if defn.npb_class_arg else None)
    params: Dict[str, Any] = dict(defn.kwargs)
    if defn.npb_class_arg:
        params["npb_class"] = npb_class
    return _build_graph(defn.name, nprocs, params, per_rank)


def _trace_events(rank_ops: Sequence[Dict[str, Any]]) -> List[Event]:
    """One rank's trace records as analyzer events.

    Send events are emitted at the ``isend`` position (posting makes a
    send eligible), but receive events are deferred to the ``wait`` /
    ``waitall`` that completes them: the matching simulation treats a
    recv as blocking at its stream position, and a sendrecv decomposes
    into isend+irecv+waitall — emitting the recv at post time would
    fabricate REPROC02 deadlocks the real run cannot have.  Requests the
    program never waited on (e.g. completed via ``test``) land at
    stream end, the most permissive position.
    """
    events: List[Event] = []
    pending: Dict[int, MsgEvent] = {}
    for rec in rank_ops:
        op = rec["op"]
        if op == "isend":
            tag = rec["tag"]
            events.append(MsgEvent(
                op="send", peer=rec["peer"], wildcard=False,
                tag=tag if tag >= 0 else None, nbytes=rec["nb"],
                certain=True, line=None))
        elif op == "irecv":
            peer = rec["peer"]
            tag = rec["tag"]
            wildcard = peer < 0
            pending[rec["req"]] = MsgEvent(
                op="recv", peer=None if wildcard else peer,
                wildcard=wildcard, tag=None if tag < 0 else tag,
                nbytes=rec["nb"], certain=True, line=None)
        elif op == "wait":
            done = pending.pop(rec["req"], None)
            if done is not None:
                events.append(done)
        elif op == "waitall":
            for serial in rec["reqs"]:
                done = pending.pop(serial, None)
                if done is not None:
                    events.append(done)
        elif op == "probe":
            peer = rec["peer"]
            tag = rec["tag"]
            wildcard = peer < 0
            events.append(MsgEvent(
                op="probe", peer=None if wildcard else peer,
                wildcard=wildcard, tag=None if tag < 0 else tag,
                nbytes=None, certain=True, line=None))
        elif op == "coll":
            events.append(CollEvent(
                kind=rec["kind"], root=rec.get("root"),
                nbytes=rec.get("nb"), certain=True, line=None))
        # "test" and "compute" carry no graph information
    for serial in sorted(pending):
        events.append(pending[serial])
    return events


def analyze_trace(trace: CommTrace, kernel: Optional[str] = None) -> CommGraph:
    """Fold a captured timeline into a :class:`CommGraph`.

    Unlike abstract interpretation the timeline is one concrete
    execution, so every event is certain, the matching simulation always
    runs, and the graph is exact for that run (a lower bound rather than
    an upper bound on what other seeds might do — captured traffic *is*
    the workload being replayed).
    """
    trace.validate()
    per_rank = [_trace_events(rank_ops) for rank_ops in trace.ops]
    params: Dict[str, Any] = {"trace_digest": trace.digest()}
    return _build_graph(kernel or trace.kernel, trace.nprocs, params,
                        per_rank)


def analyze_source(source: str, factory: str, nprocs: int,
                   kwargs: Optional[Dict[str, Any]] = None,
                   module_name: str = "commtest",
                   kernel: str = "<source>") -> CommGraph:
    """Analyze an in-memory kernel source (for tests and ad-hoc checks)."""
    spec = KernelDef(name=kernel, module=module_name, factory=factory,
                     kwargs=tuple(sorted((kwargs or {}).items())))
    per_rank = _rank_events(spec, nprocs, None,
                            extra_sources={module_name: source})
    return _build_graph(kernel, nprocs, dict(spec.kwargs), per_rank)


@lru_cache(maxsize=256)
def _cached_source_graph(defn: KernelDef, nprocs: int,
                         npb_class: str) -> CommGraph:
    return _analyze_def(defn, nprocs, npb_class)


def _cached_graph(kernel: str, nprocs: int, npb_class: str) -> CommGraph:
    """Graph lookup with caching for source-backed kernels only.

    The cache is keyed by the registration (a :class:`KernelDef`, hashed
    by identity), so a name registered again is analyzed afresh;
    trace-backed kernels bypass it (folding a trace is cheap next to
    abstract interpretation).
    """
    defn = kernel_def(kernel)
    if defn.trace is not None:
        return analyze_kernel(kernel, nprocs, npb_class=npb_class)
    return _cached_source_graph(defn, nprocs, npb_class)


def predicted_peers_for(kernel: str, nprocs: int,
                        npb_class: str = "S") -> Tuple[Tuple[int, ...], ...]:
    """Per-rank connection peers for ``MpiConfig.predicted_peers``."""
    return _cached_graph(kernel, nprocs, npb_class).peers


def predicted_vi_demand(kernel: str, nprocs: int,
                        npb_class: str = "S") -> int:
    """VIs per process the analyzed graph proves sufficient (max degree)."""
    return _cached_graph(kernel, nprocs, npb_class).vi_demand()


def observed_edges(critpath_report: Any) -> Set[Tuple[int, int]]:
    """Directed (src, dst) pairs observed by PR 7 flow tracing."""
    return {(flow.src, flow.dst) for flow in critpath_report.flows}


def check_observed_subset(
    kernel: str,
    nprocs: int,
    npb_class: str = "S",
    nodes: Optional[int] = None,
    ppn: int = 1,
    profile: str = "clan",
    seed: int = 0,
) -> Dict[str, Any]:
    """Differential gate: replay a kernel with flow tracing (on-demand
    connections) and check observed edges against the predicted graph.

    Self-edges never touch the connection layer, so an observed self flow
    checks against ``send_dests``; every cross-rank flow must land inside
    the predicted symmetric peer set.
    """
    # imported lazily: analysis must stay importable without the simulator
    from repro.cluster.job import build_job, run_job
    from repro.telemetry import TelemetryConfig

    graph = _cached_graph(kernel, nprocs, npb_class)
    defn = kernel_def(kernel)
    result = run_job(*build_job(kernel, npb_class, nprocs, nodes, ppn,
                                profile, "ondemand", seed),
                     telemetry=TelemetryConfig())
    report = result.critical_path()
    observed = observed_edges(report)
    violations = sorted(
        (src, dst) for (src, dst) in observed
        if (dst not in graph.peers[src] if src != dst
            else src not in graph.send_dests[src]))
    return {
        "kernel": kernel,
        "nprocs": nprocs,
        "npb_class": npb_class if defn.npb_class_arg else None,
        "seed": seed,
        "observed_edges": sorted(observed),
        "predicted_max_degree": graph.max_degree,
        "observed_max_out_degree": max(
            (len({d for (s, d) in observed if s == r and d != r})
             for r in range(nprocs)), default=0),
        "violations": violations,
        "ok": not violations,
    }
