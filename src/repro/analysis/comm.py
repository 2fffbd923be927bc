"""Static communication-graph analysis for kernels (the paper's Table 2,
derived from source instead of measured at runtime).

``analyze_kernel("cg", nprocs=16)`` abstractly interprets the CG generator
once per class of ranks that take the same path
(:mod:`repro.analysis.interp`), and folds each class's one event stream
into a :class:`~repro.analysis.commgraph.CommGraph` with typed
diagnostics.  A collective call stands for the exact per-round
point-to-point footprint of :mod:`repro.mpi.collectives`, built once per
distinct call and rank; the graph counts each distinct event once with
its number of instances; the matching simulation lets every rank pass a
collective that all of them call alike at once.

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

from collections import defaultdict
from functools import lru_cache
from typing import (Any, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple,
                    Union)

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
    Ranked,
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


@lru_cache(maxsize=4096)
def coll_footprint(kind: str, rank: int, size: int, root: Optional[int],
                   nbytes: Optional[int]) -> Optional[Tuple[FootOp, ...]]:
    """Ordered p2p sub-ops of one collective call for one rank, mirroring
    ``repro.mpi.collectives`` round for round.  None if the root rank is
    needed but unresolvable (caller widens).  Memoised: an analysis
    builds each distinct footprint once, however many instances of it
    its ranks call."""
    ops: List[FootOp]
    if kind in ("barrier", "allreduce"):
        ops = _barrier_like(rank, size, nbytes, zero_token=kind == "barrier")
    elif kind == "allgather":
        ops = _allgather_foot(rank, size, nbytes)
    elif kind == "alltoall":
        ops = _alltoall_foot(rank, size, nbytes)
    elif kind == "alltoallv":
        ops = _alltoallv_foot(rank, size)
    elif root is None:
        return None
    elif kind == "bcast":
        ops = _bcast_foot(rank, size, root, nbytes)
    elif kind == "reduce":
        ops = _reduce_foot(rank, size, root, nbytes)
    elif kind == "gather":
        ops = _gather_foot(rank, size, root, nbytes)
    elif kind == "scatter":
        ops = _scatter_foot(rank, size, root, nbytes)
    else:
        return None
    return tuple(ops)


# ------------------------------------------------------------------------
# abstract interpretation, one pass per class of ranks
# ------------------------------------------------------------------------

class RankClass(NamedTuple):
    """The ranks one pass ran to the end and their one event stream: an
    event is an :data:`Event` every member recorded, or a
    :class:`Ranked` whose ``values[p]`` is the event of the member at
    position ``p`` (None if it is not that member's: an arm's event)."""

    #: (position, rank) of each member
    members: Tuple[Tuple[int, int], ...]
    events: Sequence[Any]


def _rank_classes(spec: KernelDef, nprocs: int, npb_class: Optional[str],
                  extra_sources: Optional[Dict[str, str]] = None
                  ) -> Tuple[List[RankClass], Dict[int, Exception]]:
    """Every class of ranks that ran to the end, and the error each other
    rank stopped with: a worklist of rank classes, each part a pass lets
    go interpreted again from the top."""
    args: Tuple[Any, ...] = ()
    if spec.npb_class_arg and npb_class is not None:
        args = (npb_class,)
    classes: List[RankClass] = []
    failed: Dict[int, Exception] = {}
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
        members, events = interp.finished(mpi)
        if failure is None:
            classes.append(RankClass(members, events))
        else:
            for _p, rank in members:
                failed[rank] = failure
    return classes, failed


def _class_streams(spec: KernelDef, nprocs: int, npb_class: Optional[str],
                   extra_sources: Optional[Dict[str, str]] = None
                   ) -> List[RankClass]:
    """Every rank's class; the error of the lowest failing rank."""
    classes, failed = _rank_classes(spec, nprocs, npb_class, extra_sources)
    if failed:
        raise failed[min(failed)]
    return classes


# ------------------------------------------------------------------------
# matching simulation (REPROC01 / REPROC02)
# ------------------------------------------------------------------------

#: one rank's matchable ops, a segment per event: (ops, tag, line) — a
#: collective call (its footprint for the rank, looked up when the rank
#: runs it op by op) with its instance's synthetic tag, or a one-op
#: tuple ``(op, peer, None)`` with the message's tag (None: ANY_TAG or
#: not known)
_Segment = Tuple[Union[CollEvent, Tuple[FootOp, ...]], Any, Optional[int]]


#: what a memo holds for an event it has not seen
_NEW: Any = object()


class _Streams(NamedTuple):
    """What the matching simulation runs on."""

    #: each rank's segments, in its program order
    ranks: List[List[_Segment]]
    #: can a receive ever have several keys to choose from (a receive
    #: from ANY_SOURCE or with ANY_TAG, or a send of unknown tag)?
    choices: bool
    #: per collective instance tag: [(root, nbytes) if every rank that
    #: calls it calls it alike, else None; how many ranks call it]
    instances: Dict[Any, List[Any]]


def _rank_streams(classes: Sequence[RankClass], size: int) -> _Streams:
    """Each rank's segments.  A receive that names its source and tag is
    a ``"recv"``; one from ANY_SOURCE or with ANY_TAG is a ``"scan"``.
    Members of a class that recorded every event alike share one stream,
    and a point-to-point event is one segment wherever it recurs."""
    streams: List[List[_Segment]] = [[] for _ in range(size)]
    choices = False
    instances: Dict[Any, List[Any]] = {}
    for members, events in classes:
        # one lane per member, or one for all if they recorded every
        # event alike: (position, stream, collectives of each kind so
        # far, ranks it stands for)
        alike = not any(type(event) is Ranked for event in events)
        lanes: List[Tuple[int, List[_Segment], Dict[str, int], int]] = \
            [(0, [], {}, len(members))] if alike \
            else [(p, streams[rank], {}, 1) for p, rank in members]
        # each point-to-point event's segment (None: a probe, which is
        # not matched)
        made: Dict[Event, Optional[_Segment]] = {}
        for event in events:
            for p, stream, counts, ranks in lanes:
                one = event.values[p] if type(event) is Ranked else event
                segment = made.get(one, _NEW)
                if segment is _NEW:
                    if one is None:
                        continue
                    if type(one) is CollEvent:
                        index = counts.get(one.kind, 0)
                        counts[one.kind] = index + 1
                        tag = ("coll", one.kind, index)
                        segment = (one, tag, one.line)
                        call = (one.root, one.nbytes)
                        seen = instances.get(tag)
                        if seen is None:
                            instances[tag] = [call, ranks]
                        else:
                            seen[1] += ranks
                            if seen[0] != call:
                                seen[0] = None
                    elif one.op == "probe":
                        segment = made[one] = None
                    else:
                        peer = None if one.wildcard else one.peer
                        op = one.op
                        if one.tag is None or peer is None:
                            choices = True
                            if op == "recv":
                                op = "scan"
                        segment = made[one] = (((op, peer, None),), one.tag,
                                               one.line)
                if segment is not None:
                    stream.append(segment)
        if alike:
            for _p, rank in members:
                streams[rank] = lanes[0][1]
    return _Streams(streams, choices, instances)


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
               first: Dict[Tuple[int, Any], int],
               src: Optional[int], tag: Any) -> bool:
    """Consume one of the sends in flight to a rank (``keys``: its
    ``(src, tag) -> count`` table; ``first``: the order in which each
    such key was first sent to it) for a receive of ``(src, tag)``: the
    matchable key that was first sent earliest, whatever its count."""
    key = min((k for k in keys if _matchable(k[0], k[1], src, tag)),
              key=first.__getitem__, default=None)
    if key is None:
        return False
    keys[key] -= 1
    if not keys[key]:
        del keys[key]
    return True


@lru_cache(maxsize=1024)
def _completes_alone(kind: str, size: int, root: Optional[int],
                     nbytes: Optional[int]) -> bool:
    """Does one instance of a collective that every rank calls alike
    complete among its own sub-ops, with nothing left in flight?"""
    call = CollEvent(kind, root, nbytes, True, None)
    streams: List[List[_Segment]] = [[(call, "alone", None)]
                                     for _ in range(size)]
    at, _sub, inbound = _simulate(streams, size, False, set())
    return at == [1] * size and not any(inbound.values())


def _ops(segment: _Segment, rank: int, size: int) -> Tuple[FootOp, ...]:
    """A segment's ops for ``rank``."""
    ops = segment[0]
    if isinstance(ops, CollEvent):
        return coll_footprint(ops.kind, rank, size, ops.root,
                              ops.nbytes) or ()
    return ops


def _simulate(streams: List[List[_Segment]], size: int, choices: bool,
              whole: Set[Any]) -> Tuple[List[int], List[int],
                                        Dict[int, Dict[Tuple[int, Any], int]]]:
    """Run every rank until none can go on: the segment and op each
    stopped at, and the sends left in flight.

    Sweeps the ranks in order, each running until it blocks, until a
    sweep makes no progress; a rank blocked with nothing new sent to it
    since is skipped, as its receive would fail again.  Without
    ``choices`` every receive names the one key it takes, so where the
    ranks stop does not depend on the order they run in.  A collective
    instance in ``whole`` (every rank calls it alike, and it completes
    alone) then holds each rank that reaches it until all have, and
    passes them all at once, until no rank can go on that way; then the
    ranks still held run its sub-ops one by one from there."""
    at = [0] * size  # the segment each rank is in
    sub = [0] * size  # the op it is at within that segment
    # unreceived sends by destination: dst -> {(src, tag): count}.  A key
    # leaves its table when its count reaches zero, so a receive looks
    # only at what is in flight to its own rank.  A dict, not a list: an
    # out-of-range destination must still reach REPROC01.
    inbound: Dict[int, Dict[Tuple[int, Any], int]] = defaultdict(dict)
    # when each (src, tag) was first sent to a destination, kept for
    # good: the deterministic choice between several matchable keys
    first: Dict[int, Dict[Tuple[int, Any], int]] = defaultdict(dict)
    everyone = range(size)
    ready = set(everyone)  # ranks whose next receive may succeed
    held: Dict[Any, Set[int]] = {}  # ranks held at a whole instance
    rendezvous = bool(whole) and not choices
    one_stream = all(stream is streams[0] for stream in streams)

    progressed = True
    while progressed:
        progressed = False
        for rank in everyone:
            if rank not in ready:
                continue
            ready.discard(rank)
            segments = streams[rank]
            mine = inbound[rank]
            i, j = at[rank], sub[rank]
            while i < len(segments):
                ops, tag, _line = segments[i]
                if isinstance(ops, CollEvent):
                    if rendezvous and not j and tag in whole:
                        here = held.get(tag)
                        if here is None:
                            here = held[tag] = set()
                        here.add(rank)
                        if len(here) < size:
                            break  # held until every rank is here
                        del held[tag]
                        # all pass it; in one shared stream they are at
                        # one place, and pass every next whole one too
                        if one_stream:
                            i += 1
                            while i < len(segments) \
                                    and segments[i][1] in whole:
                                i += 1
                            at = [i] * size
                        else:
                            at[rank] = i
                            at = [a + 1 for a in at]
                            i += 1
                        ready.update(everyone)
                        progressed = True
                        continue
                    ops = coll_footprint(ops.kind, rank, size, ops.root,
                                         ops.nbytes) or ()
                for op, peer, _nb in (ops[j:] if j else ops):
                    if op == "send":
                        # every peer is known: an unknown one is REPROC04,
                        # and then matching is not checked
                        keys = inbound[peer]
                        key = (rank, tag)
                        count = keys.get(key, 0)
                        keys[key] = count + 1
                        if choices and not count:
                            order = first[peer]
                            if key not in order:
                                order[key] = len(order)
                        ready.add(peer)
                    elif op == "recv" and not (
                            choices and (peer, None) in mine):
                        # the exact key or nothing
                        key = (peer, tag)
                        left = mine.get(key)
                        if left is None:
                            break
                        if left == 1:
                            del mine[key]
                        else:
                            mine[key] = left - 1
                    elif not _take_send(mine, first[rank], peer, tag):
                        break
                    progressed = True
                    j += 1
                else:
                    i += 1
                    j = 0
                    continue
                break  # blocked
            at[rank], sub[rank] = i, j
        if rendezvous and not progressed:
            # the held ranks go on op by op: where they stop is the same
            rendezvous = False
            ready.update(everyone)
            progressed = True
    return at, sub, inbound


def _match_events(classes: Sequence[RankClass],
                  size: int) -> List[CommDiagnostic]:
    """Eagerly simulate message matching; report REPROC01/REPROC02."""
    streams, choices, instances = _rank_streams(classes, size)
    whole = {tag for tag, (alike, count) in instances.items()
             if count == size and alike is not None
             and _completes_alone(tag[1], size, *alike)}
    at, sub, inbound = _simulate(streams, size, choices, whole)

    diags: List[CommDiagnostic] = []
    stuck = [r for r in range(size) if at[r] < len(streams[r])]
    if stuck:
        waits: Dict[int, Optional[int]] = {}
        lines: Dict[int, Optional[int]] = {}
        for r in stuck:
            segment = streams[r][at[r]]
            waits[r] = _ops(segment, r, size)[sub[r]][1]
            lines[r] = segment[2]
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
                 classes: Sequence[RankClass]) -> CommGraph:
    diags: List[CommDiagnostic] = []
    widened: Set[int] = set()
    all_certain = True
    # per edge: [messages, min bytes, max bytes]; None bytes means
    # "size not statically known"
    edge_stats: Dict[Tuple[int, int], List[Any]] = {}
    peers: List[Set[int]] = [set() for _ in range(nprocs)]
    send_dests: List[Set[int]] = [set() for _ in range(nprocs)]
    collectives: Dict[str, int] = {}
    seen_r3: Set[Tuple[int, Optional[int]]] = set()
    seen_r4: Set[Tuple[int, Optional[int]]] = set()

    def add_edge(src: int, dst: int, nbytes: Optional[int],
                 times: int) -> None:
        stat = edge_stats.get((src, dst))
        if stat is None:
            edge_stats[src, dst] = [times, nbytes, nbytes]
            return
        stat[0] += times
        lo, hi = stat[1], stat[2]
        # a message of unknown size poisons both bounds
        stat[1] = None if (nbytes is None or lo is None) \
            else min(lo, nbytes)
        stat[2] = None if (nbytes is None or hi is None) \
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

    def account(rank: int, event: Event, times: int) -> None:
        """One rank's ``times`` instances of one event."""
        if isinstance(event, CollEvent):
            if rank == 0:
                collectives[event.kind] = \
                    collectives.get(event.kind, 0) + times
            root = event.root
            if root is not None and not 0 <= root < nprocs:
                out_of_range(rank, event, f"{event.kind} root is rank {root}")
                return
            foot = coll_footprint(event.kind, rank, nprocs, root,
                                  event.nbytes)
            if foot is None:
                widen(rank, event.line,
                      f"{event.kind} root is data-dependent; "
                      f"widening rank {rank} to full mesh",
                      diagnostic=True)
                return
            near, dests = peers[rank], send_dests[rank]
            for op, peer, nbytes in foot:
                if peer != rank:
                    near.add(peer)
                    if op == "send":
                        dests.add(peer)
                        add_edge(rank, peer, nbytes, times)
            return
        # point-to-point / probe events
        if event.peer is None:
            if event.wildcard:
                # ANY_SOURCE: the on-demand manager connects every
                # peer when a wildcard recv posts (MVICH §3.5), so
                # prediction must too — benign, but full fan-in
                widen(rank, event.line, "wildcard receive", diagnostic=False)
            else:
                widen(rank, event.line,
                      f"{event.op} peer is unresolvable at rank "
                      f"{rank}; widening to full mesh",
                      diagnostic=True)
            return
        if not (0 <= event.peer < nprocs):
            out_of_range(rank, event, f"{event.op} targets rank {event.peer}")
            return
        if event.peer == rank:
            if event.op == "send":
                # MPICH-style self short-circuit: a message edge but
                # no VI, so it joins edges/send_dests but not peers
                send_dests[rank].add(rank)
                add_edge(rank, rank, event.nbytes, times)
            return
        peers[rank].add(event.peer)
        if event.op == "send":
            send_dests[rank].add(event.peer)
            add_edge(rank, event.peer, event.nbytes, times)

    for members, events in classes:
        # each distinct event once, with its number of instances: a
        # rank's first instance of each keeps its place, which is all
        # the order REPROC03/04 (one per rank and line) can see
        tally: Dict[Any, List[Any]] = {}
        for event in events:
            key = tuple(event.values) if type(event) is Ranked else event
            entry = tally.get(key)
            if entry is None:
                tally[key] = [event, 1]
            else:
                entry[1] += 1
        for event, times in tally.values():
            if type(event) is Ranked:
                for p, rank in members:
                    one = event.values[p]
                    if one is not None:
                        all_certain = all_certain and one.certain
                        account(rank, one, times)
            else:
                all_certain = all_certain and event.certain
                for _p, rank in members:
                    account(rank, event, times)

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

    # a widened rank's unknown peer or root disables matching through
    # its REPROC04 (a wildcard widens too, but is matched)
    matching_checked = all_certain and not seen_r4
    if matching_checked:
        diags.extend(_match_events(classes, nprocs))

    edges = tuple(
        EdgeStat(src=s, dst=d, count=stat[0], min_bytes=stat[1],
                 max_bytes=stat[2])
        for (s, d), stat in sorted(edge_stats.items())
        if 0 <= d < nprocs)

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
    classes = _class_streams(defn, nprocs,
                             npb_class if defn.npb_class_arg else None)
    params: Dict[str, Any] = dict(defn.kwargs)
    if defn.npb_class_arg:
        params["npb_class"] = npb_class
    return _build_graph(defn.name, nprocs, params, classes)


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
    # a concrete timeline: every rank a class of its own
    classes = [RankClass(((0, rank),), _trace_events(rank_ops))
               for rank, rank_ops in enumerate(trace.ops)]
    params: Dict[str, Any] = {"trace_digest": trace.digest()}
    return _build_graph(kernel or trace.kernel, trace.nprocs, params,
                        classes)


def analyze_source(source: str, factory: str, nprocs: int,
                   kwargs: Optional[Dict[str, Any]] = None,
                   module_name: str = "commtest",
                   kernel: str = "<source>") -> CommGraph:
    """Analyze an in-memory kernel source (for tests and ad-hoc checks)."""
    spec = KernelDef(name=kernel, module=module_name, factory=factory,
                     kwargs=tuple(sorted((kwargs or {}).items())))
    classes = _class_streams(spec, nprocs, None,
                             extra_sources={module_name: source})
    return _build_graph(kernel, nprocs, dict(spec.kwargs), classes)


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
