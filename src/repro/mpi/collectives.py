"""MPICH-1-style collectives built on point-to-point.

Algorithm choices matter to the paper's Table 2, because they determine
which connections a collective-using application forces:

* **barrier / allreduce** — recursive doubling with the MPICH
  pre/post steps for non-power-of-two sizes: each process of a
  power-of-two job talks to exactly ``log2(P)`` distinct partners
  (Table 2's Barrier/Allreduce rows), and the extra steps at
  non-power-of-two sizes produce Figure 4's latency fluctuation.
* **bcast / reduce** — binomial trees rooted at ``root``.
* **allgather** — recursive doubling (power-of-two) or ring.
* **alltoall / alltoallv** — pairwise exchange: every process talks to
  all ``P-1`` others (why IS stays fully connected in Table 2).
* **gather / scatter** — linear to/from the root.

All functions are generators; ``mpi`` is the process facade.  Each step
yields its completion loop to the rank's process as a stage (see
:mod:`repro.sim.process`), so a rank resumed inside a step enters that
loop alone.  Tags above ``MAX_TAG`` and the communicator's collective
context keep internals from matching user receives.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

from repro.mpi.communicator import Communicator
from repro.mpi.constants import MAX_TAG, MpiError, Op

# reserved tag block for collective internals
TAG_BARRIER = MAX_TAG + 1
TAG_BCAST = MAX_TAG + 2
TAG_REDUCE = MAX_TAG + 3
TAG_ALLREDUCE = MAX_TAG + 4
TAG_ALLGATHER = MAX_TAG + 5
TAG_ALLTOALL = MAX_TAG + 6
TAG_GATHER = MAX_TAG + 7
TAG_SCATTER = MAX_TAG + 8


def _traced(name: str):
    """Wrap a collective generator in a telemetry span (one per call).

    The communicator is always the last positional argument; the span
    lives on the calling rank's track and nests any pt2pt / descriptor
    spans recorded while the collective runs.  Untraced, the wrapper
    hands back the collective's own generator: no extra generator for
    every resume of the rank to pass through.
    """

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(mpi, *args):
            tel = mpi._adi.telemetry
            if tel is None:
                return fn(mpi, *args)
            return _in_span(tel, name, fn, mpi, args)

        return wrapper

    return deco


def _in_span(tel, name: str, fn, mpi, args):
    with tel.span(name, ("rank", mpi._adi.rank), comm_size=args[-1].size):
        return (yield from fn(mpi, *args))


def _round(mpi, **attrs) -> None:
    """Mark one round of a multi-round collective (instant event); the
    callers test for a telemetry plane first, so an untraced round costs
    no call."""
    mpi._adi.telemetry.instant("coll.round", ("rank", mpi._adi.rank), **attrs)


def _floor_pow2(n: int) -> int:
    p = 1
    while p * 2 <= n:
        p *= 2
    return p


def _empty() -> np.ndarray:
    return np.empty(0, dtype=np.uint8)


@_traced("coll.barrier")
def barrier(mpi, comm: Communicator):
    """Recursive-doubling barrier with MPICH non-power-of-two pre/post."""
    rank, size = comm.rank, comm.size
    if size == 1:
        return
    m = _floor_pow2(size)
    rest = size - m
    token = _empty()
    inbox = np.empty(0, dtype=np.uint8)
    if rank >= m:
        # pre: fold the surplus ranks onto the power-of-two core
        yield mpi._send_coll(token, rank - m, TAG_BARRIER, comm)
        yield mpi._recv_coll(inbox, rank - m, TAG_BARRIER, comm)
        return
    if rank < rest:
        yield mpi._recv_coll(inbox, rank + m, TAG_BARRIER, comm)
    mask = 1
    while mask < m:
        partner = rank ^ mask
        if mpi._adi.telemetry is not None:
            _round(mpi, coll="barrier", mask=mask, partner=partner)
        yield mpi._sendrecv_coll(token, partner, inbox, partner,
                                 TAG_BARRIER, comm)
        mask *= 2
    if rank < rest:
        yield mpi._send_coll(token, rank + m, TAG_BARRIER, comm)


@_traced("coll.bcast")
def bcast(mpi, buf: np.ndarray, root: int, comm: Communicator):
    """Binomial-tree broadcast (in place in ``buf``)."""
    rank, size = comm.rank, comm.size
    if size == 1:
        return
    relrank = (rank - root) % size
    # receive phase: find my parent
    mask = 1
    while mask < size:
        if relrank & mask:
            parent = (relrank - mask + root) % size
            yield mpi._recv_coll(buf, parent, TAG_BCAST, comm)
            break
        mask *= 2
    # send phase: fan out below me
    mask //= 2
    while mask >= 1:
        child_rel = relrank + mask
        if child_rel < size:
            child = (child_rel + root) % size
            yield mpi._send_coll(buf, child, TAG_BCAST, comm)
        mask //= 2


@_traced("coll.reduce")
def reduce(
    mpi, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray],
    op: Op, root: int, comm: Communicator,
):
    """Binomial-tree reduction to ``root``."""
    rank, size = comm.rank, comm.size
    acc = np.array(sendbuf, copy=True)
    if size > 1:
        relrank = (rank - root) % size
        inbox = np.empty_like(acc)
        mask = 1
        while mask < size:
            if relrank & mask:
                parent = (relrank & ~mask) % size
                yield mpi._send_coll(acc, (parent + root) % size,
                                     TAG_REDUCE, comm)
                break
            child_rel = relrank | mask
            if child_rel < size:
                child = (child_rel + root) % size
                yield mpi._recv_coll(inbox, child, TAG_REDUCE, comm)
                acc = op(acc, inbox)
            mask *= 2
    if rank == root:
        if recvbuf is None:
            raise MpiError("reduce root needs a recvbuf")
        recvbuf[...] = acc
    return None


@_traced("coll.allreduce")
def allreduce(
    mpi, sendbuf: np.ndarray, recvbuf: np.ndarray, op: Op, comm: Communicator,
):
    """Recursive-doubling allreduce with non-power-of-two pre/post."""
    rank, size = comm.rank, comm.size
    acc = np.array(sendbuf, copy=True)
    if size > 1:
        m = _floor_pow2(size)
        rest = size - m
        inbox = np.empty_like(acc)
        if rank >= m:
            yield mpi._send_coll(acc, rank - m, TAG_ALLREDUCE, comm)
            yield mpi._recv_coll(acc, rank - m, TAG_ALLREDUCE, comm)
            recvbuf[...] = acc
            return
        if rank < rest:
            yield mpi._recv_coll(inbox, rank + m, TAG_ALLREDUCE, comm)
            acc = op(acc, inbox)
        mask = 1
        while mask < m:
            partner = rank ^ mask
            if mpi._adi.telemetry is not None:
                _round(mpi, coll="allreduce", mask=mask, partner=partner)
            yield mpi._sendrecv_coll(acc, partner, inbox, partner,
                                     TAG_ALLREDUCE, comm)
            # order operands by rank for non-commutative safety
            acc = op(inbox, acc) if partner < rank else op(acc, inbox)
            mask *= 2
        if rank < rest:
            yield mpi._send_coll(acc, rank + m, TAG_ALLREDUCE, comm)
    recvbuf[...] = acc


@_traced("coll.allgather")
def allgather(
    mpi, sendbuf: np.ndarray, recvbuf: np.ndarray, comm: Communicator,
):
    """Gather equal blocks from everybody to everybody.

    Power-of-two sizes use recursive doubling (log2(P) partners, block
    size doubling each round); other sizes use the ring algorithm.
    """
    rank, size = comm.rank, comm.size
    block = sendbuf.size
    if recvbuf.size != block * size:
        raise MpiError(
            f"allgather recvbuf has {recvbuf.size} elements, "
            f"expected {block * size}"
        )
    recvbuf[rank * block : (rank + 1) * block] = sendbuf
    if size == 1:
        return
    if size == _floor_pow2(size):
        mask = 1
        my_base = rank
        while mask < size:
            partner = rank ^ mask
            # exchange the blocks accumulated so far
            base = my_base & ~(mask - 1)
            partner_base = base ^ mask
            send_slice = recvbuf[base * block : (base + mask) * block]
            recv_slice = recvbuf[partner_base * block : (partner_base + mask) * block]
            yield mpi._sendrecv_coll(send_slice, partner, recv_slice,
                                     partner, TAG_ALLGATHER, comm)
            mask *= 2
    else:
        left = (rank - 1) % size
        right = (rank + 1) % size
        for step in range(size - 1):
            send_block = (rank - step) % size
            recv_block = (rank - step - 1) % size
            yield mpi._sendrecv_coll(
                recvbuf[send_block * block : (send_block + 1) * block], right,
                recvbuf[recv_block * block : (recv_block + 1) * block], left,
                TAG_ALLGATHER, comm,
            )


@_traced("coll.alltoall")
def alltoall(
    mpi, sendbuf: np.ndarray, recvbuf: np.ndarray, comm: Communicator,
):
    """Pairwise-exchange all-to-all of equal blocks."""
    rank, size = comm.rank, comm.size
    if sendbuf.size % size or recvbuf.size != sendbuf.size:
        raise MpiError("alltoall buffers must hold size equal blocks")
    block = sendbuf.size // size
    recvbuf[rank * block : (rank + 1) * block] = \
        sendbuf[rank * block : (rank + 1) * block]
    pow2 = size == _floor_pow2(size)
    for step in range(1, size):
        if pow2:
            partner = rank ^ step
            send_to = recv_from = partner
        else:
            send_to = (rank + step) % size
            recv_from = (rank - step) % size
        if mpi._adi.telemetry is not None:
            _round(mpi, coll="alltoall", step=step, partner=send_to)
        yield mpi._sendrecv_coll(
            sendbuf[send_to * block : (send_to + 1) * block], send_to,
            recvbuf[recv_from * block : (recv_from + 1) * block], recv_from,
            TAG_ALLTOALL, comm,
        )


@_traced("coll.alltoallv")
def alltoallv(
    mpi,
    sendbuf: np.ndarray, sendcounts: Sequence[int], sdispls: Sequence[int],
    recvbuf: np.ndarray, recvcounts: Sequence[int], rdispls: Sequence[int],
    comm: Communicator,
):
    """Vector all-to-all (the IS benchmark's key exchange)."""
    rank, size = comm.rank, comm.size
    if not (len(sendcounts) == len(sdispls) == len(recvcounts)
            == len(rdispls) == size):
        raise MpiError("alltoallv count/displacement vectors must have size P")
    recvbuf[rdispls[rank] : rdispls[rank] + recvcounts[rank]] = \
        sendbuf[sdispls[rank] : sdispls[rank] + sendcounts[rank]]
    for step in range(1, size):
        send_to = (rank + step) % size
        recv_from = (rank - step) % size
        yield mpi._sendrecv_coll(
            sendbuf[sdispls[send_to] : sdispls[send_to] + sendcounts[send_to]],
            send_to,
            recvbuf[rdispls[recv_from] : rdispls[recv_from] + recvcounts[recv_from]],
            recv_from,
            TAG_ALLTOALL, comm,
        )


@_traced("coll.gather")
def gather(
    mpi, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray],
    root: int, comm: Communicator,
):
    """Linear gather of equal blocks to ``root``."""
    rank, size = comm.rank, comm.size
    block = sendbuf.size
    if rank == root:
        if recvbuf is None or recvbuf.size != block * size:
            raise MpiError("gather root needs a recvbuf of size P*block")
        recvbuf[rank * block : (rank + 1) * block] = sendbuf
        for src in range(size):
            if src == rank:
                continue
            yield mpi._recv_coll(
                recvbuf[src * block : (src + 1) * block], src, TAG_GATHER, comm
            )
    else:
        yield mpi._send_coll(sendbuf, root, TAG_GATHER, comm)


@_traced("coll.scatter")
def scatter(
    mpi, sendbuf: Optional[np.ndarray], recvbuf: np.ndarray,
    root: int, comm: Communicator,
):
    """Linear scatter of equal blocks from ``root``."""
    rank, size = comm.rank, comm.size
    block = recvbuf.size
    if rank == root:
        if sendbuf is None or sendbuf.size != block * size:
            raise MpiError("scatter root needs a sendbuf of size P*block")
        recvbuf[...] = sendbuf[rank * block : (rank + 1) * block]
        for dst in range(size):
            if dst == rank:
                continue
            yield mpi._send_coll(
                sendbuf[dst * block : (dst + 1) * block], dst, TAG_SCATTER, comm
            )
    else:
        yield mpi._recv_coll(recvbuf, root, TAG_SCATTER, comm)
