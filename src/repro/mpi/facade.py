"""The per-rank MPI facade handed to user programs.

A rank program is a generator function ``def prog(mpi): ...`` where
``mpi`` is an :class:`MpiProcess`.  Blocking calls are generators and
must be ``yield from``-ed::

    def prog(mpi):
        data = np.arange(100.0)
        if mpi.rank == 0:
            yield from mpi.send(data, dest=1, tag=7)
        elif mpi.rank == 1:
            buf = np.empty(100)
            status = yield from mpi.recv(buf, source=0, tag=7)
        yield from mpi.barrier()
        return mpi.rank

Nonblocking calls (:meth:`isend`, :meth:`irecv`) are plain methods
returning :class:`~repro.mpi.request.Request`; complete them with
:meth:`wait` / :meth:`waitall` / :meth:`test`.

A blocking point-to-point call returns the ADI's completion loop
itself (:meth:`~repro.mpi.adi.AbstractDevice.wait_until`), which also
translates the status to the communicator's ranks: a rank resumed
inside one enters no frame of the facade.

:meth:`compute` charges modelled computation time to the simulated
clock — during it the library makes **no progress** (weak progress,
like MVICH), though the NIC keeps depositing eager data autonomously.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.mpi import collectives as coll
from repro.mpi.adi import AbstractDevice
from repro.mpi.communicator import Communicator, split_groups
from repro.mpi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    MAX_TAG,
    MODE_BUFFERED,
    MODE_READY,
    MODE_SYNCHRONOUS,
    MpiError,
    Op,
    SUM,
    SendMode,
)
from repro.mpi.request import Request
from repro.mpi.status import Status


class MpiProcess:
    """One rank's view of the MPI library."""

    def __init__(self, adi: AbstractDevice, world: Communicator,
                 compute_jitter: float = 0.005, jitter_seed: int = 0):
        self._adi = adi
        self.COMM_WORLD = world
        #: rank in, and size of, ``COMM_WORLD``: fixed, so plain attributes
        self.rank: int = world.rank
        self.size: int = world.size
        self._next_context = 1  # 0 is the world
        #: out-of-band exchange board shared by the job (set by runtime);
        #: models the process manager used for comm_split bookkeeping
        self._oob = None
        #: OS noise on computation (timer interrupts, cache variance).
        #: Without it a noiseless DES phase-locks rank schedules into
        #: configuration-dependent patterns that real machines decorrelate;
        #: seeded per rank, so runs stay reproducible.  The stream is
        #: made at the first compute(): a rank that never computes
        #: builds no Generator.
        self._jitter = compute_jitter
        self._jitter_seed = (jitter_seed * 1_000_003 + world.rank) & 0x7FFFFFFF
        self._jitter_rng = None

    # -- identity ----------------------------------------------------------
    def wtime(self) -> float:
        """Simulated time, µs (MPI_Wtime analogue)."""
        return self._adi.engine.now

    def compute(self, us: float):
        """Model ``us`` microseconds of local computation (no progress).

        A small seeded jitter (default ±0.5%) models OS noise; see
        ``__init__``."""
        if us < 0:
            raise ValueError("negative compute time")
        if us > 0 and self._jitter > 0:
            rng = self._jitter_rng
            if rng is None:
                rng = self._jitter_rng = np.random.default_rng(self._jitter_seed)
            us *= 1.0 + self._jitter * (2.0 * rng.random() - 1.0)
        yield self._adi.engine.sleep(us, f"compute.r{self.rank}")

    # -- point-to-point, nonblocking ---------------------------------------------
    def isend(
        self, data: Optional[np.ndarray], dest: int, tag: int = 0,
        comm: Optional[Communicator] = None, mode: SendMode = SendMode.STANDARD,
    ) -> Request:
        comm = comm or self.COMM_WORLD
        self._check_tag(tag)
        return self._adi.isend_contig(
            comm.world_rank(dest), tag, comm.pt2pt_context, data, mode
        )

    def issend(self, data, dest: int, tag: int = 0, comm=None) -> Request:
        return self.isend(data, dest, tag, comm, mode=MODE_SYNCHRONOUS)

    def ibsend(self, data, dest: int, tag: int = 0, comm=None) -> Request:
        return self.isend(data, dest, tag, comm, mode=MODE_BUFFERED)

    def irecv(
        self, buf: Optional[np.ndarray], source: int = ANY_SOURCE,
        tag: int = ANY_TAG, comm: Optional[Communicator] = None,
    ) -> Request:
        comm = comm or self.COMM_WORLD
        return self._adi.irecv(
            comm.world_rank(source), tag, comm.pt2pt_context, buf
        )

    # -- completion ----------------------------------------------------------------
    def wait(self, request: Request):
        """Generator: block until the request completes; returns Status."""
        return self._adi.wait(request)

    def waitall(self, requests: List[Request]):
        return self._adi.wait_all(requests)

    def test(self, request: Request):
        """One progress pass + completion check (MPI_Test)."""
        yield from self._adi.device_check()
        return request.done

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, comm=None):
        """Nonblocking probe of the unexpected queue (MPI_Iprobe).

        Probing a source counts as "planning to communicate" with it, so
        under on-demand management it issues the connection request —
        otherwise the probed message could never arrive.
        """
        comm = comm or self.COMM_WORLD
        self._adi.conn.on_recv_posted(comm.world_rank(source))
        yield from self._adi.device_check()
        msg = self._adi.matching.probe_unexpected(
            comm.pt2pt_context, comm.world_rank(source), tag
        )
        if msg is None:
            return None
        return Status(source=comm.comm_rank_of(msg.src_rank), tag=msg.tag,
                      nbytes=msg.nbytes)

    # -- point-to-point, blocking --------------------------------------------------
    def send(self, data, dest: int, tag: int = 0, comm=None,
             mode: SendMode = SendMode.STANDARD):
        return self._adi.wait(self.isend(data, dest, tag, comm, mode))

    def ssend(self, data, dest: int, tag: int = 0, comm=None):
        return self.send(data, dest, tag, comm, mode=MODE_SYNCHRONOUS)

    def bsend(self, data, dest: int, tag: int = 0, comm=None):
        return self.send(data, dest, tag, comm, mode=MODE_BUFFERED)

    def rsend(self, data, dest: int, tag: int = 0, comm=None):
        # ready mode: the caller asserts a matching receive is posted;
        # the transfer itself is the standard path
        return self.send(data, dest, tag, comm, mode=MODE_READY)

    def recv(self, buf, source: int = ANY_SOURCE, tag: int = ANY_TAG, comm=None):
        comm = comm or self.COMM_WORLD
        return self._adi.wait(self.irecv(buf, source, tag, comm), comm)

    def sendrecv(
        self, senddata, dest: int, recvbuf, source: int,
        sendtag: int = 0, recvtag: int = ANY_TAG, comm=None,
    ):
        comm = comm or self.COMM_WORLD
        rreq = self.irecv(recvbuf, source, recvtag, comm)
        sreq = self.isend(senddata, dest, sendtag, comm)
        # MPI_Waitall's one pass, and the receive's status
        return self._adi.wait_until(requests=(sreq, rreq), pick=1, comm=comm)

    # -- collective internals (separate context, reserved tags) --------------------
    # A collective yields each step's completion loop to the rank's
    # process as a stage: a rank resumed inside a step enters the loop
    # alone, not the collective (nor the program) around it.
    def _send_coll(self, data, dest: int, tag: int, comm: Communicator):
        return self._adi.wait(self._adi.isend_contig(
            comm.world_rank(dest), tag, comm.coll_context, data))

    def _recv_coll(self, buf, source: int, tag: int, comm: Communicator):
        return self._adi.wait(self._adi.irecv(
            comm.world_rank(source), tag, comm.coll_context, buf))

    def _sendrecv_coll(self, senddata, dest: int, recvbuf, source: int,
                       tag: int, comm: Communicator):
        rreq = self._adi.irecv(comm.world_rank(source), tag, comm.coll_context,
                               recvbuf)
        sreq = self._adi.isend_contig(comm.world_rank(dest), tag,
                                      comm.coll_context, senddata)
        return self._adi.wait_until(requests=(sreq, rreq), pick=1)

    # -- collectives -----------------------------------------------------------------
    def barrier(self, comm=None):
        return coll.barrier(self, comm or self.COMM_WORLD)

    def bcast(self, buf, root: int = 0, comm=None):
        return coll.bcast(self, buf, root, comm or self.COMM_WORLD)

    def reduce(self, sendbuf, recvbuf=None, op: Op = SUM, root: int = 0, comm=None):
        return coll.reduce(self, sendbuf, recvbuf, op, root,
                           comm or self.COMM_WORLD)

    def allreduce(self, sendbuf, recvbuf, op: Op = SUM, comm=None):
        return coll.allreduce(self, sendbuf, recvbuf, op,
                              comm or self.COMM_WORLD)

    def allgather(self, sendbuf, recvbuf, comm=None):
        return coll.allgather(self, sendbuf, recvbuf, comm or self.COMM_WORLD)

    def alltoall(self, sendbuf, recvbuf, comm=None):
        return coll.alltoall(self, sendbuf, recvbuf, comm or self.COMM_WORLD)

    def alltoallv(self, sendbuf, sendcounts, sdispls,
                  recvbuf, recvcounts, rdispls, comm=None):
        return coll.alltoallv(self, sendbuf, sendcounts, sdispls,
                              recvbuf, recvcounts, rdispls,
                              comm or self.COMM_WORLD)

    def gather(self, sendbuf, recvbuf=None, root: int = 0, comm=None):
        return coll.gather(self, sendbuf, recvbuf, root,
                           comm or self.COMM_WORLD)

    def scatter(self, sendbuf, recvbuf=None, root: int = 0, comm=None):
        return coll.scatter(self, sendbuf, recvbuf, root,
                            comm or self.COMM_WORLD)

    # -- communicator management -------------------------------------------------
    def comm_dup(self, comm=None):
        """Collective: duplicate a communicator (fresh contexts)."""
        comm = comm or self.COMM_WORLD
        yield from self.barrier(comm)
        ctx = self._next_context
        self._next_context += 1
        return Communicator(comm.group, comm.world_rank(comm.rank), ctx)

    def comm_split(self, color: int, key: int = 0, comm=None):
        """Collective: split into disjoint communicators by color.

        Color/key exchange runs over an allgather on the parent
        communicator (MPICH does the same internally).
        """
        comm = comm or self.COMM_WORLD
        mine = np.array([color, key], dtype=np.int64)
        table = np.empty(2 * comm.size, dtype=np.int64)
        yield from self.allgather(mine, table, comm)
        pairs = [
            (int(table[2 * i]), int(table[2 * i + 1])) for i in range(comm.size)
        ]
        # translate: pairs are indexed by parent-comm rank; regroup by
        # world rank for split_groups
        by_world = {
            comm.world_rank(comm_rank): ck for comm_rank, ck in enumerate(pairs)
        }
        max_world = max(by_world)
        colors_keys = [by_world.get(w, (-1, 0)) for w in range(max_world + 1)]
        groups = split_groups(colors_keys)
        # every member saw the same color table, so all advance the
        # context counter identically; each color gets its own context
        ctx = self._next_context
        colors_sorted = sorted(groups)
        self._next_context += len(colors_sorted)
        if color < 0:
            return None
        my_world = comm.world_rank(comm.rank)
        return Communicator(
            groups[color], my_world, ctx + colors_sorted.index(color)
        )

    # -- helpers --------------------------------------------------------------------
    @staticmethod
    def _check_tag(tag: int) -> None:
        if not (0 <= tag <= MAX_TAG):
            raise MpiError(f"user tag {tag} out of range [0, {MAX_TAG}]")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MpiProcess rank={self.rank}/{self.size}>"
