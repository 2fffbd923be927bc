"""Capture and replay of MPI communication timelines.

**Capture** hooks the ADI boundary from above: :class:`RecordingMpiProcess`
subclasses the per-rank facade and records every primitive operation —
``isend``/``irecv``/``wait``/``waitall``/``test``/``iprobe``/``compute``
and each collective as one record — before delegating to the real
implementation.  Blocking calls (``send``/``recv``/``sendrecv`` and the
mode variants) decompose through these primitives inside the facade, so
recording the primitive set captures the complete MPI-level timeline
exactly once per operation, and collectives never double-record because
their internals use the private ``_send_coll``-family methods.

Recording appends to plain per-rank lists using simulated time only; it
schedules no events, so a captured run is event-for-event identical to
an uncaptured one (the golden fingerprints pin this).

**Replay** (:func:`replay_program`) turns a :class:`~repro.workloads.trace.CommTrace`
back into a rank program: payload contents are zero-filled ``uint8``
buffers of the recorded byte counts, so every wire message, eager/rendezvous
decision, flow-control interaction and collective round is byte-for-byte
identical to the original — which is why a replayed run reproduces the
original's flow-edge set, per-pair message counts and per-NIC
``vi_high_water`` under every connection mechanism.  Compute records hold
the *requested* (pre-jitter) microseconds; the facade re-applies its
seeded jitter on replay, so with the same job seed even the timeline is
identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.mpi.constants import MODE_STANDARD, SendMode
from repro.mpi.facade import MpiProcess
from repro.workloads.trace import CommTrace, TraceReplayError

__all__ = [
    "CaptureError",
    "CaptureConfig",
    "TraceCapture",
    "RecordingMpiProcess",
    "replay_program",
]


class CaptureError(RuntimeError):
    """The program used a feature trace format v1 cannot record
    (currently: MPI operations on a sub-communicator)."""


@dataclass
class CaptureConfig:
    """How to label a capture; pass to ``run_job(..., capture=...)``."""

    #: kernel name written to the trace header
    kernel: str = "capture"
    #: extra header metadata (merged with what run_job fills in)
    meta: Dict[str, Any] = field(default_factory=dict)


def _nb(data: Any) -> Optional[int]:
    """Byte count of a message buffer; None when the program passed None."""
    if data is None:
        return None
    return int(np.asarray(data).nbytes)


class _RankRecorder:
    """Per-rank op sink: appends records, hands out request serials."""

    __slots__ = ("ops", "_next_serial")

    def __init__(self) -> None:
        self.ops: List[Dict[str, Any]] = []
        self._next_serial = 0

    def new_serial(self) -> int:
        serial = self._next_serial
        self._next_serial += 1
        return serial


class TraceCapture:
    """Capture state for one job: a recorder per rank, folded into a
    :class:`~repro.workloads.trace.CommTrace` at job end."""

    def __init__(self, config: CaptureConfig, nprocs: int):
        self.config = config
        self.nprocs = nprocs
        self.recorders = [_RankRecorder() for _ in range(nprocs)]

    def facade(self, adi: Any, world: Any, jitter_seed: int = 0) -> "RecordingMpiProcess":
        return RecordingMpiProcess(
            adi, world, recorder=self.recorders[world.rank],
            jitter_seed=jitter_seed,
        )

    def finish(self, meta: Optional[Dict[str, Any]] = None) -> CommTrace:
        merged: Dict[str, Any] = dict(self.config.meta)
        if meta:
            merged.update(meta)
        trace = CommTrace(
            kernel=self.config.kernel,
            nprocs=self.nprocs,
            meta=merged,
            ops=[rec.ops for rec in self.recorders],
        )
        return trace.validate()


class RecordingMpiProcess(MpiProcess):
    """An :class:`~repro.mpi.facade.MpiProcess` that records the primitive
    op timeline before delegating.  Construction and recording add no
    simulated events; see the module docstring."""

    def __init__(self, adi: Any, world: Any, recorder: _RankRecorder,
                 compute_jitter: float = 0.005, jitter_seed: int = 0):
        super().__init__(adi, world, compute_jitter=compute_jitter,
                         jitter_seed=jitter_seed)
        self._rec = recorder

    # -- recording helpers -------------------------------------------------
    def _record(self, op: str, **fields: Any) -> None:
        rec: Dict[str, Any] = {"op": op, "r": self.rank,
                               "t": float(self._adi.engine.now)}
        rec.update(fields)
        self._rec.ops.append(rec)

    def _world_only(self, comm: Any) -> None:
        if comm is not None and comm is not self.COMM_WORLD:
            raise CaptureError(
                "trace format v1 records COMM_WORLD operations only; "
                "sub-communicator traffic is not capturable")

    def _serial_of(self, request: Any) -> int:
        serial = getattr(request, "trace_serial", None)
        if serial is None:
            raise CaptureError(
                "completing a request that was not created through the "
                "recorded facade")
        return int(serial)

    # -- point-to-point primitives ----------------------------------------
    def isend(self, data, dest, tag=0, comm=None, mode=SendMode.STANDARD):
        self._world_only(comm)
        serial = self._rec.new_serial()
        fields: Dict[str, Any] = {"req": serial, "peer": int(dest),
                                  "tag": int(tag), "nb": _nb(data)}
        if mode is not MODE_STANDARD:
            fields["mode"] = mode.value
        self._record("isend", **fields)
        req = super().isend(data, dest, tag, comm, mode)
        req.trace_serial = serial
        return req

    def irecv(self, buf, source=-1, tag=-1, comm=None):
        self._world_only(comm)
        serial = self._rec.new_serial()
        self._record("irecv", req=serial, peer=int(source), tag=int(tag),
                     nb=_nb(buf))
        req = super().irecv(buf, source, tag, comm)
        req.trace_serial = serial
        return req

    # -- blocking point-to-point -------------------------------------------
    # The base facade completes blocking calls via ``self._adi.wait``
    # directly; re-decompose them through the *recorded* primitives so the
    # completion point lands in the trace (semantically identical: the
    # facade's own decomposition is the same isend/irecv + ADI wait).
    def send(self, data, dest, tag=0, comm=None, mode=SendMode.STANDARD):
        req = self.isend(data, dest, tag, comm, mode)
        yield from self.wait(req)

    def recv(self, buf, source=-1, tag=-1, comm=None):
        comm = comm or self.COMM_WORLD
        req = self.irecv(buf, source, tag, comm)
        status = yield from self.wait(req)
        status.source = comm.comm_rank_of(status.source)
        return status

    def sendrecv(self, senddata, dest, recvbuf, source,
                 sendtag=0, recvtag=-1, comm=None):
        comm = comm or self.COMM_WORLD
        rreq = self.irecv(recvbuf, source, recvtag, comm)
        sreq = self.isend(senddata, dest, sendtag, comm)
        yield from self.waitall([sreq, rreq])
        rreq.status.source = comm.comm_rank_of(rreq.status.source)
        return rreq.status

    def wait(self, request):
        self._record("wait", req=self._serial_of(request))
        return (yield from super().wait(request))

    def waitall(self, requests):
        self._record("waitall",
                     reqs=[self._serial_of(r) for r in requests])
        return (yield from super().waitall(requests))

    def test(self, request):
        self._record("test", req=self._serial_of(request))
        return (yield from super().test(request))

    def iprobe(self, source=-1, tag=-1, comm=None):
        self._world_only(comm)
        self._record("probe", peer=int(source), tag=int(tag))
        return (yield from super().iprobe(source, tag, comm))

    # -- local compute ------------------------------------------------------
    def compute(self, us):
        # the *requested* duration; the facade re-jitters identically on
        # replay because the jitter stream is (seed, rank)-deterministic
        self._record("compute", us=float(us))
        yield from super().compute(us)

    # -- collectives (one record per call; internals bypass these) ---------
    def _coll(self, kind: str, root: Optional[int],
              nb: Optional[int], **extra: Any) -> None:
        self._record("coll", kind=kind, root=root, nb=nb, **extra)

    def barrier(self, comm=None):
        self._world_only(comm)
        self._coll("barrier", None, None)
        yield from super().barrier(comm)

    def bcast(self, buf, root=0, comm=None):
        self._world_only(comm)
        self._coll("bcast", int(root), _nb(buf))
        yield from super().bcast(buf, root, comm)

    def reduce(self, sendbuf, recvbuf=None, op=None, root=0, comm=None):
        self._world_only(comm)
        self._coll("reduce", int(root), _nb(sendbuf), rnb=_nb(recvbuf))
        from repro.mpi.constants import SUM

        yield from super().reduce(sendbuf, recvbuf, op if op is not None
                                  else SUM, root, comm)

    def allreduce(self, sendbuf, recvbuf, op=None, comm=None):
        self._world_only(comm)
        self._coll("allreduce", None, _nb(sendbuf), rnb=_nb(recvbuf))
        from repro.mpi.constants import SUM

        yield from super().allreduce(sendbuf, recvbuf, op if op is not None
                                     else SUM, comm)

    def allgather(self, sendbuf, recvbuf, comm=None):
        self._world_only(comm)
        self._coll("allgather", None, _nb(sendbuf), rnb=_nb(recvbuf))
        yield from super().allgather(sendbuf, recvbuf, comm)

    def alltoall(self, sendbuf, recvbuf, comm=None):
        self._world_only(comm)
        self._coll("alltoall", None, _nb(sendbuf), rnb=_nb(recvbuf))
        yield from super().alltoall(sendbuf, recvbuf, comm)

    def alltoallv(self, sendbuf, sendcounts, sdispls,
                  recvbuf, recvcounts, rdispls, comm=None):
        self._world_only(comm)
        s_item = int(np.asarray(sendbuf).dtype.itemsize)
        r_item = int(np.asarray(recvbuf).dtype.itemsize)
        self._coll(
            "alltoallv", None, _nb(sendbuf), rnb=_nb(recvbuf),
            scounts=[int(c) * s_item for c in sendcounts],
            sdispls=[int(d) * s_item for d in sdispls],
            rcounts=[int(c) * r_item for c in recvcounts],
            rdispls=[int(d) * r_item for d in rdispls],
        )
        yield from super().alltoallv(sendbuf, sendcounts, sdispls,
                                     recvbuf, recvcounts, rdispls, comm)

    def gather(self, sendbuf, recvbuf=None, root=0, comm=None):
        self._world_only(comm)
        self._coll("gather", int(root), _nb(sendbuf), rnb=_nb(recvbuf))
        yield from super().gather(sendbuf, recvbuf, root, comm)

    def scatter(self, sendbuf, recvbuf=None, root=0, comm=None):
        self._world_only(comm)
        self._coll("scatter", int(root), _nb(sendbuf), rnb=_nb(recvbuf))
        yield from super().scatter(sendbuf, recvbuf, root, comm)


# --------------------------------------------------------------------------
# replay
# --------------------------------------------------------------------------

def _buf(nb: Optional[int]) -> Optional[np.ndarray]:
    """A zero-filled stand-in buffer of the recorded byte count.

    ``uint8`` keeps every block split byte-granular: all collectives
    split buffers at element-block boundaries, and blocks scale linearly
    with element size, so byte counts per internal message match the
    original exactly.
    """
    if nb is None:
        return None
    return np.zeros(nb, dtype=np.uint8)


def replay_program(trace: CommTrace):
    """Build a rank program that re-executes a captured timeline.

    The returned generator function is a normal kernel: run it through
    :func:`repro.cluster.job.run_job` under any connection mechanism,
    cluster scheduler slot, or flow-traced sweep cell.
    """

    def prog(mpi):
        if mpi.size != trace.nprocs:
            raise TraceReplayError(
                f"trace {trace.kernel!r} was captured at "
                f"{trace.nprocs} ranks; this job has {mpi.size}")
        pending: Dict[int, Any] = {}

        def take(serial: int) -> Any:
            req = pending.pop(serial, None)
            if req is None:
                raise TraceReplayError(
                    f"rank {mpi.rank}: request serial {serial} completed "
                    "twice or never posted")
            return req

        for rec in trace.ops[mpi.rank]:
            op = rec["op"]
            if op == "isend":
                mode = SendMode(rec.get("mode", "standard"))
                pending[rec["req"]] = mpi.isend(
                    _buf(rec["nb"]), rec["peer"], rec["tag"], mode=mode)
            elif op == "irecv":
                pending[rec["req"]] = mpi.irecv(
                    _buf(rec["nb"]), rec["peer"], rec["tag"])
            elif op == "wait":
                yield from mpi.wait(take(rec["req"]))
            elif op == "waitall":
                yield from mpi.waitall([take(s) for s in rec["reqs"]])
            elif op == "test":
                req = pending.get(rec["req"])
                if req is None:
                    raise TraceReplayError(
                        f"rank {mpi.rank}: test on unknown request serial "
                        f"{rec['req']}")
                yield from mpi.test(req)
            elif op == "probe":
                yield from mpi.iprobe(rec["peer"], rec["tag"])
            elif op == "compute":
                yield from mpi.compute(rec["us"])
            else:  # coll — parse_trace guarantees the vocabulary
                yield from _replay_coll(mpi, rec)
        # requests the original left to MPI_Finalize semantics (e.g. a
        # test() that observed completion): drain them so replay exits
        # with a quiet device, in ascending serial order for determinism
        leftovers = [pending[s] for s in sorted(pending)]
        if leftovers:
            yield from mpi.waitall(leftovers)
        return None

    prog.__name__ = f"replay_{trace.kernel}"
    return prog


def _replay_coll(mpi, rec: Dict[str, Any]):
    kind = rec["kind"]
    root = rec.get("root")
    nb = rec.get("nb")
    rnb = rec.get("rnb")
    if kind == "barrier":
        yield from mpi.barrier()
    elif kind == "bcast":
        yield from mpi.bcast(_buf(nb), root)
    elif kind == "reduce":
        yield from mpi.reduce(_buf(nb), _buf(rnb), root=root)
    elif kind == "allreduce":
        yield from mpi.allreduce(_buf(nb), _buf(rnb))
    elif kind == "allgather":
        yield from mpi.allgather(_buf(nb), _buf(rnb))
    elif kind == "alltoall":
        yield from mpi.alltoall(_buf(nb), _buf(rnb))
    elif kind == "alltoallv":
        yield from mpi.alltoallv(
            _buf(nb), rec["scounts"], rec["sdispls"],
            _buf(rnb), rec["rcounts"], rec["rdispls"])
    elif kind == "gather":
        yield from mpi.gather(_buf(nb), _buf(rnb), root=root)
    elif kind == "scatter":
        yield from mpi.scatter(_buf(nb), _buf(rnb), root=root)
    else:  # pragma: no cover - parse_trace rejects unknown kinds
        raise TraceReplayError(f"unknown collective kind {kind!r}")
