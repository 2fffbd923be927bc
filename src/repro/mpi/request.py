"""Nonblocking communication requests.

One :class:`Request` per ``MPI_Isend``/``MPI_Irecv``-family call.  The
ADI layer drives the state machine; user code only sees
``mpi.wait``/``mpi.test``.

Send completion rules (paper §3.6 and §4):

* *standard eager*: complete once the payload is buffered and posted to
  a **connected** VI — so under on-demand management completion
  additionally waits for the connection, the one documented semantic
  difference;
* *buffered*: complete locally at post time (payload copied);
* *synchronous eager*: complete on the receiver's match ack;
* *rendezvous* (any mode): complete after the RDMA write finishes and
  FIN is posted, which implies a matching receive existed.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Optional

import numpy as np

from repro.mpi.constants import SendMode
from repro.mpi.status import Status

_request_ids = itertools.count(1)


class RequestKind(enum.Enum):
    SEND = "send"
    RECV = "recv"


# the members as module names, which function bodies read (see
# ``repro.via.constants``)
KIND_SEND = RequestKind.SEND
KIND_RECV = RequestKind.RECV


class Request:
    """One nonblocking operation."""

    __slots__ = (
        "request_id", "kind", "done", "comm_context", "peer", "tag",
        "mode", "buffer", "nbytes", "status", "match_seq",
        "rndv_handle", "rndv_region", "temp_copy", "error",
        "completed_at", "posted_at", "tel_span", "flow_id",
        "trace_serial",
    )

    def __init__(
        self,
        kind: RequestKind,
        comm_context: int,
        peer: int,
        tag: int,
        buffer: Optional[np.ndarray],
        nbytes: int,
        mode: SendMode = SendMode.STANDARD,
        posted_at: float = 0.0,
    ):
        self.request_id = next(_request_ids)
        self.kind = kind
        #: set once by :meth:`complete`; until then the protocol may be in
        #: flight (waiting for a connection, credits, a CTS, a
        #: synchronous-mode ack)
        self.done = False
        self.comm_context = comm_context
        #: destination rank for sends, (wildcardable) source for receives
        self.peer = peer
        self.tag = tag
        self.mode = mode
        #: user buffer as a flat uint8 view (None for zero-byte ops)
        self.buffer = buffer
        self.nbytes = nbytes
        self.status = Status()
        #: channel sequence number stamped at matching (order assertions)
        self.match_seq: Optional[int] = None
        #: rendezvous receive: registered region handle sent in the CTS
        self.rndv_handle: Optional[int] = None
        self.rndv_region: Any = None
        #: unexpected-eager staging copy awaiting this request (recv side)
        self.temp_copy: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None
        self.completed_at: float = -1.0
        self.posted_at = posted_at
        #: open telemetry span (post -> completion), if the job is traced
        self.tel_span = None
        #: causal flow id (sends only; 0 = untraced)
        self.flow_id = 0
        #: per-rank op serial under trace capture (None when not captured)
        self.trace_serial: Optional[int] = None

    def complete(self, now: float) -> None:
        if self.done:
            raise RuntimeError(f"request {self.request_id} completed twice")
        self.done = True
        self.completed_at = now
        if self.tel_span is not None:
            self.tel_span.end(ok=self.error is None)
            self.tel_span = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Request #{self.request_id} {self.kind.value} peer={self.peer} "
            f"tag={self.tag} {'complete' if self.done else 'pending'}>"
        )
