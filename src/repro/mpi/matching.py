"""MPI message matching: posted-receive and unexpected queues.

MPICH semantics, which MVICH inherits:

* an arriving envelope matches the *oldest* posted receive whose
  (context, source, tag) pattern accepts it — wildcards allowed on the
  receive side only;
* a newly posted receive matches the *oldest* unexpected envelope it
  accepts;
* per (source, context, tag) message order is preserved end-to-end
  (non-overtaking) because envelopes arrive in channel FIFO order and
  both queues are searched oldest-first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.request import Request


@dataclass
class UnexpectedMessage:
    """An envelope that arrived before a matching receive was posted."""

    src_rank: int
    context_id: int
    tag: int
    nbytes: int
    seq: int
    #: staged payload for eager (copied out of the VI buffer at arrival)
    data: Optional[np.ndarray]
    #: True if this is a rendezvous RTS (no payload yet)
    is_rts: bool
    #: sender request id (to address the CTS / ack)
    send_request_id: int = 0
    sync: bool = False
    arrived_at: float = 0.0
    #: causal flow id carried by the envelope (0 = untraced)
    flow_id: int = 0


def _accepts(req: Request, src: int, context: int, tag: int) -> bool:
    if req.comm_context != context:
        return False
    if req.peer != ANY_SOURCE and req.peer != src:
        return False
    if req.tag != ANY_TAG and req.tag != tag:
        return False
    return True


class MatchingEngine:
    """The two queues of one process."""

    def __init__(self) -> None:
        self._posted: List[Request] = []
        self._unexpected: List[UnexpectedMessage] = []
        # counters
        self.matched_posted = 0
        self.matched_unexpected = 0
        self.max_unexpected_depth = 0

    # -- arrival side -------------------------------------------------------
    def match_arrival(
        self, src: int, context: int, tag: int
    ) -> Optional[Request]:
        """Find (and remove) the oldest posted receive accepting an
        arriving envelope; None if unexpected."""
        for i, req in enumerate(self._posted):
            # _accepts(), spelled out: one frame per arrival, not one
            # per posted receive it is tried against
            if (req.comm_context == context
                    and (req.peer == src or req.peer == ANY_SOURCE)
                    and (req.tag == tag or req.tag == ANY_TAG)):
                del self._posted[i]
                self.matched_posted += 1
                return req
        return None

    def add_unexpected(self, msg: UnexpectedMessage) -> None:
        self._unexpected.append(msg)
        self.max_unexpected_depth = max(
            self.max_unexpected_depth, len(self._unexpected)
        )

    # -- posting side -----------------------------------------------------------
    def match_posted_recv(self, req: Request) -> Optional[UnexpectedMessage]:
        """Find (and remove) the oldest unexpected envelope this new
        receive accepts; None if the receive must be queued."""
        for i, msg in enumerate(self._unexpected):
            if _accepts(req, msg.src_rank, msg.context_id, msg.tag):
                del self._unexpected[i]
                self.matched_unexpected += 1
                return msg
        return None

    def add_posted(self, req: Request) -> None:
        self._posted.append(req)

    def probe_unexpected(
        self, context: int, source: int, tag: int
    ) -> Optional[UnexpectedMessage]:
        """Non-destructive oldest-first search (MPI_Iprobe)."""
        for msg in self._unexpected:
            src_ok = source == ANY_SOURCE or msg.src_rank == source
            tag_ok = tag == ANY_TAG or msg.tag == tag
            if msg.context_id == context and src_ok and tag_ok:
                return msg
        return None

    def has_posted_for(self, world_rank: int) -> bool:
        """True if any posted receive could match a message from
        ``world_rank`` (named or wildcard) — such a receive needs the
        connection to stay up."""
        return any(
            req.peer == world_rank or req.peer == ANY_SOURCE
            for req in self._posted
        )

    def take_posted_for(self, world_rank: int) -> List[Request]:
        """Remove and return posted receives that can *only* be matched
        by ``world_rank`` (named, not ANY_SOURCE) — used to fail them
        cleanly when that peer becomes unreachable.  Wildcard receives
        stay posted: another peer can still satisfy them."""
        taken = [r for r in self._posted if r.peer == world_rank]
        if taken:
            self._posted = [r for r in self._posted if r.peer != world_rank]
        return taken
