"""Per-destination channels: flow control and the pre-posted send FIFO.

A :class:`Channel` is one process's view of its communication with one
peer rank.  It owns:

* the VI (once created) and the channel connection state;
* the **pre-posted send FIFO** of paper §3.4 — envelope messages
  (eager payloads and rendezvous RTS) queued while the connection does
  not exist, while eager credits are exhausted, or while no send bounce
  buffer is free.  Strict FIFO keeps MPI's non-overtaking rule;
* a priority queue of control messages (CTS/FIN/ack/credit), which do
  not participate in matching and may overtake envelopes;
* credit-based eager flow control: ``data_credits`` credits per
  direction, returned by piggybacking on any header and by explicit
  credit messages that use the reserved descriptors.

The channel itself is passive bookkeeping; the ADI's progress pass
(``progress_pass``, which ``device_check`` wraps) drives it, and the
ADI's post pass (``AbstractDevice._post_pending``) applies the posting
rules above.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

import numpy as np

from repro.mpi.headers import BaseHeader
from repro.mpi.request import Request
from repro.via.vi import VI


class ChannelState(enum.Enum):
    #: no VI yet (on-demand, before first use) — also after an eviction
    UNOPENED = "unopened"
    #: VI created, peer-to-peer request issued, not yet established
    CONNECTING = "connecting"
    CONNECTED = "connected"
    #: connection-cache eviction in progress (disconnect handshake)
    DRAINING = "draining"
    #: connect retry budget exhausted or transport dead (fault
    #: injection); further use raises ConnectionFailed
    FAILED = "failed"


@dataclass(slots=True)
class PendingSend:
    """A message waiting in the channel for post conditions.

    ``payload`` references the user's bytes (standard/synchronous modes
    pin the user buffer semantically until completion) or an owned copy
    (buffered mode).  ``request`` is completed per the mode's rule once
    the message is actually posted.
    """

    header: BaseHeader
    payload: Optional[np.ndarray]
    request: Optional[Request]
    #: rendezvous RTS messages also respect the rndv window
    is_rts: bool = False
    enqueued_at: float = 0.0


class Channel:
    """State for one (self rank -> dest rank) pairing."""

    __slots__ = (
        "dest", "state", "vi",
        "send_fifo", "control_queue",
        "credits", "credits_to_return", "explicit_threshold", "granted_total",
        "seq_out", "seq_in", "rndv_outstanding", "rndv_window",
        "messages_sent", "messages_received", "bytes_sent", "bytes_received",
        "explicit_credit_messages", "opened_at", "connected_at",
        "last_used_at", "evictions", "evict_cooldown_until",
        "connect_attempts", "connect_deadline", "connect_seq",
        "tel_connect", "tel_evict",
    )

    def __init__(
        self,
        dest: int,
        data_credits: int,
        explicit_threshold: int,
        rndv_window: int,
    ):
        self.dest = dest
        self.state = ChannelState.UNOPENED
        self.vi: Optional[VI] = None
        self.send_fifo: Deque[PendingSend] = deque()
        self.control_queue: Deque[PendingSend] = deque()
        self.credits = data_credits
        #: receive-side window advertised to the peer (grows under
        #: dynamic flow control, up to the configured maximum)
        self.granted_total = data_credits
        self.credits_to_return = 0
        self.explicit_threshold = explicit_threshold
        self.seq_out = 0
        self.seq_in = 0
        self.rndv_outstanding = 0
        self.rndv_window = rndv_window
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.explicit_credit_messages = 0
        self.opened_at: float = -1.0
        self.connected_at: float = -1.0
        #: LRU clock for the connection cache
        self.last_used_at: float = -1.0
        #: times this channel's connection was torn down by the cache
        self.evictions = 0
        #: after a NACKed disconnect, leave the peer alone until this time
        self.evict_cooldown_until: float = -1.0
        #: connect attempts for the current connection cycle (retry logic)
        self.connect_attempts = 0
        #: simulated time after which the in-flight connect is retried;
        #: +inf when connect timeouts are disabled
        self.connect_deadline = float("inf")
        #: issue order of the in-flight connect among this process's
        #: (establishments are confirmed in this order)
        self.connect_seq = 0
        #: open telemetry spans for the current connect / eviction cycle
        self.tel_connect = None
        self.tel_evict = None

    # -- state ------------------------------------------------------------
    @property
    def is_connected(self) -> bool:
        return self.state is ChannelState.CONNECTED

    @property
    def used(self) -> bool:
        """Did any traffic ever cross this channel?  (Table 2's notion of
        a VI the application actually needed.)"""
        return (self.messages_sent + self.messages_received) > 0

    @property
    def pending_count(self) -> int:
        return len(self.send_fifo) + len(self.control_queue)

    # -- credits -----------------------------------------------------------------
    def take_piggyback(self) -> int:
        """Attach all accumulated return-credits to an outgoing header."""
        credits, self.credits_to_return = self.credits_to_return, 0
        return credits

    def on_header_received(self, header: BaseHeader) -> None:
        """Account an arriving header: piggybacked credits + seq."""
        self.credits += header.piggyback_credits
        self.messages_received += 1

    def add_return_credit(self) -> None:
        self.credits_to_return += 1

    def credits_due(self) -> bool:
        """True when enough return-credits accumulated to be worth an
        explicit update.

        The trigger scales with the *live* window: under dynamic flow
        control a freshly-opened channel may have granted only one or
        two credits, and holding those back to a threshold sized for the
        full window would stall the sender indefinitely."""
        return self.credits_to_return >= min(
            self.explicit_threshold, max(1, self.granted_total // 2))

    def should_send_explicit_credits(self) -> bool:
        """True when credits are due and no outbound traffic is around
        to piggyback them on."""
        return (
            self.is_connected
            and self.credits_due()
            and not self.control_queue
            and not self.send_fifo
        )

    # -- sequencing -----------------------------------------------------------------
    def check_envelope_order(self, seq: int) -> None:
        """Assert the non-overtaking invariant on arrival."""
        if seq != self.seq_in:
            raise RuntimeError(
                f"channel from {self.dest}: envelope seq {seq} arrived, "
                f"expected {self.seq_in} (ordering violated)"
            )
        self.seq_in += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Channel dest={self.dest} {self.state.value} credits={self.credits} "
            f"pending={self.pending_count}>"
        )
