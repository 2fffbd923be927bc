"""Protocol headers riding on VIA messages.

The MPI device multiplexes everything over per-pair VI connections.
Each VIA :class:`~repro.via.messages.DataMessage` carries one of these
headers; the header's wire size is the profile's ``header_bytes``.

Envelope messages (:class:`EagerHeader`, :class:`RtsHeader`) take part
in MPI matching and must stay in FIFO order per channel.  Control
messages (:class:`CtsHeader`, :class:`FinHeader`, :class:`AckHeader`,
:class:`CreditHeader`) do not.

``piggyback_credits``: every header returns eager-buffer credits to the
peer, the standard MVICH trick that keeps explicit credit-update
messages rare.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class BaseHeader:
    src_rank: int
    piggyback_credits: int = 0
    #: messages still queued behind this one (the dynamic-flow-control
    #: demand signal; 0 when the feature is off or the FIFO drained)
    queued_behind: int = 0
    #: causal flow id of the MPI-level message this header serves
    #: (rendezvous control echoes the originating send's id); 0 =
    #: untraced run — pure data, never branched on by the protocol
    flow_id: int = 0


@dataclass(slots=True)
class EagerHeader(BaseHeader):
    """Short-message envelope + payload in one VIA message."""

    context_id: int = 0
    tag: int = 0
    nbytes: int = 0
    #: channel-level sequence number (non-overtaking assertions)
    seq: int = 0
    #: synchronous mode: receiver must ack on match
    sync: bool = False
    #: sender request id, echoed in the ack
    request_id: int = 0


@dataclass(slots=True)
class RtsHeader(BaseHeader):
    """Rendezvous request-to-send: the envelope of a long message."""

    context_id: int = 0
    tag: int = 0
    nbytes: int = 0
    seq: int = 0
    request_id: int = 0


@dataclass(slots=True)
class CtsHeader(BaseHeader):
    """Clear-to-send: receiver's registered target region for the RDMA."""

    send_request_id: int = 0
    recv_request_id: int = 0
    region_handle: int = 0
    region_offset: int = 0


@dataclass(slots=True)
class FinHeader(BaseHeader):
    """Rendezvous finished: RDMA data is in the receiver's buffer."""

    recv_request_id: int = 0
    nbytes: int = 0


@dataclass(slots=True)
class AckHeader(BaseHeader):
    """Synchronous-eager match acknowledgement."""

    send_request_id: int = 0


@dataclass(slots=True)
class CreditHeader(BaseHeader):
    """Explicit credit return (bypasses credits; reserve-descriptor path)."""


#: headers that participate in MPI matching (FIFO per channel)
ENVELOPE_HEADERS = (EagerHeader, RtsHeader)
#: headers processed out of band
CONTROL_HEADERS = (CtsHeader, FinHeader, AckHeader, CreditHeader)
