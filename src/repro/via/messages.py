"""Wire message types carried as fabric-packet payloads.

Three families:

* :class:`DataMessage` — a two-sided send; consumes a pre-posted receive
  descriptor at the destination VI (or is **dropped**, per VIA).
* :class:`RdmaWriteMessage` — one-sided deposit into a registered remote
  region over a connected VI; no receive descriptor consumed, no remote
  completion.
* Connection control (:class:`ConnRequest`, :class:`ConnGrant`,
  :class:`CsConnRequest`, :class:`CsConnGrant`) — the kernel agents'
  dialog for the peer-to-peer and client/server models.

Payload data is raw ``uint8`` bytes; protocol headers of the upper layer
ride as structured objects whose wire size the NIC charges separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

#: discriminator identifying one connection: (job_id, low_rank, high_rank)
Discriminator = Tuple[int, int, int]


@dataclass(slots=True)
class DataMessage:
    """Two-sided transfer addressed to a remote VI."""

    dst_vi_id: int
    src_vi_id: int
    header: Any
    data: Optional[np.ndarray]
    #: sender-side descriptor id (tracing)
    descriptor_id: int = 0
    #: per-VI transport sequence number (> 0 only when the NIC
    #: reliability sublayer is active, i.e. under fault injection)
    seq: int = -1


@dataclass(slots=True)
class RdmaWriteMessage:
    """One-sided RDMA write into a remote registered region."""

    dst_vi_id: int
    src_vi_id: int
    remote_handle: int
    remote_offset: int
    #: the NIC's staging copy of the payload, a block of
    #: :data:`repro.memory.arena.STAGING`; None once the destination NIC
    #: has deposited it and handed the block back
    data: Optional[np.ndarray]
    descriptor_id: int = 0
    seq: int = -1
    #: causal flow id (RDMA carries no header to ride on; 0 = untagged)
    flow_id: int = 0


@dataclass
class TransportAck:
    """Cumulative ack of the NIC reliability sublayer (fault injection).

    Acknowledges every sequenced message up to ``cum_seq`` on the
    (src VI → dst VI) stream.  Handled directly in the NIC's packet
    handler (firmware fast path, no receive descriptor, no service
    queue) and itself unacknowledged — a lost ack just means the peer
    retransmits and gets another one.
    """

    dst_vi_id: int
    src_vi_id: int
    cum_seq: int


@dataclass
class ConnRequest:
    """Peer-to-peer connection request (agent-to-agent)."""

    discriminator: Discriminator
    src_node: int
    src_vi_id: int
    src_rank: int
    dst_rank: int


@dataclass
class ConnGrant:
    """Peer-to-peer establishment notification."""

    discriminator: Discriminator
    src_node: int
    src_vi_id: int
    #: rank of the requester this grant answers (needed because one
    #: node-level agent serves several processes)
    dst_rank: int = -1


@dataclass
class CsConnRequest:
    """Client/server model: client's request to a listening server rank."""

    discriminator: Discriminator
    src_node: int
    src_vi_id: int
    client_rank: int
    server_rank: int


@dataclass
class CsConnGrant:
    """Client/server model: server's accept, back to the client."""

    discriminator: Discriminator
    src_node: int
    src_vi_id: int


@dataclass
class DisconnectRequest:
    """Connection-cache eviction: ask the peer to tear the pair down.

    ``returns_owed`` reconciles flow control: the requester ships any
    credits it still owes so the peer can judge quiescence exactly
    (credits == full ⟺ nothing in flight toward the requester)."""

    discriminator: Discriminator
    src_rank: int
    dst_rank: int
    returns_owed: int = 0


@dataclass
class DisconnectReply:
    """Answer to a DisconnectRequest (ack=False keeps the connection)."""

    discriminator: Discriminator
    src_rank: int
    dst_rank: int
    ack: bool = True
    returns_owed: int = 0


#: all control messages routed to the connection agent
CONTROL_TYPES = (ConnRequest, ConnGrant, CsConnRequest, CsConnGrant,
                 DisconnectRequest, DisconnectReply)
