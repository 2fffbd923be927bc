"""Simulated Virtual Interface Architecture (VIA) provider.

This package is the reproduction's stand-in for GigaNet cLAN VIA and
Berkeley VIA on Myrinet — the two providers the paper's MVICH runs on.
It implements the VIA 1.0 concepts the paper depends on:

* **VIs** — bidirectional endpoints with a send and a receive work
  queue (:mod:`repro.via.vi`).
* **Descriptors** — posted work requests; receive descriptors must be
  pre-posted or arriving messages are *dropped*, exactly the VIA
  semantics that force MPI to do credit-based flow control
  (:mod:`repro.via.descriptor`).
* **Completion queues** with non-blocking polling and (on cLAN)
  blocking wait (:mod:`repro.via.completion_queue`).
* **Connection management** — both the client/server model (VIA 0.95)
  and the peer-to-peer model (VIA 1.0), run by per-node kernel
  connection agents with OS-involvement costs
  (:mod:`repro.via.agent`).
* **NIC models** — the cLAN hardware datapath, and the Berkeley VIA
  firmware datapath whose per-message service time grows with the
  number of active VIs (the paper's Figure 1)
  (:mod:`repro.via.nic`, :mod:`repro.via.profiles`).
* **RDMA write** — used by the MPI rendezvous protocol.

The host-facing surface is :class:`repro.via.provider.ViaProvider`, one
per simulated process, whose method names shadow the VIP API
(``VipCreateVi``, ``VipPostSend``, ``VipConnectPeerRequest``, ...).
"""

from repro.via.constants import (
    DescriptorOp,
    DescriptorStatus,
    ViState,
    ViaError,
    ViaConnectionError,
    ViaProtocolError,
)
from repro.via.descriptor import Descriptor
from repro.via.completion_queue import CompletionQueue
from repro.via.vi import VI
from repro.via.profiles import ViaProfile, CLAN, BERKELEY, profile_by_name
from repro.via.nic import Nic
from repro.via.agent import ConnectionAgent
from repro.via.provider import ViaProvider

__all__ = [
    "DescriptorOp",
    "DescriptorStatus",
    "ViState",
    "ViaError",
    "ViaConnectionError",
    "ViaProtocolError",
    "Descriptor",
    "CompletionQueue",
    "VI",
    "ViaProfile",
    "CLAN",
    "BERKELEY",
    "profile_by_name",
    "Nic",
    "ConnectionAgent",
    "ViaProvider",
]
