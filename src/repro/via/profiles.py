"""Timing profiles for the two VIA providers in the paper.

Every microsecond the simulation charges comes from one of these
profiles, so this module *is* the calibration surface.  Anchors used:

* **cLAN** (GigaNet cLAN 1000 + cLAN5300, hardware VIA): MVICH 0-byte
  half-round-trip ~12–13 µs, peak bandwidth ~110–120 MB/s on a 64/66
  PCI bus; VI count does not affect the datapath; blocking wait is
  interrupt-driven (so *spinwait* exists and costs a wakeup);
  peer-to-peer connect is noticeably cheaper than the kernel-heavy
  client/server dialog.
* **Berkeley VIA** (Myrinet LANai 7): firmware implements doorbells by
  scanning the VI table, so per-message service time grows linearly
  with the number of active VIs (paper Figure 1); ~25–35 µs small
  message latency, ~60–70 MB/s; ``VipRecvWait`` is an infinite poll
  loop, so there is no separate spinwait mode (paper §5.3); only the
  peer-to-peer connection model exists.

The slope of the BVIA VI penalty is calibrated against the paper's
8-node barrier numbers: 161 µs with 3 VIs (on-demand) vs 196 µs with 7
VIs (static).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fabric.link import LinkParams
from repro.memory.registry import RegistrationCosts


@dataclass(frozen=True)
class ConnectionCosts:
    """Connection-management timing (all µs).

    Connection setup is "typically a costly operation with operating
    system involvement" (paper §1): each host call is a syscall into the
    kernel agent, the agents exchange control packets over the fabric,
    and each agent serializes its requests.
    """

    #: host syscall cost of VipConnectPeerRequest / VipConnectRequest
    host_request_us: float = 25.0
    #: host syscall cost of the server-side accept (client/server model)
    host_accept_us: float = 30.0
    #: host cost of one VipConnectWait poll (client/server server side)
    host_wait_poll_us: float = 5.0
    #: kernel agent service time per control message
    agent_service_us: float = 60.0
    #: wire size of a connection control packet
    control_packet_bytes: int = 128
    #: extra kernel work to instantiate the connection state on match
    establish_us: float = 40.0


@dataclass(frozen=True)
class ViaProfile:
    """Complete timing/behaviour description of one VIA provider."""

    name: str
    link: LinkParams
    #: host cost to build + post one descriptor and ring the doorbell
    post_send_us: float = 0.5
    post_recv_us: float = 0.3
    #: NIC service time per send work item (cLAN: DMA engine setup)
    nic_send_base_us: float = 2.0
    #: NIC receive-side processing per message
    nic_recv_base_us: float = 2.0
    #: extra NIC service time per *active VI on the node* (BVIA doorbell scan)
    nic_per_vi_us: float = 0.0
    #: host memcpy bandwidth (bounce-buffer copies), bytes/µs
    copy_bw_bytes_per_us: float = 500.0
    #: host cost of one completion-queue poll (VipCQDone)
    cq_poll_us: float = 0.25
    #: duration of one iteration of the provider's spin loop (a full
    #: status-check pass, costlier than a bare CQ poll); sets the
    #: spinwait window = spincount * spin_iteration_us
    spin_iteration_us: float = 0.35
    #: True if the provider has a real blocking wait (interrupt driven).
    #: False means wait() is an infinite poll loop (Berkeley VIA).
    has_blocking_wait: bool = True
    #: penalty paid when a blocking wait is woken (interrupt + reschedule)
    wakeup_us: float = 50.0
    #: host cost to create / destroy a VI (allocate queues, driver call)
    create_vi_us: float = 20.0
    destroy_vi_us: float = 15.0
    #: hard cap on VIs per NIC (None = unlimited); VIA systems have
    #: limited NIC resources — the paper's scalability point 2
    max_vis_per_nic: int | None = None
    #: wire bytes of the upper-layer message header
    header_bytes: int = 64
    #: whether the provider implements the client/server connect model
    supports_client_server: bool = True
    connection: ConnectionCosts = field(default_factory=ConnectionCosts)
    registration: RegistrationCosts = field(default_factory=RegistrationCosts)

    def copy_us(self, nbytes: int) -> float:
        """Host memcpy time for ``nbytes``."""
        return nbytes / self.copy_bw_bytes_per_us


#: GigaNet cLAN: hardware VIA, VI-count independent, interrupt-capable wait.
CLAN = ViaProfile(
    name="clan",
    link=LinkParams(
        wire_latency_us=2.5,
        loopback_latency_us=1.0,
        bandwidth_bytes_per_us=125.0,
        per_packet_overhead_us=0.3,
    ),
    nic_send_base_us=2.0,
    nic_recv_base_us=2.0,
    nic_per_vi_us=0.0,
    has_blocking_wait=True,
    wakeup_us=50.0,
    supports_client_server=True,
    connection=ConnectionCosts(
        host_request_us=25.0,
        host_accept_us=30.0,
        agent_service_us=60.0,
        establish_us=40.0,
    ),
)

#: Berkeley VIA on Myrinet LANai 7: firmware doorbell scan (per-VI slope),
#: wait == poll, peer-to-peer connections only.
BERKELEY = ViaProfile(
    name="berkeley",
    link=LinkParams(
        wire_latency_us=3.5,
        loopback_latency_us=1.5,
        bandwidth_bytes_per_us=70.0,
        per_packet_overhead_us=0.5,
    ),
    post_send_us=2.5,  # programmed-I/O doorbell
    nic_send_base_us=18.0,
    nic_recv_base_us=18.0,
    nic_per_vi_us=1.45,
    has_blocking_wait=False,
    wakeup_us=0.0,
    supports_client_server=False,
    connection=ConnectionCosts(
        host_request_us=30.0,
        host_accept_us=0.0,
        agent_service_us=80.0,
        establish_us=50.0,
    ),
)

_PROFILES = {p.name: p for p in (CLAN, BERKELEY)}

#: the names :func:`profile_by_name` accepts, in declaration order
PROFILE_NAMES = tuple(_PROFILES)


def profile_by_name(name: str) -> ViaProfile:
    """Look up a built-in profile ("clan" or "berkeley")."""
    try:
        return _PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown VIA profile {name!r}; available: {sorted(_PROFILES)}"
        ) from None
