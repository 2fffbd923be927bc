"""Links and ports: latency, bandwidth, serialization.

:class:`Port` models one full-duplex NIC port.  Each direction is a
serial resource: transmissions queue FIFO and occupy the direction for
``wire_bytes / bandwidth``.  This is what makes incast (e.g. the IS
benchmark's all-to-all) cost real time in the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LinkParams:
    """Timing parameters of one fabric technology.

    Attributes
    ----------
    wire_latency_us:
        One-way propagation + switch transit time for a remote transfer.
    loopback_latency_us:
        Same-node NIC loopback time.
    bandwidth_bytes_per_us:
        Line rate.  1.25 GB/s full-duplex cLAN ≈ 125 B/µs usable;
        Myrinet LANai-7 similar order.
    per_packet_overhead_us:
        Fixed per-packet cost on each port (framing, DMA setup).
    """

    wire_latency_us: float
    loopback_latency_us: float
    bandwidth_bytes_per_us: float
    per_packet_overhead_us: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_us <= 0:
            raise ValueError("bandwidth must be positive")
        if min(self.wire_latency_us, self.loopback_latency_us) < 0:
            raise ValueError("latencies must be non-negative")


class Port:
    """A full-duplex NIC port belonging to one node.

    Each direction is a serial resource, free from its ``*_busy_until``
    time on; :meth:`repro.fabric.Network.send` reserves both directions
    and keeps the counters.
    """

    __slots__ = ("node_id", "egress_busy_until", "ingress_busy_until",
                 "packets_sent", "packets_received", "bytes_sent", "bytes_received")

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.egress_busy_until = 0.0
        self.ingress_busy_until = 0.0
        self.packets_sent = 0
        self.packets_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Port node={self.node_id} sent={self.packets_sent} rcvd={self.packets_received}>"
