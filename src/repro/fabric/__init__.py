"""Physical network fabric model.

The paper's testbed connects 8 nodes with either a GigaNet cLAN5300
switch or Myrinet.  Both are low-latency system-area networks with a
central crossbar, so the fabric model is: every node owns one NIC port,
all ports attach to one non-blocking crossbar switch, and a transfer
costs

    ``wire_latency + size / bandwidth``

subject to *serialization*: a port transmits (and receives) one packet
at a time at line rate.  Same-node transfers loop back through the NIC
at a reduced latency, as cLAN loopback does.

The fabric is deliberately protocol-agnostic: it moves opaque payloads
of a declared size between ports.  All VIA semantics (descriptors,
doorbells, connections) live in :mod:`repro.via`.
"""

from repro.fabric.link import LinkParams, Port
from repro.fabric.packet import Packet
from repro.fabric.network import Network

__all__ = [
    "LinkParams",
    "Port",
    "Packet",
    "Network",
]
