"""Packets: the unit the fabric moves.

A packet is an opaque payload plus enough metadata for the fabric to
schedule it.  ``wire_bytes`` is what occupies the wire (payload plus the
upper layer's header estimate); the fabric itself adds nothing.
"""

from __future__ import annotations

from typing import Any


class Packet:
    """One fabric transfer.

    Attributes
    ----------
    src, dst:
        Node ids.
    wire_bytes:
        Bytes occupying the wire (used for serialization time).
    payload:
        Opaque upper-layer object delivered to the destination port's
        handler.
    kind:
        Free-form label for tracing ("eager", "rdma", "conn-req", ...).
    flow_id:
        Causal flow id stamped by a traced NIC (0 = untagged); echoed
        into the fabric's hop spans, never branched on.
    injected_at, delivered_at:
        Filled in by the fabric (diagnostics).
    """

    __slots__ = ("src", "dst", "wire_bytes", "payload", "kind", "flow_id",
                 "injected_at", "delivered_at")

    def __init__(self, src: int, dst: int, wire_bytes: int, payload: Any,
                 kind: str = "data", flow_id: int = 0):
        if wire_bytes < 0:
            raise ValueError(f"negative wire_bytes {wire_bytes}")
        self.src = src
        self.dst = dst
        self.wire_bytes = wire_bytes
        self.payload = payload
        self.kind = kind
        self.flow_id = flow_id
        self.injected_at = -1.0
        self.delivered_at = -1.0

    @property
    def latency(self) -> float:
        """End-to-end fabric time, available after delivery."""
        if self.delivered_at < 0:
            raise RuntimeError("packet not yet delivered")
        return self.delivered_at - self.injected_at
