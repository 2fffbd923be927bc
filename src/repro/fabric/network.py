"""The crossbar network: ports wired through a non-blocking switch.

Store-and-forward timing: a packet occupies the sender's egress for its
serialization time, propagates for ``wire_latency`` (or the loopback
latency on the same node), then occupies the receiver's ingress for its
serialization time.  A steady stream therefore pipelines to full line
rate while a single packet sees ``2·tx + latency`` — the standard
store-and-forward model.

Delivery is push-based: each node registers one handler (its NIC), and
the network invokes it at the delivery instant.  The handler runs in
event-callback context and must not block.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.fabric.link import LinkParams, Port
from repro.fabric.packet import Packet
from repro.sim.engine import Engine, mark

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos.injector import FaultInjector
    from repro.telemetry.core import Telemetry

DeliveryHandler = Callable[[Packet], None]


class Network:
    """All ports of one fabric technology plus the switch between them."""

    def __init__(self, engine: Engine, params: LinkParams, name: str = "fabric"):
        self.engine = engine
        self.params = params
        self.name = name
        self._ports: Dict[int, Port] = {}
        self._handlers: Dict[int, DeliveryHandler] = {}
        #: delivery-event name by packet kind, each formatted once
        #: (fingerprint material: exactly f"{name}.deliver.{kind}")
        self._deliver_names: Dict[str, str] = {}
        self.packets_delivered = 0
        self.bytes_delivered = 0
        #: optional chaos hook (repro.chaos.FaultInjector); None = the
        #: fabric is perfectly reliable, the historical behaviour
        self.injector: Optional["FaultInjector"] = None
        #: optional telemetry plane; None = untraced (zero overhead)
        self.telemetry: Optional["Telemetry"] = None

    # -- wiring ------------------------------------------------------------
    def attach(self, node_id: int, handler: DeliveryHandler) -> Port:
        """Create the port for ``node_id`` and register its delivery handler."""
        if node_id in self._ports:
            raise ValueError(f"node {node_id} already attached to {self.name}")
        port = Port(node_id)
        self._ports[node_id] = port
        self._handlers[node_id] = handler
        return port

    def port(self, node_id: int) -> Port:
        try:
            return self._ports[node_id]
        except KeyError:
            raise KeyError(f"node {node_id} not attached to {self.name}") from None

    # -- transfer ------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Inject ``packet``: the destination handler is called with it
        at delivery, by a bare heap entry (nothing waits on a packet)."""
        try:
            src_port = self._ports[packet.src]
            dst_port = self._ports[packet.dst]
        except KeyError as missing:
            raise KeyError(
                f"node {missing.args[0]} not attached to {self.name}") from None
        engine = self.engine
        now = engine.now
        packet.injected_at = now
        verdict = None if self.injector is None else self.injector.judge(packet)

        # the per-packet path: the serialization time (per-packet
        # overhead plus the bytes at line rate) and both port
        # reservations inline, each direction a FIFO serial resource
        params = self.params
        wire_bytes = packet.wire_bytes
        tx = params.per_packet_overhead_us + wire_bytes / params.bandwidth_bytes_per_us
        start = src_port.egress_busy_until
        if start < now:
            start = now
        egress_done = src_port.egress_busy_until = start + tx
        src_port.packets_sent += 1
        src_port.bytes_sent += wire_bytes
        hop = (
            params.loopback_latency_us if packet.src == packet.dst
            else params.wire_latency_us
        )
        tel = self.telemetry
        if verdict is not None and verdict.drop:
            if tel is not None:
                tel.instant(
                    "fabric.chaos.drop", ("link", packet.src),
                    dst=packet.dst, kind=packet.kind,
                )
                tel.counter("fabric.chaos.dropped").inc()
            # the sender's egress was still occupied; the switch eats it
            engine.call_later(egress_done - now, mark, None,
                              f"{self.name}.chaos-drop.{packet.kind}")
            return
        if verdict is not None:
            hop += verdict.extra_delay_us
            if tel is not None and verdict.extra_delay_us:
                tel.instant(
                    "fabric.chaos.delay", ("link", packet.src),
                    dst=packet.dst, kind=packet.kind,
                    extra_us=verdict.extra_delay_us,
                )
        arrival = egress_done + hop  # of the first byte
        start = dst_port.ingress_busy_until
        if start < arrival:
            start = arrival
        delivered = dst_port.ingress_busy_until = start + tx
        dst_port.packets_received += 1
        dst_port.bytes_received += wire_bytes

        name = self._deliver_names.get(packet.kind)
        if name is None:
            name = f"{self.name}.deliver.{packet.kind}"
            self._deliver_names[packet.kind] = name
        engine.call_later(delivered - now, self._deliver, packet, name)
        if verdict is not None and verdict.duplicate:
            if tel is not None:
                tel.instant(
                    "fabric.chaos.dup", ("link", packet.src),
                    dst=packet.dst, kind=packet.kind,
                )
            arrival += verdict.dup_extra_us
            start = dst_port.ingress_busy_until
            if start < arrival:
                start = arrival
            dup_at = dst_port.ingress_busy_until = start + tx
            dst_port.packets_received += 1
            dst_port.bytes_received += wire_bytes
            engine.call_later(dup_at - now, self._deliver, packet,
                              f"{self.name}.deliver-dup.{packet.kind}")

    def _deliver(self, packet: Packet) -> None:
        """Hand ``packet`` to the destination's handler."""
        now = self.engine.now
        packet.delivered_at = now
        self.packets_delivered += 1
        self.bytes_delivered += packet.wire_bytes
        if self.telemetry is not None:
            self.telemetry.complete(
                "fabric.hop", ("link", packet.src), packet.injected_at, now,
                dst=packet.dst, kind=packet.kind, bytes=packet.wire_bytes,
                flow=packet.flow_id,
            )
        self._handlers[packet.dst](packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Network {self.name!r} nodes={len(self._ports)} "
            f"delivered={self.packets_delivered}>"
        )
