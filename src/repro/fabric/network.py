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
from repro.sim.engine import Engine, Event

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
        port = Port(self.engine, node_id, self.params)
        self._ports[node_id] = port
        self._handlers[node_id] = handler
        return port

    def port(self, node_id: int) -> Port:
        try:
            return self._ports[node_id]
        except KeyError:
            raise KeyError(f"node {node_id} not attached to {self.name}") from None

    @property
    def node_count(self) -> int:
        return len(self._ports)

    # -- transfer ------------------------------------------------------------
    def send(self, packet: Packet) -> Event:
        """Inject ``packet``; returns an event that fires at delivery.

        The destination handler is invoked at the same instant, before
        the event's other callbacks (handler registration order).
        """
        try:
            src_port = self._ports[packet.src]
            dst_port = self._ports[packet.dst]
        except KeyError as missing:
            raise KeyError(
                f"node {missing.args[0]} not attached to {self.name}") from None
        loopback = packet.src == packet.dst
        packet.injected_at = self.engine.now
        verdict = None if self.injector is None else self.injector.judge(packet)

        egress_done = src_port.schedule_tx(packet.wire_bytes, loopback=loopback)
        hop = (
            self.params.loopback_latency_us if loopback else self.params.wire_latency_us
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
            ev = self.engine.event(name=f"{self.name}.chaos-drop.{packet.kind}")
            ev.succeed(packet, delay=egress_done - self.engine.now)
            return ev
        if verdict is not None:
            hop += verdict.extra_delay_us
            if tel is not None and verdict.extra_delay_us:
                tel.instant(
                    "fabric.chaos.delay", ("link", packet.src),
                    dst=packet.dst, kind=packet.kind,
                    extra_us=verdict.extra_delay_us,
                )
        delivered = dst_port.schedule_rx(packet.wire_bytes, egress_done + hop)

        name = self._deliver_names.get(packet.kind)
        if name is None:
            name = f"{self.name}.deliver.{packet.kind}"
            self._deliver_names[packet.kind] = name
        ev = Event(self.engine, name)

        def _deliver(_ev: Event) -> None:
            packet.delivered_at = self.engine.now
            self.packets_delivered += 1
            self.bytes_delivered += packet.wire_bytes
            if self.telemetry is not None:
                self.telemetry.complete(
                    "fabric.hop", ("link", packet.src),
                    packet.injected_at, self.engine.now,
                    dst=packet.dst, kind=packet.kind, bytes=packet.wire_bytes,
                    flow=packet.flow_id,
                )
            self._handlers[packet.dst](packet)

        ev.callbacks.append(_deliver)
        ev.succeed(packet, delay=delivered - self.engine.now)
        if verdict is not None and verdict.duplicate:
            if tel is not None:
                tel.instant(
                    "fabric.chaos.dup", ("link", packet.src),
                    dst=packet.dst, kind=packet.kind,
                )
            dup_at = dst_port.schedule_rx(
                packet.wire_bytes, egress_done + hop + verdict.dup_extra_us
            )
            dup = self.engine.event(name=f"{self.name}.deliver-dup.{packet.kind}")
            dup.add_callback(_deliver)
            dup.succeed(packet, delay=dup_at - self.engine.now)
        return ev

    def one_way_time(self, wire_bytes: int, *, loopback: bool = False) -> float:
        """Unloaded one-way fabric time for a packet of ``wire_bytes``
        (no port contention) — used by calibration tests."""
        tx = self.params.tx_time(wire_bytes)
        hop = self.params.loopback_latency_us if loopback else self.params.wire_latency_us
        return 2 * tx + hop

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Network {self.name!r} nodes={len(self._ports)} "
            f"delivered={self.packets_delivered}>"
        )
