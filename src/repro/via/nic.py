"""NIC models.

One :class:`Nic` per node, shared by every process on that node (the
testbed runs up to 4 processes per 4-CPU node).  The NIC is a *serial*
resource on both the send and the receive side: work items queue and are
serviced one at a time, with a per-item service time taken from the
:class:`~repro.via.profiles.ViaProfile`.

The Berkeley VIA behaviour central to the paper comes from
``profile.nic_per_vi_us``: the LANai firmware discovers work by scanning
the doorbells of every active VI, so each service takes longer the more
VIs exist on the node — reproducing Figure 1 and every "on-demand wins
on BVIA" result downstream.

Dropped messages: per the VIA spec, a :class:`DataMessage` that finds no
pre-posted receive descriptor is discarded.  The NIC counts drops; the
MPI flow-control layer is responsible for making the count stay zero,
and failure-injection tests deliberately break it.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional, Tuple

from repro.fabric.network import Network
from repro.fabric.packet import Packet
from repro.memory.arena import STAGING
from repro.sim.engine import Engine, mark
from repro.via.constants import (
    DESC_ERROR,
    DESC_FLUSHED,
    DESC_SUCCESS,
    OP_RDMA_WRITE,
    OP_SEND,
    VI_CONNECT_PENDING,
    VI_CONNECTED,
    VI_ERROR,
    ViaProtocolError,
    ViState,
)
from repro.via.messages import (
    CONTROL_TYPES,
    DataMessage,
    RdmaWriteMessage,
    TransportAck,
)
from repro.via.profiles import ViaProfile
from repro.via.vi import VI

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos.plan import FaultPlan
    from repro.telemetry.core import Telemetry
    from repro.via.agent import ConnectionAgent
    from repro.via.provider import ViaProvider

#: wire size of a transport ack (reliability sublayer control packet)
ACK_WIRE_BYTES = 32
#: the retransmission timer's entry name ("<lambda>": entry names are
#: fingerprint material, pinned when the timer was a closure)
RTX_TIMER = "<lambda>"

#: VI states the firmware doorbell scan must visit (paper Figure 1);
#: the NIC tracks this count incrementally via VI state transitions.
#: A tuple: membership is an identity test, where a set would call the
#: Python-level ``Enum.__hash__`` on every transition.
ACTIVE_VI_STATES = (ViState.CONNECTED, ViState.CONNECT_PENDING)


class _Inflight:
    """One unacknowledged sequenced message awaiting ack or retransmit."""

    __slots__ = ("msg", "wire_bytes", "dst_node", "kind", "attempts")

    def __init__(self, msg, wire_bytes: int, dst_node: int, kind: str):
        self.msg = msg
        self.wire_bytes = wire_bytes
        self.dst_node = dst_node
        self.kind = kind
        #: completed send attempts beyond the first transmission
        self.attempts = 0


class Nic:
    """One node's network interface."""

    def __init__(self, engine: Engine, node_id: int, profile: ViaProfile, network: Network):
        self.engine = engine
        self.node_id = node_id
        self.profile = profile
        self.network = network
        self.port = network.attach(node_id, self._on_packet)
        self.agent: Optional["ConnectionAgent"] = None
        #: optional telemetry plane; None = untraced (zero overhead)
        self.telemetry: Optional["Telemetry"] = None

        self._vis: Dict[int, VI] = {}
        self._owners: Dict[int, "ViaProvider"] = {}
        self._next_vi_id = 1
        #: incrementally maintained count of CONNECTED/CONNECT_PENDING
        #: attached VIs — the doorbell-scan population.  Kept exact by
        #: attach_vi/detach_vi and VI state-setter notifications so the
        #: per-service lookup is O(1) (it used to re-scan every VI).
        self._active_vis = 0
        #: administrative per-NIC VI budget (cluster scheduler admission
        #: control), on top of the hardware ``profile.max_vis_per_nic``.
        #: None = unmanaged (the single-job default).
        self.vi_quota: Optional[int] = None
        #: most VIs ever attached at once — the per-NIC resource
        #: high-water mark the paper's Tables 1–2 argue about, reported
        #: identically by single-job and cluster runs
        self.vi_high_water = 0

        # serial send engine
        self._tx_queue: Deque[VI] = deque()
        self._tx_scheduled = False
        self._tx_busy_until = 0.0
        self._tx_window = (0.0, 0.0)

        # serial receive engine
        self._rx_queue: Deque[Packet] = deque()
        self._rx_scheduled = False
        self._rx_busy_until = 0.0
        self._rx_window = (0.0, 0.0)

        #: arrivals for VIs whose connection handshake has not finished
        #: locally yet (the peer may legitimately be CONNECTED and sending
        #: before our grant lands); released at establishment
        self._early: Dict[int, Deque[Packet]] = {}

        #: reliability sublayer: unacked sequenced messages per VI id
        self._rtx: Dict[int, Dict[int, _Inflight]] = {}

        # counters
        self.messages_sent = 0
        self.messages_received = 0
        self.rdma_writes_received = 0
        self.dropped_no_recv_descriptor = 0
        self.dropped_bad_vi = 0
        self.early_arrivals = 0
        # reliability sublayer counters (all zero without fault injection)
        self.retransmissions = 0
        self.rtx_acks_sent = 0
        self.rtx_dup_dropped = 0
        self.rtx_ooo_buffered = 0
        self.rtx_no_descriptor = 0
        self.rtx_stale = 0
        self.rtx_exhausted = 0

    # -- VI management -------------------------------------------------------
    def allocate_vi_id(self) -> int:
        vi_id = self._next_vi_id
        self._next_vi_id += 1
        return vi_id

    def attach_vi(self, vi: VI, owner: "ViaProvider") -> None:
        if vi.vi_id in self._vis:
            raise ViaProtocolError(f"VI id {vi.vi_id} already attached to node {self.node_id}")
        limit = self.profile.max_vis_per_nic
        if limit is not None and len(self._vis) >= limit:
            raise ViaProtocolError(
                f"NIC on node {self.node_id} out of VI resources "
                f"(limit {limit}); the paper's scalability point 2"
            )
        if self.vi_quota is not None and len(self._vis) >= self.vi_quota:
            raise ViaProtocolError(
                f"NIC on node {self.node_id} past its VI quota "
                f"({self.vi_quota}); scheduler admission control should "
                "have prevented this job from starting"
            )
        self._vis[vi.vi_id] = vi
        self._owners[vi.vi_id] = owner
        vi.nic = self
        if len(self._vis) > self.vi_high_water:
            self.vi_high_water = len(self._vis)
        if vi.state in ACTIVE_VI_STATES:
            self._active_vis += 1

    def detach_vi(self, vi: VI) -> None:
        if self._vis.pop(vi.vi_id, None) is not None:
            vi.nic = None
            if vi._state in ACTIVE_VI_STATES:
                self._active_vis -= 1
        self._owners.pop(vi.vi_id, None)
        self._rtx.pop(vi.vi_id, None)

    def on_vi_state_change(self, old: ViState, new: ViState) -> None:
        """Called by the VI state setter for every attached-VI transition."""
        self._active_vis += (new in ACTIVE_VI_STATES) - (old in ACTIVE_VI_STATES)

    def lookup_vi(self, vi_id: int) -> Optional[VI]:
        return self._vis.get(vi_id)

    @property
    def active_vi_count(self) -> int:
        """VIs the firmware must scan: connected or connecting."""
        return self._active_vis

    def recount_active_vis(self) -> int:
        """O(#VIs) recomputation of :attr:`active_vi_count` from scratch
        (tests assert it always agrees with the incremental counter)."""
        return sum(1 for vi in self._vis.values() if vi.state in ACTIVE_VI_STATES)

    # -- send path -------------------------------------------------------------
    def ring_doorbell(self, vi: VI) -> None:
        """Host posted a send descriptor on ``vi``; schedule NIC service."""
        self._tx_queue.append(vi)
        self._kick_tx()

    def _kick_tx(self) -> None:
        if self._tx_scheduled or not self._tx_queue:
            return
        self._tx_scheduled = True
        now = self.engine.now
        start = self._tx_busy_until
        if start < now:
            start = now
        # the firmware scans every active VI per message (paper Fig. 1)
        profile = self.profile
        done = start + (profile.nic_send_base_us
                        + profile.nic_per_vi_us * self._active_vis)
        self._tx_busy_until = done
        if self.telemetry is not None:
            self._tx_window = (start, done)  # exactly one tx service in flight
        # the entry's name is fingerprint material
        self.engine.call_later(done - now, self._service_one_tx, None,
                               "_service_one_tx")

    def _service_one_tx(self, _arg) -> None:
        self._tx_scheduled = False
        vi = self._tx_queue.popleft()
        # (per-packet paths read vi._state, vi._send_backlog, _owners, _vis,
        # the injector, the CQs and the service-time fields directly;
        # checking accessors are for the host)
        if not vi._send_backlog:  # pragma: no cover - doorbell/descriptor invariant
            raise ViaProtocolError(f"doorbell rung on VI {vi.vi_id} with empty send queue")
        desc = vi._send_backlog.popleft()
        now = self.engine.now
        if vi._state is not VI_CONNECTED or vi.peer is None:
            if self.telemetry is not None:
                start, done = self._tx_window
                self.telemetry.complete(
                    "nic.tx", ("node", self.node_id), start, done,
                    vi=vi.vi_id, kind="flushed", bytes=0,
                )
            desc.complete(DESC_FLUSHED, 0, now)
        else:
            remote_node, remote_vi = vi.peer
            payload = desc.payload
            if desc.op is OP_SEND:
                # <= eager_buffer_size: a pool would cost more than copy();
                # a bare header (control, RTS, zero-byte send) carries none
                data = payload.copy() if payload is not None and payload.size else None
                msg = DataMessage(remote_vi, vi.vi_id, desc.header, data,
                                  desc.descriptor_id)
                kind = "eager"
            elif desc.op is OP_RDMA_WRITE:
                # staged in a recycled block; _deliver_rdma returns it
                data = STAGING.take(payload.nbytes)
                data[:] = payload
                msg = RdmaWriteMessage(
                    remote_vi, vi.vi_id, desc.remote_handle,
                    desc.remote_offset, data, desc.descriptor_id,
                    flow_id=desc.flow_id,
                )
                kind = "rdma"
            else:  # pragma: no cover - enqueue_send() guards this
                raise ViaProtocolError(f"unexpected op {desc.op} on send queue")
            nbytes = 0 if data is None else data.nbytes
            wire = self.profile.header_bytes + nbytes
            injector = self.network.injector
            if injector is not None and remote_node != self.node_id:
                # lossy fabric: stamp a per-VI sequence number and keep
                # the message until the peer's cumulative ack covers it
                vi.tx_seq += 1
                msg.seq = vi.tx_seq
                self._track_unacked(vi, remote_node, msg, wire, kind,
                                    injector.plan)
            pkt = Packet(self.node_id, remote_node, wire, msg, kind)
            if self.telemetry is not None:
                pkt.flow_id = desc.flow_id
            self.network.send(pkt)
            self.messages_sent += 1
            if self.telemetry is not None:
                start, done = self._tx_window
                self.telemetry.complete(
                    "nic.tx", ("node", self.node_id), start, done,
                    vi=vi.vi_id, kind=kind, bytes=wire, flow=desc.flow_id,
                )
            desc.complete(DESC_SUCCESS, nbytes, now)
        cq = vi.send_cq  # CompletionQueue.push, inline
        entries = cq._entries
        entries.append(desc)
        cq.completions += 1
        if len(entries) > cq.high_water:
            cq.high_water = len(entries)
        self._owners[vi.vi_id].activity.fire()
        if self._tx_queue:
            self._kick_tx()

    # -- reliability sublayer (fault injection only) ---------------------------
    @property
    def _chaos_plan(self) -> Optional["FaultPlan"]:
        injector = self.network.injector
        return None if injector is None else injector.plan

    def _track_unacked(self, vi: VI, dst_node: int, msg, wire: int,
                       kind: str, plan: "FaultPlan") -> None:
        self._rtx.setdefault(vi.vi_id, {})[msg.seq] = _Inflight(
            msg, wire, dst_node, kind)
        self.engine.call_later(plan.rto_us, self._rtx_timeout,
                               (vi.vi_id, msg.seq), RTX_TIMER)

    def _rtx_timeout(self, key: Tuple[int, int]) -> None:
        vi_id, seq = key
        table = self._rtx.get(vi_id)
        item = None if table is None else table.get(seq)
        if item is None:
            return  # acked in the meantime, or the VI was torn down
        plan = self._chaos_plan
        if plan is None:  # pragma: no cover - injector removed mid-job
            table.pop(seq, None)
            return
        item.attempts += 1
        if item.attempts > plan.retransmit_limit:
            del table[seq]
            self.rtx_exhausted += 1
            if self.telemetry is not None:
                self.telemetry.instant(
                    "nic.rtx.exhausted", ("node", self.node_id),
                    vi=vi_id, seq=seq, kind=item.kind,
                )
            self.engine.call_later(0.0, mark, None,
                                   f"chaos.rtx-exhausted.{item.kind}")
            vi = self.lookup_vi(vi_id)
            if vi is not None:
                vi.state = VI_ERROR
                owner = self._owners.get(vi_id)
                if owner is not None:
                    owner.on_transport_failure(vi)
            return
        self.retransmissions += 1
        if self.telemetry is not None:
            self.telemetry.instant(
                "nic.rtx", ("node", self.node_id),
                vi=vi_id, seq=seq, attempt=item.attempts, kind=item.kind,
            )
        self.network.send(
            Packet(src=self.node_id, dst=item.dst_node,
                   wire_bytes=item.wire_bytes, payload=item.msg,
                   kind=item.kind)
        )
        delay = min(plan.rto_us * plan.rto_backoff ** item.attempts,
                    plan.rto_max_us)
        self.engine.call_later(delay, self._rtx_timeout, key, RTX_TIMER)

    def _on_transport_ack(self, ack: TransportAck) -> None:
        table = self._rtx.get(ack.dst_vi_id)
        if not table:
            return
        for seq in [s for s in table if s <= ack.cum_seq]:
            del table[seq]

    def _send_ack(self, vi: VI, src_node: int, src_vi_id: int) -> None:
        """Cumulative ack back to the sender (firmware fast path)."""
        self.rtx_acks_sent += 1
        self.network.send(
            Packet(src=self.node_id, dst=src_node, wire_bytes=ACK_WIRE_BYTES,
                   payload=TransportAck(dst_vi_id=src_vi_id,
                                        src_vi_id=vi.vi_id,
                                        cum_seq=vi.rx_cum),
                   kind="rtx-ack")
        )

    def _reliable_deliver(self, vi: VI, src_node: int, msg) -> None:
        """Dedup + reorder a sequenced arrival, then dispatch in order.

        Retransmissions of already-delivered messages and out-of-order
        arrivals are resolved *before* any receive descriptor is
        consumed, so the upper layer sees exactly-once, in-order
        delivery and its credit accounting stays exact.
        """
        seq = msg.seq
        if seq <= vi.rx_cum:
            self.rtx_dup_dropped += 1
            self._send_ack(vi, src_node, msg.src_vi_id)
            return
        if seq > vi.rx_cum + 1:
            # a gap: an earlier message is missing (lost or delayed)
            if vi.rx_ooo is None:
                vi.rx_ooo = {}
            vi.rx_ooo[seq] = msg
            self.rtx_ooo_buffered += 1
            self._send_ack(vi, src_node, msg.src_vi_id)
            return
        if not self._dispatch(vi, msg):
            # no pre-posted descriptor: do NOT advance rx_cum; the
            # sender's retransmission retries once the host reposts
            self.rtx_no_descriptor += 1
            self._send_ack(vi, src_node, msg.src_vi_id)
            return
        vi.rx_cum = seq
        while vi.rx_ooo:
            nxt = vi.rx_ooo.pop(vi.rx_cum + 1, None)
            if nxt is None:
                break
            if not self._dispatch(vi, nxt):
                # drop the buffered copy; retransmission recovers it
                self.rtx_no_descriptor += 1
                break
            vi.rx_cum += 1
        self._send_ack(vi, src_node, msg.src_vi_id)

    def _dispatch(self, vi: VI, msg) -> bool:
        """Hand one in-order message to the datapath; False if a
        DataMessage found no pre-posted receive descriptor (the message
        stays undelivered and unacked — not dropped — so the job-level
        drop accounting is untouched and retransmission recovers it)."""
        if isinstance(msg, DataMessage):
            if vi.posted_recv_count == 0:
                return False
            return self._deliver_data(vi, msg)
        if isinstance(msg, RdmaWriteMessage):
            self._deliver_rdma(vi, msg)
            return True
        raise ViaProtocolError(  # pragma: no cover - routing guards this
            f"NIC cannot handle {type(msg).__name__}")

    def release_early(self, vi: VI) -> None:
        """Re-service packets held while ``vi`` was CONNECT_PENDING.

        They go to the *front* of the service queue: anything already
        queued from this VI's peer arrived later, and per-VI arrival
        order must be preserved (MPI's non-overtaking rule depends on
        it)."""
        held = self._early.pop(vi.vi_id, None)
        if held:
            self._rx_queue.extendleft(reversed(held))
            self._kick_rx()

    # -- receive path ------------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        payload = packet.payload
        # exact-type fast path: data traffic vastly outnumbers connection
        # control and transport acks, so skip the isinstance chain for it
        cls = type(payload)
        if cls is DataMessage or cls is RdmaWriteMessage:
            self._rx_queue.append(packet)
            self._kick_rx()
            return
        if isinstance(payload, CONTROL_TYPES):
            if self.agent is None:  # pragma: no cover - wiring error
                raise ViaProtocolError(f"node {self.node_id} has no connection agent")
            self.agent.on_control(payload)
            return
        if isinstance(payload, TransportAck):
            self._on_transport_ack(payload)
            return
        self._rx_queue.append(packet)
        self._kick_rx()

    def _kick_rx(self) -> None:
        if self._rx_scheduled or not self._rx_queue:
            return
        self._rx_scheduled = True
        now = self.engine.now
        start = self._rx_busy_until
        if start < now:
            start = now
        # the firmware scans every active VI per message (paper Fig. 1)
        profile = self.profile
        done = start + (profile.nic_recv_base_us
                        + profile.nic_per_vi_us * self._active_vis)
        self._rx_busy_until = done
        if self.telemetry is not None:
            self._rx_window = (start, done)  # exactly one rx service in flight
        self.engine.call_later(done - now, self._service_one_rx, None,
                               "_service_one_rx")

    def _service_one_rx(self, _arg) -> None:
        self._rx_scheduled = False
        packet = self._rx_queue.popleft()
        msg = packet.payload
        vi = self._vis.get(msg.dst_vi_id)
        if self.telemetry is not None:
            start, done = self._rx_window
            self.telemetry.complete(
                "nic.rx", ("node", self.node_id), start, done,
                vi=msg.dst_vi_id, kind=packet.kind, bytes=packet.wire_bytes,
                flow=packet.flow_id,
            )
        if vi is not None and vi._state is VI_CONNECT_PENDING:
            # our side of the handshake is still in the kernel agent;
            # hold the packet and re-service it at establishment
            self.early_arrivals += 1
            self._early.setdefault(vi.vi_id, deque()).append(packet)
        elif vi is None or vi._state is not VI_CONNECTED:
            if getattr(msg, "seq", -1) > 0:
                # sequenced straggler (late retransmission after the VI
                # died or the job wound down): benign under chaos
                self.rtx_stale += 1
            else:
                self.dropped_bad_vi += 1
                if self.telemetry is not None:
                    self.telemetry.instant(
                        "nic.drop", ("node", self.node_id),
                        reason="bad_vi", vi=msg.dst_vi_id,
                    )
        elif msg.seq > 0:
            self._reliable_deliver(vi, packet.src, msg)
        elif isinstance(msg, DataMessage):
            self._deliver_data(vi, msg)
        elif isinstance(msg, RdmaWriteMessage):
            self._deliver_rdma(vi, msg)
        else:  # pragma: no cover - routing guards this
            raise ViaProtocolError(f"NIC cannot handle {type(msg).__name__}")
        if self._rx_queue:
            self._kick_rx()

    def _deliver_data(self, vi: VI, msg: DataMessage) -> bool:
        """Consume a receive descriptor for ``msg``; False if none posted."""
        desc = vi.pop_recv()
        if desc is None:
            # VIA semantics: no pre-posted descriptor => message dropped.
            self.dropped_no_recv_descriptor += 1
            if self.telemetry is not None:
                self.telemetry.instant(
                    "nic.drop", ("node", self.node_id),
                    reason="no_recv_descriptor", vi=vi.vi_id,
                )
            return False
        data = msg.data
        nbytes = 0
        if data is not None:
            nbytes = data.nbytes
            buffer = desc.buffer
            if nbytes > buffer.size:
                desc.complete(DESC_ERROR, 0, self.engine.now)
                vi.recv_cq.push(desc)
                self._owners[vi.vi_id].activity.fire()
                return True
            buffer.region.data[buffer.offset : buffer.offset + nbytes] = data
        desc.header = msg.header
        desc.complete(DESC_SUCCESS, nbytes, self.engine.now)
        self.messages_received += 1
        cq = vi.recv_cq  # CompletionQueue.push, inline
        entries = cq._entries
        entries.append(desc)
        cq.completions += 1
        if len(entries) > cq.high_water:
            cq.high_water = len(entries)
        self._owners[vi.vi_id].activity.fire()
        return True

    def _deliver_rdma(self, vi: VI, msg: RdmaWriteMessage) -> None:
        region = self._owners[vi.vi_id].registry.lookup(msg.remote_handle)
        region.write(msg.remote_offset, msg.data, vi.protection_tag)
        self.rdma_writes_received += 1
        # One-sided: no receive descriptor consumed, no completion entry.
        # The upper layer learns about the data from its own FIN message.
        if msg.seq < 0:
            # the staging lifetime rule (repro.memory.arena): never
            # sequenced, so delivered at most once — the block goes back;
            # a sequenced message may be delivered again and keeps it
            data, msg.data = msg.data, None
            STAGING.give(data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Nic node={self.node_id} profile={self.profile.name} "
            f"vis={len(self._vis)} active={self.active_vi_count}>"
        )
