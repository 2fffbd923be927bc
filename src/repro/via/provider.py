"""Host-facing VIA provider — one per simulated process.

Method names shadow the VIP API (``VipCreateVi``, ``VipPostSend``,
``VipConnectPeerRequest``...).  Every host-side method returns the time
it costs (µs) — or a ``(result, cost)`` tuple — and the *caller* (the
MPI ADI layer) charges that time to the simulated clock by yielding a
timeout.  NIC and kernel-agent work proceeds autonomously through
engine callbacks.

The provider also owns the per-process **activity signal** that the MPI
progress engine parks on: the NIC fires it on every completion, the
agent on every connection event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.memory.buffer_pool import BufferPool
from repro.memory.region import as_bytes
from repro.memory.registry import MemoryRegistry, RegistrationCache
from repro.sim.engine import Engine
from repro.sim.signal import Signal
from repro.via.agent import ConnectionAgent
from repro.via.completion_queue import CompletionQueue
from repro.via.constants import (
    OP_RDMA_WRITE,
    OP_SEND,
    VI_CONNECTED,
    VI_DISCONNECTED,
    VI_IDLE,
    ViaProtocolError,
)
from repro.via.descriptor import Descriptor
from repro.via.messages import CsConnRequest, Discriminator
from repro.via.nic import Nic
from repro.via.vi import VI


@dataclass(frozen=True)
class ViConfig:
    """Per-VI buffer provisioning.

    Defaults reproduce MVICH's footprint the paper cites: 16 pre-posted
    5000-byte receive buffers + 8 send bounce buffers = 120 kB of pinned
    memory per VI.
    """

    prepost_count: int = 16
    send_pool_count: int = 8
    eager_buffer_size: int = 5000

    @property
    def pinned_bytes_per_vi(self) -> int:
        return (self.prepost_count + self.send_pool_count) * self.eager_buffer_size


class ViaProvider:
    """The VIP library instance of one process."""

    def __init__(
        self,
        engine: Engine,
        nic: Nic,
        agent: ConnectionAgent,
        registry: MemoryRegistry,
        rank: int,
        job_id: int = 0,
        config: Optional[ViConfig] = None,
    ):
        self.engine = engine
        self.nic = nic
        self.agent = agent
        self.profile = nic.profile
        self.registry = registry
        self.rank = rank
        self.job_id = job_id
        self.config = config or ViConfig()
        self.activity = Signal(engine, name=f"via.activity.r{rank}")
        #: one send CQ and one recv CQ shared by all this process's VIs,
        #: the arrangement MVICH uses for its progress loop
        self.send_cq = CompletionQueue(f"send-cq.r{rank}")
        self.recv_cq = CompletionQueue(f"recv-cq.r{rank}")
        self.dreg = RegistrationCache(registry)
        self._pool_labels = (f"r{rank}.recv", f"r{rank}.send")
        #: create_vi's host cost, the same for every VI of this process:
        #: summed at the first creation
        self._create_vi_us: Optional[float] = None
        agent.register_local(self)
        #: optional telemetry plane; None = untraced (zero overhead).
        #: Propagated to each VI at creation.
        self.telemetry = None
        #: optional sanitizer plane (repro.analysis); None = unchecked.
        #: Supplies each VI's state monitor and observes VI teardown.
        self.sanitizer = None

        #: VIs the agent flipped to CONNECTED, awaiting the MPI layer's
        #: next progress pass (in establishment order)
        self.established: list = []
        #: agent-delivered disconnect control messages awaiting the MPI
        #: layer's next progress pass
        self.pending_disconnects: list = []
        #: VIs whose transport retransmit budget was exhausted (fault
        #: injection), awaiting the MPI layer's next progress pass
        self.transport_failures: list = []

        # counters for the paper's resource tables
        self.vis_created = 0
        self.vis_destroyed = 0
        self.connections_established = 0
        self._vis: dict[int, VI] = {}

    # ------------------------------------------------------------------ VIs --
    def create_vi(self, remote_rank: Optional[int] = None) -> Tuple[VI, float]:
        """VipCreateVi + buffer provisioning; returns (vi, host_cost_us)."""
        cfg = self.config
        nic = self.nic
        tag = self.rank + 1
        recv_label, send_label = self._pool_labels
        recv_pool = BufferPool(
            self.registry, cfg.prepost_count, cfg.eager_buffer_size,
            protection_tag=tag, label=recv_label,
        )
        send_pool = BufferPool(
            self.registry, cfg.send_pool_count, cfg.eager_buffer_size,
            protection_tag=tag, label=send_label,
        )
        vi = VI(
            vi_id=nic.allocate_vi_id(),
            node_id=nic.node_id,
            owner_rank=self.rank,
            protection_tag=tag,
            send_cq=self.send_cq,
            recv_cq=self.recv_cq,
            recv_pool=recv_pool,
            send_pool=send_pool,
        )
        vi.remote_rank = remote_rank
        vi.telemetry = self.telemetry
        if self.sanitizer is not None:
            vi.monitor = self.sanitizer.vi_monitor
        nic.attach_vi(vi, self)
        self._vis[vi.vi_id] = vi
        vi.prepost_arena()
        cost = self._create_vi_us
        if cost is None:
            cost = (
                self.profile.create_vi_us
                + recv_pool.registration_cost_us
                + send_pool.registration_cost_us
            )
            for _ in range(cfg.prepost_count):
                # one post at a time, so the float is the one the host
                # would accumulate posting each descriptor
                cost += self.profile.post_recv_us
            self._create_vi_us = cost
        self.vis_created += 1
        return vi, cost

    def grow_recv_pool(self, vi: VI, count: int) -> float:
        """Dynamic flow control: pin and pre-post ``count`` more eager
        buffers on ``vi``; returns the host cost."""
        pool = BufferPool(
            self.registry, count, self.config.eager_buffer_size,
            protection_tag=vi.protection_tag,
            label=f"r{self.rank}.recv-grow",
        )
        vi.extra_recv_pools += (pool,)
        cost = pool.registration_cost_us
        for _ in range(count):
            vi.post_recv(pool.acquire())
            cost += self.profile.post_recv_us
        return cost

    def destroy_vi(self, vi: VI) -> float:
        """VipDestroyVi: detach and unpin."""
        if vi.vi_id not in self._vis:
            raise ViaProtocolError(f"VI {vi.vi_id} does not belong to rank {self.rank}")
        if self.sanitizer is not None:
            # snapshot descriptor lifecycles before the queues are torn down
            self.sanitizer.on_vi_destroyed(vi)
        self.nic.detach_vi(vi)
        del self._vis[vi.vi_id]
        # the arenas are recycled only if the endpoint died quietly: one
        # torn down in error, mid-connect or with sends the NIC has yet
        # to service may still be referenced, and keeps its memory
        state = vi._state
        quiet = ((state is VI_IDLE or state is VI_CONNECTED)
                 and not vi._send_backlog)
        vi.state = VI_DISCONNECTED
        cost = self.profile.destroy_vi_us
        vi.recv_pool.destroy(reusable=quiet)
        vi.send_pool.destroy(reusable=quiet)
        for pool in vi.extra_recv_pools:
            pool.destroy(reusable=quiet)
        self.vis_destroyed += 1
        return cost

    @property
    def live_vi_count(self) -> int:
        return len(self._vis)

    def vis(self):
        """Iterate over this process's live VIs."""
        return self._vis.values()

    def close(self) -> None:
        """The process is done with the NIC (teardown, after its VIs are
        destroyed): the node's agent forgets it."""
        self.agent.unregister_local(self)

    # ------------------------------------------------------------- datapath --
    def repost_recv(self, vi: VI, buffer) -> float:
        """Re-post a consumed eager buffer for a fresh receive."""
        vi.post_recv(buffer)
        return self.profile.post_recv_us

    def post_send(
        self, vi: VI, header, payload: Optional[np.ndarray], context=None
    ) -> Tuple[Descriptor, float]:
        """VipPostSend of an eager message.

        Copies ``payload`` into a pinned bounce buffer (host memcpy,
        charged), posts the descriptor and rings the doorbell.  Raises
        :class:`BufferPoolError` when no bounce buffer is free — the ADI
        checks for one first and throttles (that's MPI-level send flow
        control).
        """
        nbytes = 0 if payload is None else int(payload.nbytes)
        if nbytes > self.config.eager_buffer_size:
            raise ViaProtocolError(
                f"eager payload of {nbytes}B exceeds buffer size "
                f"{self.config.eager_buffer_size}"
            )
        bounce = vi.send_pool.acquire()
        cost = self.profile.post_send_us
        data_view = bounce.region.data[bounce.offset : bounce.offset + nbytes]
        if payload is not None:
            # one flattening (none for the flat bytes MPI hands down),
            # one copy; the size check above covers the bounce buffer
            data_view[:] = as_bytes(payload)
            cost += self.profile.copy_us(nbytes)
        desc = Descriptor(
            OP_SEND, vi.vi_id, header=header, payload=data_view,
            buffer=bounce, context=context,
            flow_id=getattr(header, "flow_id", 0),
        )
        vi.enqueue_send(desc)
        nic = self.nic  # ring_doorbell(), inline
        nic._tx_queue.append(vi)
        nic._kick_tx()
        return desc, cost

    def release_send_buffer(self, desc: Descriptor) -> None:
        """Return the bounce buffer of a completed send descriptor."""
        if desc.buffer is not None:
            desc.buffer.pool.release(desc.buffer)
            desc.buffer = None

    def post_rdma_write(
        self, vi: VI, payload: np.ndarray, remote_handle: int,
        remote_offset: int = 0, context=None, flow_id: int = 0,
    ) -> Tuple[Descriptor, float]:
        """VipPostSend of an RDMA-write descriptor (zero copy).

        ``payload`` must already live in registered memory (the caller
        went through the dreg cache); no bounce buffer is used.
        """
        desc = Descriptor(
            OP_RDMA_WRITE, vi.vi_id, payload=as_bytes(payload),
            remote_handle=remote_handle, remote_offset=remote_offset,
            context=context, flow_id=flow_id,
        )
        vi.enqueue_send(desc)
        self.nic.ring_doorbell(vi)
        return desc, self.profile.post_send_us

    def poll_send_cq(self) -> Optional[Descriptor]:
        """VipCQDone on the send CQ (free; the progress loop charges polls)."""
        return self.send_cq.poll()

    def poll_recv_cq(self) -> Optional[Descriptor]:
        return self.recv_cq.poll()

    # ------------------------------------------------------------ connections --
    def discriminator_for(self, other_rank: int) -> Discriminator:
        """The (job, low, high) discriminator of the pair (self, other)."""
        lo, hi = sorted((self.rank, other_rank))
        return (self.job_id, lo, hi)

    def connect_peer_request(
        self, vi: VI, remote_node: int, remote_rank: int
    ) -> float:
        """VipConnectPeerRequest: nonblocking, symmetric."""
        self.agent.peer_request(
            vi, remote_node, self.discriminator_for(remote_rank),
            src_rank=self.rank, dst_rank=remote_rank,
        )
        return self.profile.connection.host_request_us

    def connect_peer_done(self, vi: VI) -> bool:
        """VipConnectPeerDone: nonblocking establishment check."""
        return vi._state is VI_CONNECTED

    def connect_peer_retry(
        self, vi: VI, remote_node: int, remote_rank: int
    ) -> float:
        """Resend a peer request whose control packet may have been lost
        (connect-timeout recovery under fault injection)."""
        self.agent.peer_request_retry(
            vi, remote_node, self.discriminator_for(remote_rank),
            src_rank=self.rank, dst_rank=remote_rank,
        )
        return self.profile.connection.host_request_us

    def connect_peer_cancel(self, vi: VI, remote_rank: int) -> float:
        """Abandon an in-flight peer request (retry budget exhausted)."""
        self.agent.cancel_peer_request(
            self.discriminator_for(remote_rank), self.rank
        )
        return 0.0

    def on_transport_failure(self, vi: VI) -> None:
        """NIC callback: ``vi``'s retransmit budget is exhausted; the
        MPI progress engine surfaces it at its next device check."""
        self.transport_failures.append(vi)
        self.activity.fire()

    def listen(self) -> None:
        """Register this rank as a client/server-model server."""
        self.agent.listen(self.rank, self.job_id)

    def poll_connect_wait(
        self, from_rank: Optional[int] = None
    ) -> Tuple[Optional[CsConnRequest], float]:
        """One VipConnectWait poll; returns (request_or_None, host_cost)."""
        req = self.agent.poll_cs_request(self.rank, from_rank, self.job_id)
        return req, self.profile.connection.host_wait_poll_us

    def connect_accept(self, req: CsConnRequest, vi: VI) -> float:
        """VipConnectAccept (server side)."""
        self.agent.accept(req, vi)
        return self.profile.connection.host_accept_us

    def connect_client_request(
        self, vi: VI, server_node: int, server_rank: int
    ) -> float:
        """VipConnectRequest (client side of the client/server model)."""
        self.agent.client_request(
            vi, server_node, server_rank, self.rank,
            self.discriminator_for(server_rank),
        )
        return self.profile.connection.host_request_us

    def on_connection_established(self, vi: VI) -> None:
        """Agent callback when one of our VIs transitions to CONNECTED."""
        self.connections_established += 1
        self.established.append(vi)
        if self.telemetry is not None:
            self.telemetry.counter("via.connections_established").inc()
        self.activity.fire()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ViaProvider rank={self.rank} node={self.nic.node_id} "
            f"vis={len(self._vis)} conns={self.connections_established}>"
        )
