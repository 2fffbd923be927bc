"""VI endpoints.

A VI is the connection-oriented, bidirectional endpoint at the heart of
the paper: creating one pins pre-posted buffers (the ~120 kB
the resource argument counts), and it is useless until connected to
exactly one remote VI.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, Tuple

from repro.memory.buffer_pool import BufferPool, PooledBuffer
from repro.via.completion_queue import CompletionQueue
from repro.via.constants import (
    DESC_PENDING,
    OP_RDMA_WRITE,
    OP_RECV,
    OP_SEND,
    VI_CONNECT_PENDING,
    VI_CONNECTED,
    VI_IDLE,
    ViaProtocolError,
    ViState,
)
from repro.via.descriptor import Descriptor, next_descriptor_id


class VI:
    """One Virtual Interface endpoint.

    Owned by a single simulated process; attached to that node's NIC.
    ``recv_pool`` is the arena of pre-posted eager buffers; the MPI layer
    re-posts a receive descriptor each time it consumes one.
    """

    __slots__ = (
        "vi_id",
        "node_id",
        "owner_rank",
        "_state",
        "nic",
        "monitor",
        "protection_tag",
        "send_cq",
        "recv_cq",
        "recv_pool",
        "send_pool",
        "extra_recv_pools",
        "_preposted",
        "_recv_queue",
        "_send_backlog",
        "peer",
        "remote_rank",
        "sends_posted",
        "recvs_posted",
        "user_context",
        "connected_at",
        "tx_seq",
        "rx_cum",
        "rx_ooo",
        "telemetry",
    )

    def __init__(
        self,
        vi_id: int,
        node_id: int,
        owner_rank: int,
        protection_tag: int,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        recv_pool: BufferPool,
        send_pool: BufferPool,
    ):
        self.vi_id = vi_id
        self.node_id = node_id
        self.owner_rank = owner_rank
        #: optional state-machine observer (see repro.analysis.sanitizers);
        #: must be set before the first transition to see it
        self.monitor = None
        #: the NIC this VI is attached to (set by Nic.attach_vi); the NIC
        #: keeps an incremental active-VI count so the firmware doorbell
        #: scan cost is O(1) to look up instead of O(#VIs) per service
        self.nic = None
        self._state = VI_IDLE
        self.protection_tag = protection_tag
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.recv_pool = recv_pool
        self.send_pool = send_pool
        #: chunks added by dynamic flow control (grown on demand)
        self.extra_recv_pools: Tuple[BufferPool, ...] = ()
        #: buffers of ``recv_pool`` pre-posted at creation and not yet
        #: consumed: the head of the receive queue, kept as a count —
        #: neither buffer object nor descriptor exists until the NIC
        #: takes one
        self._preposted = 0
        #: buffers posted since (re-posts, grown pools), FIFO behind those
        self._recv_queue: Deque[PooledBuffer] = deque()
        #: sends accepted before the NIC services them (the VI's Send Queue)
        self._send_backlog: Deque[Descriptor] = deque()
        #: (remote_node_id, remote_vi_id) once connected
        self.peer: Optional[Tuple[int, int]] = None
        #: remote MPI rank this VI is connected to (upper-layer convenience)
        self.remote_rank: Optional[int] = None
        self.sends_posted = 0
        self.recvs_posted = 0
        self.user_context: Any = None
        self.connected_at: float = -1.0
        # NIC reliability sublayer state (only used under fault
        # injection; see repro.chaos): last transmitted / last
        # cumulatively delivered sequence number, and the out-of-order
        # arrival buffer keyed by seq (made at the first gap)
        self.tx_seq = 0
        self.rx_cum = 0
        self.rx_ooo: Optional[dict] = None
        #: optional telemetry plane (set by the provider); None = untraced
        self.telemetry = None

    # -- connection state ---------------------------------------------------
    @property
    def state(self) -> ViState:
        return self._state

    @state.setter
    def state(self, new: ViState) -> None:
        """Every lifecycle transition funnels through here so an attached
        sanitizer sees raw assignments (teardown, NIC error paths) as
        well as the mark_* helpers."""
        old = self._state
        self._state = new
        if old is not new:
            if self.nic is not None:
                self.nic.on_vi_state_change(old, new)
            if self.monitor is not None:
                self.monitor.on_transition(self, old, new)

    @property
    def is_connected(self) -> bool:
        return self._state is VI_CONNECTED

    def mark_connect_pending(self) -> None:
        if self._state is not VI_IDLE:
            raise ViaProtocolError(
                f"VI {self.vi_id}: connect from state {self._state.value}"
            )
        self.state = VI_CONNECT_PENDING

    def mark_connected(self, remote_node: int, remote_vi: int, now: float) -> None:
        state = self._state
        if state is not VI_IDLE and state is not VI_CONNECT_PENDING:
            raise ViaProtocolError(
                f"VI {self.vi_id}: connected from state {state.value}"
            )
        self.state = VI_CONNECTED
        self.peer = (remote_node, remote_vi)
        self.connected_at = now

    # -- queues ---------------------------------------------------------------
    def prepost_arena(self) -> None:
        """Pre-post the whole of ``recv_pool`` (host side, VI creation)."""
        count = self.recv_pool.count
        self._preposted = count
        self.recvs_posted += count
        if self.telemetry is not None:
            self.telemetry.counter("via.recvs_posted").inc(count)

    def post_recv(self, buffer: PooledBuffer) -> None:
        """Post ``buffer`` for one receive (host side; the MPI arrival
        path re-posts a consumed buffer the same way, inline)."""
        self._recv_queue.append(buffer)
        self.recvs_posted += 1
        if self.telemetry is not None:
            self.telemetry.counter("via.recvs_posted").inc()

    def pop_recv(self) -> Optional[Descriptor]:
        """NIC side: consume the oldest posted receive, or None.

        The buffer's descriptor is built here, the first time a message
        needs it, and reset for each message after that."""
        if self._preposted:
            self._preposted -= 1
            buffer = self.recv_pool.acquire()
        elif self._recv_queue:
            buffer = self._recv_queue.popleft()
        else:
            return None
        desc = buffer.desc
        if desc is None:
            desc = buffer.desc = Descriptor(OP_RECV, self.vi_id, None, None,
                                            buffer)
        else:
            # the NIC completes it in the same call, which sets the
            # length and time; an error completion sets no header
            desc.descriptor_id = next_descriptor_id()
            desc.status = DESC_PENDING
            desc.header = None
        return desc

    @property
    def posted_recv_count(self) -> int:
        return self._preposted + len(self._recv_queue)

    def enqueue_send(self, descriptor: Descriptor) -> None:
        """Accept a send/RDMA descriptor onto the Send Queue.

        VIA semantics: posting to an unconnected VI is an error the
        provider surfaces immediately (the paper's on-demand design keeps
        its *own* FIFO above this layer precisely because of this rule).
        """
        if self._state is not VI_CONNECTED:
            raise ViaProtocolError(
                f"VI {self.vi_id}: send posted while {self.state.value}; "
                "requests on an unconnected VI are discarded"
            )
        if descriptor.op not in (OP_SEND, OP_RDMA_WRITE):
            raise ViaProtocolError("only SEND/RDMA descriptors go on the send queue")
        if self.telemetry is not None:
            name = (
                "via.desc.send" if descriptor.op is OP_SEND
                else "via.desc.rdma"
            )
            descriptor.tel_span = self.telemetry.begin(
                name, ("rank", self.owner_rank), vi=self.vi_id,
            )
        self._send_backlog.append(descriptor)
        self.sends_posted += 1

    @property
    def pending_send_count(self) -> int:
        return len(self._send_backlog)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<VI #{self.vi_id} node={self.node_id} rank={self.owner_rank} "
            f"{self.state.value} peer={self.peer}>"
        )
