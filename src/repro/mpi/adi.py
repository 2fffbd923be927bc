"""The ADI device: MVICH's MPID layer over the VIA provider.

This module is where the paper's modifications live.  Naming follows
MVICH (paper §4):

* :meth:`AbstractDevice.isend_contig` — ``MPID_IsendContig`` /
  ``MPID_IssendContig``: checks the destination channel, creates a VI
  and issues a peer connection request on first use (on-demand), and
  stores the send in the channel's pre-posted send FIFO when it cannot
  go out yet.
* :meth:`AbstractDevice.irecv` — ``MPID_VIA_Irecv``: same lazy
  connection behaviour on the receive side; an ``MPI_ANY_SOURCE``
  receive issues peer connection requests to *every* process in the
  communicator (paper §3.5).
* :meth:`AbstractDevice.device_check` — ``MPID_DeviceCheck``: the weak
  progress engine invoked from every MPI call.  One non-blocking pass
  (:meth:`AbstractDevice.progress_pass`, a plain method the generator
  wraps): drain both completion queues, progress pending connection
  requests "as another type of nonblocking communication request"
  (paper §3.3), and post whatever the channels can now send.
* :meth:`AbstractDevice.wait_until` — the completion loop implementing
  *polling* and *spinwait* (paper §5.3).

Protocols: eager (payload ≤ ``eager_threshold``) with credit flow
control; rendezvous (RTS → CTS carrying a dreg-registered region →
RDMA write → FIN) beyond.  Self-sends short-circuit above the device,
as in MPICH.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.memory.region import as_bytes
from repro.mpi.channel import (
    CH_CONNECTED,
    CH_DRAINING,
    CH_FAILED,
    CH_UNOPENED,
    Channel,
    PendingSend,
)
from repro.mpi.config import MpiConfig
from repro.mpi.constants import (
    ANY_SOURCE,
    MODE_BUFFERED,
    MODE_STANDARD,
    MODE_SYNCHRONOUS,
    PROC_NULL,
    ConnectionFailed,
    MpiError,
    SendMode,
)
from repro.mpi.headers import (
    AckHeader,
    CreditHeader,
    CtsHeader,
    EagerHeader,
    FinHeader,
    RtsHeader,
)
from repro.mpi.matching import MatchingEngine, UnexpectedMessage
from repro.mpi.request import KIND_RECV, KIND_SEND, Request
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.via.constants import OP_RDMA_WRITE
from repro.via.provider import ViaProvider


class AbstractDevice:
    """One process's MPI device."""

    def __init__(
        self,
        engine: Engine,
        provider: ViaProvider,
        config: MpiConfig,
        rank: int,
        size: int,
        rank_to_node: Callable[[int], int],
        streams: RngStreams,
    ):
        self.engine = engine
        self.provider = provider
        self.config = config
        self.rank = rank
        self.size = size
        self.rank_to_node = rank_to_node
        self.matching = MatchingEngine()
        self.channels: Dict[int, Channel] = {}
        self._vi_to_channel: Dict[int, Channel] = {}
        #: sends awaiting a CTS, keyed by send request id
        self._awaiting_cts: Dict[int, Request] = {}
        #: synchronous eager sends awaiting the match ack
        self._awaiting_ack: Dict[int, Request] = {}
        #: rendezvous receives awaiting FIN, keyed by recv request id
        self._awaiting_fin: Dict[int, Request] = {}
        #: channels with queued sends or control messages, by peer rank;
        #: the post pass visits them in the order they first queued work
        self._dirty: Dict[int, Channel] = {}
        #: channels whose return-credits are due an explicit update
        #: unless a header picks them up first, in the order they fell due
        self._owing: Dict[int, Channel] = {}
        self._cost_us = 0.0
        # set by the job runtime
        self.conn = None  # type: ignore[assignment]
        #: optional telemetry plane; None = untraced (zero overhead)
        self.telemetry = None
        #: the job's named random streams; connect-retry jitter draws
        #: from this rank's own (see :meth:`retry_jitter`)
        self.streams = streams
        # metrics
        self.init_started_at = -1.0
        self.init_done_at = -1.0
        self.device_checks = 0
        self.blocking_waits = 0
        self.self_messages = 0

    # ------------------------------------------------------------- helpers --
    @property
    def profile(self):
        return self.provider.profile

    def charge(self, us: float) -> None:
        """Accumulate host time; flushed as one sleep per yield point."""
        self._cost_us += us

    def retry_jitter(self) -> float:
        """One uniform draw in [0, 1) from this rank's connect-retry
        stream, ``chaos.conn-retry.r{rank}`` of the job's streams.  The
        stream is made at the first draw, so a job without retries
        builds no Generator."""
        return float(
            self.streams.stream(f"chaos.conn-retry.r{self.rank}").random())

    def flush_cost(self):
        """A sleep (for the rank's process to yield) charging all
        accumulated host time (possibly zero)."""
        cost, self._cost_us = self._cost_us, 0.0
        return self.engine.sleep(cost, "host-cost")

    def new_channel(self, dest: int) -> Channel:
        if dest in self.channels:  # pragma: no cover - manager contract
            raise MpiError(f"channel to {dest} already exists")
        # explicit updates must fit the reserved descriptors: at most
        # data_credits/threshold explicit messages can be un-processed at
        # the peer, so threshold = ceil(data_credits / control_reserve)
        threshold = -(-self.config.data_credits // self.config.control_reserve)
        initial = (self.config.initial_credits if self.config.dynamic_buffers
                   else self.config.data_credits)
        ch = Channel(
            dest,
            data_credits=initial,
            explicit_threshold=threshold,
            rndv_window=self.config.rndv_window,
        )
        self.channels[dest] = ch
        return ch

    def open_channel_vi(self, ch: Channel) -> None:
        """Create the channel's VI (host cost charged)."""
        if self.telemetry is not None and ch.tel_connect is None:
            # covers VI creation through establishment, any manager
            ch.tel_connect = self.telemetry.begin(
                "conn.connect", ("rank", self.rank), peer=ch.dest,
                mechanism=self.conn.name,
            )
        vi, cost = self.provider.create_vi(remote_rank=ch.dest)
        self._cost_us += cost
        ch.vi = vi
        ch.opened_at = self.engine.now
        self._vi_to_channel[vi.vi_id] = ch

    def channel_of(self, vi) -> Optional[Channel]:
        """The channel whose current VI is ``vi`` (None once torn down)."""
        return self._vi_to_channel.get(vi.vi_id)

    def mark_channel_connected(self, ch: Channel) -> None:
        ch.state = CH_CONNECTED
        ch.connected_at = self.engine.now
        ch.last_used_at = self.engine.now
        if self.telemetry is not None:
            # per-mechanism lifecycle metrics: connect-cycle setup time
            # (VI creation through establishment) and setup count
            mech = self.conn.name
            self.telemetry.histogram(f"conn.{mech}.setup_us").observe(
                self.engine.now - ch.opened_at)
            self.telemetry.counter(f"conn.{mech}.connections").inc()
        if ch.tel_connect is not None:
            ch.tel_connect.end(ok=True, vi=ch.vi.vi_id)
            ch.tel_connect = None
        if ch.send_fifo or ch.control_queue:
            self._dirty[ch.dest] = ch

    # --------------------------------------------------- connection cache --
    def channel_quiescent(self, ch: Channel) -> bool:
        """True when nothing is in flight on ``ch`` in either direction:
        safe to tear the connection down."""
        if ch.state not in (CH_CONNECTED, CH_DRAINING):
            return False
        if ch.pending_count or ch.rndv_outstanding:
            return False
        dest = ch.dest
        # a posted receive naming (or wildcarding) this peer still needs
        # the connection: the peer cannot deliver to a torn-down VI
        if self.matching.has_posted_for(dest):
            return False
        for table in (self._awaiting_cts, self._awaiting_ack,
                      self._awaiting_fin):
            if any(req.peer == dest or req.status.source == dest
                   for req in table.values()):
                return False
        return True

    def teardown_channel(self, ch: Channel) -> None:
        """Destroy the channel's VI (eviction or finalize); the channel
        object survives and can reconnect later."""
        if ch.tel_connect is not None:
            # connect cycle abandoned (retry exhausted / finalize)
            ch.tel_connect.end(ok=False)
            ch.tel_connect = None
        if ch.vi is not None:
            self._vi_to_channel.pop(ch.vi.vi_id, None)
            self.charge(self.provider.destroy_vi(ch.vi))
            ch.vi = None
        ch.state = CH_UNOPENED
        ch.evictions += 1
        # a reconnection starts from a fresh VI with a full window
        ch.credits = self.config.data_credits
        ch.granted_total = self.config.data_credits
        ch.credits_to_return = 0
        self._owing.pop(ch.dest, None)

    # ------------------------------------------------------------ send side --
    def isend_contig(
        self,
        dest: int,
        tag: int,
        context_id: int,
        data: Optional[np.ndarray],
        mode: SendMode = SendMode.STANDARD,
    ) -> Request:
        """MPID_IsendContig / MPID_IssendContig / buffered / ready."""
        payload = as_bytes(data)
        nbytes = 0 if payload is None else payload.nbytes
        now = self.engine.now
        req = Request(
            KIND_SEND, context_id, dest, tag, payload, nbytes, mode, now,
        )
        if dest == PROC_NULL:
            req.complete(now)
            return req
        if not (0 <= dest < self.size):
            raise MpiError(f"invalid destination rank {dest} (size {self.size})")
        if dest == self.rank:
            self._send_to_self(req)
            return req

        ch = self.conn.channel_for(dest)
        eager = nbytes <= self.config.eager_threshold
        flow = 0
        if self.telemetry is not None:
            # one causal flow per MPI-level message, propagated through
            # header -> descriptor -> NIC -> packet to remote completion
            flow = self.telemetry.new_flow()
            req.flow_id = flow
            # begin before the buffered-mode early completion below
            req.tel_span = self.telemetry.begin(
                "mpi.send.eager" if eager else "mpi.send.rndv",
                ("rank", self.rank),
                dest=dest, tag=tag, nbytes=nbytes, mode=mode.value,
                flow=flow, job=self.provider.job_id,
            )

        send_payload = payload
        if mode is MODE_BUFFERED:
            # local semantics: copy out and complete immediately; the
            # protocol (incl. a later RDMA) works from the snapshot
            if payload is not None:
                send_payload = payload.copy()
                req.buffer = send_payload
                self._cost_us += self.provider.profile.copy_us(nbytes)
            req.complete(now)

        if eager:
            header = EagerHeader(
                src_rank=self.rank, context_id=context_id, tag=tag,
                nbytes=nbytes, sync=(mode is MODE_SYNCHRONOUS),
                request_id=req.request_id, flow_id=flow,
            )
            item = PendingSend(header, send_payload, req, False, now)
        else:
            header = RtsHeader(
                src_rank=self.rank, context_id=context_id, tag=tag,
                nbytes=nbytes, request_id=req.request_id, flow_id=flow,
            )
            item = PendingSend(header, send_payload, req, True, now)
            self._awaiting_cts[req.request_id] = req
        # the next channel sequence number (checked on arrival by
        # Channel.check_envelope_order)
        header.seq = ch.seq_out
        ch.seq_out += 1
        ch.send_fifo.append(item)
        self._dirty[ch.dest] = ch
        self._post_pending(ch)
        return req

    def _send_to_self(self, req: Request) -> None:
        """MPICH-style self-send short circuit (no VIA involved)."""
        self.self_messages += 1
        nbytes = req.nbytes
        match = self.matching.match_arrival(self.rank, req.comm_context, req.tag)
        if match is not None:
            self._copy_into_recv(match, req.buffer, nbytes, self.rank, req.tag)
            match.complete(self.engine.now)
        else:
            staged = None
            if req.buffer is not None:
                staged = req.buffer.copy()
                self._cost_us += self.provider.profile.copy_us(nbytes)
            self.matching.add_unexpected(
                UnexpectedMessage(
                    src_rank=self.rank, context_id=req.comm_context, tag=req.tag,
                    nbytes=nbytes, seq=-1, data=staged, is_rts=False,
                    arrived_at=self.engine.now,
                )
            )
        # a self-send is locally buffered: complete now (synchronous mode
        # completes too — the message is guaranteed deliverable locally)
        if not req.done:
            req.complete(self.engine.now)

    # ------------------------------------------------------------ recv side --
    def irecv(
        self,
        source: int,
        tag: int,
        context_id: int,
        buffer: Optional[np.ndarray],
    ) -> Request:
        """MPID_VIA_Irecv."""
        if buffer is not None and not buffer.flags["C_CONTIGUOUS"]:
            raise MpiError("receive buffers must be C-contiguous")
        buf = as_bytes(buffer)
        now = self.engine.now
        req = Request(
            KIND_RECV, context_id, source, tag, buf,
            0 if buf is None else buf.nbytes, MODE_STANDARD, now,
        )
        if source == PROC_NULL:
            req.status.source = PROC_NULL
            req.status.tag = -1
            req.complete(now)
            return req
        if source != ANY_SOURCE and not (0 <= source < self.size):
            raise MpiError(f"invalid source rank {source} (size {self.size})")

        # paper §3.5 / §4: the receive side also creates VIs and issues
        # peer requests; ANY_SOURCE connects to everybody.  Self-receives
        # short-circuit above the device and need no connection.
        if source != self.rank:
            self.conn.on_recv_posted(source)

        if self.telemetry is not None:
            req.tel_span = self.telemetry.begin(
                "mpi.recv", ("rank", self.rank), source=source, tag=tag,
            )
        msg = self.matching.match_posted_recv(req)
        if msg is None:
            self.matching.add_posted(req)
            return req
        if msg.is_rts:
            ch = self.channels[msg.src_rank]
            self._start_rndv_response(req, ch, msg)
        else:
            if req.tel_span is not None:
                req.tel_span.set(flow=msg.flow_id)
            self._copy_into_recv(req, msg.data, msg.nbytes, msg.src_rank, msg.tag)
            req.complete(now)
            if msg.sync:
                self._queue_control(
                    self.channels[msg.src_rank],
                    AckHeader(src_rank=self.rank, send_request_id=msg.send_request_id,
                              flow_id=msg.flow_id),
                )
        return req

    def _copy_into_recv(
        self, req: Request, data: Optional[np.ndarray], nbytes: int,
        src: int, tag: int,
    ) -> None:
        buffer = req.buffer
        if nbytes > (0 if buffer is None else buffer.nbytes):
            raise MpiError(
                f"truncation: rank {self.rank} posted {req.nbytes}-byte recv "
                f"for a {nbytes}-byte message from {src} tag {tag}"
            )
        if data is not None and nbytes:
            buffer[:nbytes] = data[:nbytes]
            self._cost_us += self.provider.profile.copy_us(nbytes)
        req.status.source = src
        req.status.tag = tag
        req.status.nbytes = nbytes

    # ---------------------------------------------------------- rendezvous --
    def _start_rndv_response(
        self, req: Request, ch: Channel, msg: UnexpectedMessage
    ) -> None:
        """Matched an RTS: register the user buffer, send the CTS."""
        if msg.nbytes > (0 if req.buffer is None else req.buffer.nbytes):
            raise MpiError(
                f"truncation: rank {self.rank} posted {req.nbytes}-byte recv "
                f"for a {msg.nbytes}-byte rendezvous from {msg.src_rank}"
            )
        region, cost = self.provider.dreg.acquire(
            req.buffer, protection_tag=ch.vi.protection_tag
        )
        self._cost_us += cost
        req.rndv_handle = region.handle
        req.rndv_region = region
        req.status.source = msg.src_rank
        req.status.tag = msg.tag
        req.status.nbytes = msg.nbytes
        if req.tel_span is not None:
            req.tel_span.set(flow=msg.flow_id)
        self._awaiting_fin[req.request_id] = req
        self._queue_control(
            ch,
            CtsHeader(
                src_rank=self.rank,
                send_request_id=msg.send_request_id,
                recv_request_id=req.request_id,
                region_handle=region.handle,
                region_offset=0,
                flow_id=msg.flow_id,
            ),
        )

    # ------------------------------------------------------------- posting --
    def _queue_control(self, ch: Channel, header) -> None:
        ch.control_queue.append(
            PendingSend(header, None, None, False, self.engine.now)
        )
        self._dirty[ch.dest] = ch
        self._post_pending(ch)

    def take_return_credits(self, ch: Channel) -> int:
        """All of ``ch``'s accumulated return-credits, for an outgoing
        header (or a disconnect handshake) to carry."""
        self._owing.pop(ch.dest, None)
        return ch.take_piggyback()

    def _post_pending(self, ch: Channel) -> None:
        """Post everything the channel can send right now: control
        messages first, then the send FIFO in order, each while credits
        (explicit credit updates need none), the rendezvous window and a
        free bounce buffer allow.

        These rules live here only (``tests/test_mpi_channel_config.py``
        drives them through real jobs); the channel's ``take_piggyback``
        and the bounce-buffer pool's free count are read inline."""
        provider = self.provider
        now = self.engine.now
        control = ch.control_queue
        fifo = ch.send_fifo
        while ch.state is CH_CONNECTED:
            if control:
                queue = control
                item = control[0]
                credit = not isinstance(item.header, CreditHeader)
                if credit and ch.credits <= 0:
                    break
            elif fifo:
                queue = fifo
                item = fifo[0]
                credit = True
                if ch.credits <= 0 or (
                        item.is_rts and ch.rndv_outstanding >= ch.rndv_window):
                    break
            else:
                break
            pool = ch.vi.send_pool
            if pool.count - len(pool._buffers) + len(pool._free) <= 0:
                break  # no bounce buffer free
            queue.popleft()
            header = item.header
            if credit:
                ch.credits -= 1
            self._owing.pop(ch.dest, None)  # take_return_credits()
            header.piggyback_credits = ch.credits_to_return
            ch.credits_to_return = 0
            if self.config.dynamic_buffers:
                # demand signal for the receiver's window growth
                header.queued_behind = len(ch.send_fifo)
            req = item.request
            if self.telemetry is not None and req is not None:
                # attribute the channel-FIFO wait of this message: the
                # part spent waiting for the connection (first-message
                # penalty) vs flow control (credits / bounce buffers)
                wait_us = now - item.enqueued_at
                connect_us = 0.0
                if ch.connected_at > item.enqueued_at:
                    connect_us = min(ch.connected_at - item.enqueued_at, wait_us)
                    self.telemetry.histogram(
                        f"conn.{self.conn.name}.first_msg_penalty_us"
                    ).observe(connect_us)
                if req.tel_span is not None:
                    req.tel_span.set(
                        connect_stall_us=connect_us,
                        fc_stall_us=wait_us - connect_us,
                    )
            # an RTS is a bare envelope: the payload travels later by RDMA
            payload = item.payload
            desc, cost = provider.post_send(
                ch.vi, header, None if item.is_rts else payload,
                context=("msg", req),
            )
            self._cost_us += cost
            ch.messages_sent += 1
            ch.last_used_at = now
            if payload is not None:
                ch.bytes_sent += payload.nbytes
            if item.is_rts:
                ch.rndv_outstanding += 1
            if req is not None and isinstance(header, EagerHeader):
                if header.sync:
                    self._awaiting_ack[req.request_id] = req
                elif not req.done:
                    # standard eager: locally buffered once it is on a
                    # connected VI (paper §4's semantic note)
                    req.complete(now)
        if not ch.send_fifo and not ch.control_queue:
            self._dirty.pop(ch.dest, None)

    # ------------------------------------------------------------- progress --
    def progress_pass(self) -> bool:
        """The body of MPID_DeviceCheck: one non-blocking progress pass.

        Accumulates host time for the caller to flush at its next yield
        point.  Returns True if any progress was made.
        """
        self.device_checks += 1
        provider = self.provider
        profile = provider.profile
        self._cost_us += profile.cq_poll_us
        progressed = False

        # Every step below first asks whether there is anything to do:
        # a process polls far more often than anything happens, and an
        # idle pass must not cost more the more peers it has.

        # 0. transport failures (fault injection): a VI whose retransmit
        #    budget is exhausted means the peer is unreachable — fail the
        #    channel and raise a clean typed error rather than hang
        if provider.transport_failures:
            vi = provider.transport_failures.pop(0)
            ch = self._vi_to_channel.get(vi.vi_id)
            peer = ch.dest if ch is not None else vi.remote_rank
            if ch is not None and ch.state is not CH_FAILED:
                ch.send_fifo.clear()
                ch.control_queue.clear()
                self._dirty.pop(ch.dest, None)
                self.teardown_channel(ch)
                ch.state = CH_FAILED
            raise ConnectionFailed(
                f"rank {self.rank}: transport to rank {peer} lost "
                "(retransmit budget exhausted)"
            )

        # 1. send completions: recycle bounce buffers, finish RDMA sends
        # (emptiness read off the CQ's deque: no Python-level __bool__)
        completed = provider.send_cq._entries
        if completed:
            progressed = True
            while completed:
                desc = completed.popleft()
                self._cost_us += profile.cq_poll_us
                if desc.op is OP_RDMA_WRITE:
                    kind, req = desc.context
                    if kind == "rdma" and req is not None and not req.done:
                        req.complete(self.engine.now)
                else:
                    # provider.release_send_buffer(desc), inline: the
                    # bounce buffer goes back to its pool's free list
                    buf = desc.buffer
                    if buf is not None:
                        buf.in_use = False
                        buf.pool._free.append(buf.index)
                        desc.buffer = None

        # 2. receive completions: protocol handling + matching
        arrived = provider.recv_cq._entries
        if arrived:
            progressed = True
            while arrived:
                self._handle_arrival(arrived.popleft())

        # 3. connection progress (paper §3.3: connection requests are
        #    progressed like nonblocking communication requests), when
        #    there is any: establishments, disconnects, a passed connect
        #    deadline, channels waiting for a cache slot
        conn = self.conn
        if (provider.established or provider.pending_disconnects
                or conn._waiting_for_room
                or self.engine.now >= conn._next_deadline):
            if conn.progress():
                progressed = True

        # 4. post pass
        if self._dirty:
            for ch in tuple(self._dirty.values()):
                self._post_pending(ch)
        if self._owing:
            for ch in tuple(self._owing.values()):
                if ch.should_send_explicit_credits():
                    ch.explicit_credit_messages += 1
                    self._queue_control(ch, CreditHeader(src_rank=self.rank))
        return progressed

    def device_check(self):
        """MPID_DeviceCheck: one :meth:`progress_pass`, as a generator
        that yields exactly once to charge the accumulated host time."""
        progressed = self.progress_pass()
        yield self.flush_cost()
        return progressed

    def _handle_arrival(self, desc) -> None:
        provider = self.provider
        config = self.config
        now = self.engine.now
        self._cost_us += provider.profile.cq_poll_us
        header = desc.header
        ch = self._vi_to_channel.get(desc.vi_id)
        if ch is None:  # pragma: no cover - wiring invariant
            raise MpiError(f"arrival on unknown VI {desc.vi_id}")
        ch.on_header_received(header)
        ch.last_used_at = now

        if (config.dynamic_buffers
                and header.queued_behind > 0
                and ch.granted_total < config.data_credits):
            # dynamic flow control (paper §6): the sender has a backlog;
            # pin another buffer chunk and grant the window growth (the
            # new credits ride the normal piggyback/explicit machinery)
            chunk = min(config.growth_chunk,
                        config.data_credits - ch.granted_total)
            self._cost_us += provider.grow_recv_pool(ch.vi, chunk)
            ch.granted_total += chunk
            ch.credits_to_return += chunk
            # deliver the grant immediately: the sender may be out of
            # credits with no reverse traffic to piggyback on, and weak
            # progress means nobody else will move things along
            ch.explicit_credit_messages += 1
            self._queue_control(ch, CreditHeader(src_rank=self.rank))

        if isinstance(header, EagerHeader):
            nbytes = header.nbytes
            ch.check_envelope_order(header.seq)
            ch.bytes_received += nbytes
            req = self.matching.match_arrival(
                header.src_rank, header.context_id, header.tag
            )
            data = None
            if nbytes:
                start = desc.buffer.offset
                data = desc.buffer.region.data[start : start + nbytes]
            if req is not None:
                if req.tel_span is not None:
                    req.tel_span.set(flow=header.flow_id)
                self._copy_into_recv(req, data, nbytes,
                                     header.src_rank, header.tag)
                req.complete(now)
                if header.sync:
                    self._queue_control(
                        ch, AckHeader(src_rank=self.rank,
                                      send_request_id=header.request_id,
                                      flow_id=header.flow_id))
            else:
                if nbytes:
                    data = data.copy()
                    self._cost_us += provider.profile.copy_us(nbytes)
                self.matching.add_unexpected(
                    UnexpectedMessage(
                        src_rank=header.src_rank, context_id=header.context_id,
                        tag=header.tag, nbytes=nbytes, seq=header.seq,
                        data=data, is_rts=False,
                        send_request_id=header.request_id, sync=header.sync,
                        arrived_at=now, flow_id=header.flow_id,
                    )
                )
        elif isinstance(header, RtsHeader):
            ch.check_envelope_order(header.seq)
            req = self.matching.match_arrival(
                header.src_rank, header.context_id, header.tag
            )
            msg = UnexpectedMessage(
                src_rank=header.src_rank, context_id=header.context_id,
                tag=header.tag, nbytes=header.nbytes, seq=header.seq,
                data=None, is_rts=True, send_request_id=header.request_id,
                arrived_at=now, flow_id=header.flow_id,
            )
            if req is not None:
                self._start_rndv_response(req, ch, msg)
            else:
                self.matching.add_unexpected(msg)
        elif isinstance(header, CtsHeader):
            if self.telemetry is not None:
                self.telemetry.instant(
                    "mpi.rndv.cts", ("rank", self.rank), peer=header.src_rank,
                    flow=header.flow_id,
                )
            send_req = self._awaiting_cts.pop(header.send_request_id)
            region, cost = provider.dreg.acquire(
                send_req.buffer, protection_tag=ch.vi.protection_tag
            )
            self._cost_us += cost
            _desc, cost = provider.post_rdma_write(
                ch.vi, send_req.buffer, header.region_handle,
                header.region_offset, context=("rdma", send_req),
                flow_id=header.flow_id,
            )
            self._cost_us += cost
            ch.rndv_outstanding -= 1
            ch.bytes_sent += send_req.nbytes
            self._queue_control(
                ch,
                FinHeader(src_rank=self.rank,
                          recv_request_id=header.recv_request_id,
                          nbytes=send_req.nbytes, flow_id=header.flow_id),
            )
        elif isinstance(header, FinHeader):
            if self.telemetry is not None:
                self.telemetry.instant(
                    "mpi.rndv.fin", ("rank", self.rank),
                    peer=header.src_rank, nbytes=header.nbytes,
                    flow=header.flow_id,
                )
            req = self._awaiting_fin.pop(header.recv_request_id)
            ch.bytes_received += header.nbytes
            req.complete(now)
        elif isinstance(header, AckHeader):
            req = self._awaiting_ack.pop(header.send_request_id)
            req.complete(now)
        elif isinstance(header, CreditHeader):
            pass  # piggyback field already accounted by on_header_received
        else:  # pragma: no cover
            raise MpiError(f"unknown header {header!r}")

        # recycle the descriptor's buffer (provider.repost_recv and
        # VI.post_recv, inline) and return the credit
        vi = ch.vi
        vi._recv_queue.append(desc.buffer)
        vi.recvs_posted += 1
        if vi.telemetry is not None:
            vi.telemetry.counter("via.recvs_posted").inc()
        self._cost_us += provider.profile.post_recv_us
        if not isinstance(header, CreditHeader):
            ch.credits_to_return += 1
            if ch.credits_due():
                self._owing[ch.dest] = ch

    # ---------------------------------------------------------- completion --
    def wait_until(self, until: Optional[Callable[[], bool]] = None,
                   requests: Sequence[Request] = (), *,
                   poll_first: bool = True, pick: Optional[int] = None,
                   comm=None):
        """The completion loop: progress until every request in
        ``requests`` is done and ``until()`` (if given) holds.

        *polling*: spin (device checks) and observe completions at event
        time.  *spinwait*: after ``spincount`` fruitless polls the host
        blocks; a completion then costs the provider's wakeup penalty
        (interrupt + reschedule).  On providers without a blocking wait
        (Berkeley VIA) spinwait degenerates to polling, paper §5.3.

        Instead of literally burning ``spincount`` events per block, the
        loop parks on the provider's activity signal and applies the
        wakeup penalty iff the wake-up came after the spin window would
        have expired — timing-equivalent, event-count-bounded.

        The first test comes after one progress pass; with
        ``poll_first=False`` it comes before, and a loop with nothing to
        wait for makes no pass (``MPI_Wait`` on a done request).  Then
        the first request error is raised.  Returns ``requests[pick]``'s
        status, its source translated to a rank of ``comm`` when given,
        or with no ``pick`` every request's status.

        Every blocking call returns this generator itself, so a rank
        resumed inside one enters no frame of the call.
        """
        pending = []  # tested from the end; a done request stays done
        for request in requests:
            if not request.done:
                pending.append(request)
        if poll_first or pending or (until is not None and not until()):
            engine = self.engine
            provider = self.provider
            profile = provider.profile
            spinwait = (self.config.completion == "spinwait"
                        and profile.has_blocking_wait)
            spin_window = self.config.spincount * profile.spin_iteration_us
            idle_since: Optional[float] = None
            while True:
                progressed = self.progress_pass()
                cost, self._cost_us = self._cost_us, 0.0  # flush_cost()
                yield engine.sleep(cost, "host-cost")
                while pending and pending[-1].done:
                    pending.pop()
                if not pending and (until is None or until()):
                    break
                if progressed:
                    idle_since = None
                    continue
                if idle_since is None:
                    idle_since = engine.now
                yield provider.activity.wait()
                if spinwait and engine.now - idle_since > spin_window:
                    # we had fallen into the kernel's blocking wait
                    self.blocking_waits += 1
                    yield engine.sleep(profile.wakeup_us, "wakeup")
        for request in requests:
            if request.error is not None:
                raise request.error
        if pick is None:
            return [request.status for request in requests]
        status = requests[pick].status
        if comm is not None:
            status.source = comm.comm_rank_of(status.source)
        return status

    def has_pending_outbound(self) -> bool:
        """True while locally-completed operations still need the device
        (queued sends, unanswered RTS, unacked synchronous sends).

        ``MPI_Finalize`` must progress until this clears — e.g. a
        buffered send completes locally long before its bytes can leave
        (the connection may not even exist yet under on-demand).
        """
        # every queued message keeps its channel in _dirty until posted
        return bool(self._awaiting_cts or self._awaiting_ack or self._dirty)

    def drain(self):
        """The completion loop until no outbound work remains (finalize
        step); no pass if none does."""
        return self.wait_until(lambda: not self.has_pending_outbound(),
                               poll_first=False)

    def wait(self, request: Request, comm=None):
        """MPI_Wait: the completion loop for ``request``, returning its
        status (no pass if it is already done)."""
        return self.wait_until(requests=(request,), poll_first=False,
                               pick=0, comm=comm)

    def wait_all(self, requests: Sequence[Request]):
        """MPI_Waitall: the completion loop for ``requests``, returning
        their statuses.  It makes one pass even if all are done."""
        return self.wait_until(requests=requests)
