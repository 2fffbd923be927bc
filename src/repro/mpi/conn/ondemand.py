"""The on-demand connection manager (the paper's mechanism, §3–4).

Nothing happens at ``MPI_Init``.  The first communication request naming
a peer — a send in ``MPID_IsendContig`` or a receive in
``MPID_VIA_Irecv`` — creates the VI and issues a peer-to-peer connection
request; until establishment, sends wait in the channel's pre-posted
send FIFO.  ``MPI_ANY_SOURCE`` receives issue requests to every process
in the communicator (§3.5).  Connection requests are progressed by
``MPID_DeviceCheck`` like any other nonblocking request (§3.3); no extra
thread exists.

**Connection cache (extension).**  The paper's scalability point 2 notes
that VIA systems have hard limits on VIs per NIC.  With
``MpiConfig(vi_cache_limit=N)`` this manager keeps at most ``N`` live
VIs per process: creating one more first evicts the least-recently-used
*quiescent* connection through a kernel-agent disconnect handshake (the
peer acknowledges only if its side is quiescent too, so no data can be
in flight when the VIs die).  Evicted channels reconnect transparently
on next use — their sequence counters continue, so non-overtaking holds
across reconnections.
"""

from __future__ import annotations

from typing import Optional

from repro.mpi.channel import Channel, ChannelState
from repro.mpi.conn.base import BaseConnectionManager
from repro.mpi.constants import ANY_SOURCE, ConnectionFailed
from repro.via.messages import DisconnectReply, DisconnectRequest


class OnDemandConnectionManager(BaseConnectionManager):
    name = "ondemand"

    @classmethod
    def init_vi_demand(cls, nprocs: int) -> int:
        """MPI_Init creates nothing; VIs appear lazily per actual peer."""
        return 0

    def __init__(self, adi):
        super().__init__(adi)
        self.evictions = 0
        self.reconnects = 0
        self.eviction_nacks = 0
        #: channels whose VI creation is deferred until the cache frees
        #: a slot; their sends queue in the channel FIFO meanwhile
        self._waiting_for_room: list = []

    def init_phase(self):
        """On-demand: MPI_Init creates no VIs and no connections."""
        yield self.adi.flush_cost()

    # -- channel acquisition -------------------------------------------------
    def channel_for(self, dest: int) -> Channel:
        ch = self.adi.channels.get(dest)
        if ch is None:
            ch = self.adi.new_channel(dest)
            self._activate(ch)
        elif ch.state is ChannelState.FAILED:
            raise ConnectionFailed(
                f"rank {self.adi.rank}: peer {dest} is unreachable "
                "(connect retry budget exhausted)"
            )
        elif (ch.state is ChannelState.UNOPENED
              and ch not in self._waiting_for_room):
            # evicted earlier; reconnect on demand
            self._activate(ch)
        return ch

    def _activate(self, ch: Channel) -> None:
        """Open the channel's VI now if the cache has room; otherwise
        start evictions and queue the channel until a slot frees."""
        limit = self.adi.config.vi_cache_limit
        if limit is not None and self._live_vi_count() >= limit:
            self._start_evictions(exclude=ch)
            if self._live_vi_count() >= limit and self._eviction_pending():
                self._waiting_for_room.append(ch)
                return
            # escape hatch: nothing evictable and nothing draining —
            # exceeding the limit beats deadlocking (all peers busy)
        self._connect(ch)

    def _connect(self, ch: Channel) -> None:
        first_time = ch.opened_at < 0
        self._open_and_request(ch)
        if not first_time:
            self.reconnects += 1

    def on_recv_posted(self, source: int) -> None:
        if source == ANY_SOURCE:
            # §3.5: "the only solution is to issue peer connection
            # requests to all other processes in the specified
            # communicator"
            for peer in self._all_peers():
                self.channel_for(peer)
        else:
            self.channel_for(source)

    # -- connection cache -------------------------------------------------------
    def _live_vi_count(self) -> int:
        return sum(1 for c in self.adi.channels.values() if c.vi is not None)

    def _eviction_pending(self) -> bool:
        return any(c.state is ChannelState.DRAINING
                   for c in self.adi.channels.values())

    def _start_evictions(self, exclude: Optional[Channel] = None) -> None:
        """Initiate enough disconnects to eventually free one slot."""
        limit = self.adi.config.vi_cache_limit
        draining = sum(1 for c in self.adi.channels.values()
                       if c.state is ChannelState.DRAINING)
        need = self._live_vi_count() - limit + 1 - draining
        while need > 0:
            victim = self._pick_victim(exclude)
            if victim is None:
                return
            self._evict(victim)
            need -= 1

    #: after a peer refuses a disconnect, how long to leave it alone (µs)
    NACK_COOLDOWN_US = 1000.0

    def _pick_victim(self, exclude: Optional[Channel]) -> Optional[Channel]:
        now = self.adi.engine.now
        candidates = [
            c for c in self.adi.channels.values()
            if c is not exclude
            and c.state is ChannelState.CONNECTED
            and c.evict_cooldown_until <= now
            and self.adi.channel_quiescent(c)
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda c: c.last_used_at)

    def _evict(self, ch: Channel) -> None:
        adi = self.adi
        ch.state = ChannelState.DRAINING
        self.evictions += 1
        if adi.telemetry is not None and ch.tel_evict is None:
            ch.tel_evict = adi.telemetry.begin(
                "conn.evict", ("rank", adi.rank), peer=ch.dest,
            )
        adi.charge(adi.profile.connection.host_request_us)
        adi.provider.agent.disconnect_request(
            adi.rank_to_node(ch.dest),
            adi.provider.discriminator_for(ch.dest),
            src_rank=adi.rank, dst_rank=ch.dest,
            returns_owed=adi.take_return_credits(ch),
        )

    # -- progress --------------------------------------------------------------
    def progress(self) -> bool:
        progressed = super().progress()
        inbox = self.adi.provider.pending_disconnects
        while inbox:
            progressed = True
            self._handle_disconnect(inbox.pop(0))
        # activate deferred channels as slots free up
        limit = self.adi.config.vi_cache_limit
        while self._waiting_for_room:
            no_room = (limit is not None
                       and self._live_vi_count() >= limit)
            if no_room:
                self._start_evictions()
                if self._eviction_pending():
                    break  # a slot is on its way; keep waiting
                # escape hatch (see _activate)
            ch = self._waiting_for_room.pop(0)
            self._connect(ch)
            progressed = True
        return progressed

    def _handle_disconnect(self, message) -> None:
        adi = self.adi
        if isinstance(message, DisconnectRequest):
            ch = adi.channels.get(message.src_rank)
            ok = False
            if ch is not None:
                # apply the requester's owed returns, then judge: a full
                # window means everything we ever sent was consumed, and
                # per-pair FIFO delivery means everything the requester
                # sent has already been through our receive queue
                ch.credits += message.returns_owed
                ok = (adi.channel_quiescent(ch)
                      and ch.credits == adi.config.data_credits)
            adi.charge(adi.profile.connection.host_request_us)
            owed_back = (adi.take_return_credits(ch)
                         if (ch is not None and ok) else 0)
            if ok:
                adi.teardown_channel(ch)
            adi.provider.agent.disconnect_reply(
                adi.rank_to_node(message.src_rank), message.discriminator,
                src_rank=adi.rank, dst_rank=message.src_rank, ack=ok,
                returns_owed=owed_back,
            )
        elif isinstance(message, DisconnectReply):
            ch = adi.channels.get(message.src_rank)
            if ch is None or ch.state is not ChannelState.DRAINING:
                return  # simultaneous eviction already resolved this side
            if message.ack:
                if ch.tel_evict is not None:
                    ch.tel_evict.end(ok=True, ack=True)
                    ch.tel_evict = None
                adi.teardown_channel(ch)  # resets the credit window
                if ch.pending_count:
                    # work arrived while draining: get back in line
                    self._activate(ch)
            else:
                self.eviction_nacks += 1
                if ch.tel_evict is not None:
                    ch.tel_evict.end(ok=False, ack=False)
                    ch.tel_evict = None
                ch.credits += message.returns_owed
                ch.state = ChannelState.CONNECTED
                # the peer is busy with us: stop badgering it for a while
                ch.evict_cooldown_until = (adi.engine.now
                                           + self.NACK_COOLDOWN_US)
                if ch.pending_count:
                    adi._post_pending(ch)
