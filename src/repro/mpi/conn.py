"""Connection management: the paper's subject, as one policy and a table.

The mechanisms the paper compares differ in two ways only, so each is a
row of :data:`MECHANISMS` (keyed by ``MpiConfig.connection``) and one
:class:`ConnectionManager` reads all its behaviour off the row:

==============  ===================  ==============
mechanism       pre-connect set      setup protocol
==============  ===================  ==============
``ondemand``    none                 peer-to-peer
``static-p2p``  all peers            peer-to-peer
``static-cs``   all peers            client/server
``predicted``   ``predicted_peers``  peer-to-peer
==============  ===================  ==============

The **pre-connect set** is which VIs exist when ``MPI_Init`` returns.
*None* is the paper's mechanism (§3–4): the first send or receive naming
a peer creates the VI and issues a peer-to-peer request, sends wait in
the channel's pre-posted send FIFO until establishment, and an
``MPI_ANY_SOURCE`` receive connects to every process (§3.5).  *All
peers* is MVICH's original static setup: a send to a peer without a
channel is an error.  *Predicted* pre-establishes exactly the edges the
communication-graph analyzer proved (:mod:`repro.analysis.comm`) —
on-demand's footprint with static's zero first-message penalty; an
unpredicted peer still connects lazily (counted in ``mispredictions``),
and a wildcard receive touches only the predicted set, which the
analysis widened to full fan-in.

The **setup protocol** is how ``MPI_Init`` runs the handshake.
*Peer-to-peer*: all requests go out at once and establish as the
matching requests arrive (Figure 8's faster static setup).
*Client/server*: the serialized setup of Figure 8(a) — each process
connects as a client to every lower rank in ascending order, blocking on
each grant, then serves every higher rank in ascending order
"regardless of the arrival order of connection requests from peer
processes" (§5.6).  It needs a provider that has it (:func:`runs_on`,
checked before a job starts).  Either way, connection requests are
progressed by ``MPID_DeviceCheck`` like any nonblocking request (§3.3).

**Connect retry (fault injection).**  A peer request that misses its
deadline is reissued with exponential backoff and jitter; a channel that
exhausts ``config.connect_retry_limit`` attempts fails every request
that named the peer with a typed
:class:`~repro.mpi.constants.ConnectionFailed` instead of hanging.  With
``config.connect_timeout_us = None`` (the default) none of this runs.

**Connection cache (extension, on-demand only).**  For the paper's
scalability point 2 (hard VI limits per NIC),
``MpiConfig(vi_cache_limit=N)`` keeps at most ``N`` live VIs per
process: one more first evicts the
least-recently-used *quiescent* connection through a kernel-agent
disconnect handshake (the peer acknowledges only if quiescent too).
Evicted channels reconnect transparently on next use, their sequence
counters continuing, so non-overtaking holds across reconnections.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional

from repro.mpi.channel import (
    CH_CONNECTED,
    CH_CONNECTING,
    CH_DRAINING,
    CH_FAILED,
    CH_UNOPENED,
    Channel,
)
from repro.mpi.constants import ANY_SOURCE, ConnectionFailed, MpiError
from repro.via.messages import DisconnectReply, DisconnectRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.adi import AbstractDevice

#: pre-connect sets
NONE, ALL, PREDICTED = "none", "all", "predicted"
#: setup protocols
PEER_TO_PEER, CLIENT_SERVER = "peer-to-peer", "client-server"


class Mechanism(NamedTuple):
    """One row of the table: the only two ways mechanisms differ."""

    #: VIs that exist when MPI_Init returns: NONE, ALL or PREDICTED
    preconnect: str
    #: handshake MPI_Init runs: PEER_TO_PEER or CLIENT_SERVER
    setup: str


#: every connection mechanism, keyed by ``MpiConfig.connection`` name
MECHANISMS: Dict[str, Mechanism] = {
    "ondemand": Mechanism(NONE, PEER_TO_PEER),
    "static-p2p": Mechanism(ALL, PEER_TO_PEER),
    "static-cs": Mechanism(ALL, CLIENT_SERVER),
    "predicted": Mechanism(PREDICTED, PEER_TO_PEER),
}


def _row(name: str) -> Mechanism:
    try:
        return MECHANISMS[name]
    except KeyError:
        raise ValueError(f"unknown connection manager {name!r}") from None


def runs_on(name: str, profile) -> bool:
    """Whether mechanism ``name`` can set up connections on ``profile``:
    the client/server handshake needs a provider that has it."""
    return (_row(name).setup != CLIENT_SERVER
            or profile.supports_client_server)


def init_vi_demand(name: str, nprocs: int,
                   predicted_degree: Optional[int] = None) -> int:
    """Per-process MPI_Init VI demand of mechanism ``name`` in an
    ``nprocs``-rank job — the scheduler's admission-control charge.

    The cluster scheduler charges this many VIs per co-resident process
    against the node's quota *before* the job starts — a static job that
    cannot fit must wait, exactly the pressure the paper's Tables 1–2
    quantify.  It is the size of the row's pre-connect set: none, or the
    full mesh.  For the predicted set the demand is the analyzed graph's
    maximum degree when the caller supplies it (graph-checked admission:
    :func:`repro.analysis.comm.predicted_vi_demand`); without a graph the
    charge degrades to the full-mesh worst case.
    """
    preconnect = _row(name).preconnect
    if preconnect == NONE:
        return 0
    if preconnect == PREDICTED and predicted_degree is not None:
        if predicted_degree < 0:
            raise ValueError("predicted_degree must be >= 0")
        return min(predicted_degree, max(0, nprocs - 1))
    return max(0, nprocs - 1)


def make_connection_manager(name: str, adi) -> "ConnectionManager":
    """Factory keyed by :class:`~repro.mpi.config.MpiConfig` names."""
    return ConnectionManager(name, adi)


class ConnectionManager:
    """Policy object deciding when VIs are created and connected, read
    off its mechanism's row of :data:`MECHANISMS`.

    Lifecycle: the job runtime calls :meth:`init_phase` inside
    ``MPI_Init``; the ADI calls :meth:`channel_for` on every send,
    :meth:`on_recv_posted` on every receive, and :meth:`progress` from
    every ``MPID_DeviceCheck``.
    """

    #: after a peer refuses a disconnect, how long to leave it alone (µs)
    NACK_COOLDOWN_US = 1000.0

    def __init__(self, name: str, adi: "AbstractDevice"):
        self.preconnect, self.setup = _row(name)
        self.name = name
        self.adi = adi
        #: channels whose peer-to-peer request is in flight, by peer
        #: rank, in issue order (``Channel.connect_seq``)
        self._connecting: Dict[int, Channel] = {}
        self._connect_seq = 0
        #: earliest connect deadline among them; +inf without timeouts
        self._next_deadline = float("inf")
        #: channels whose VI creation is deferred until the cache frees
        #: a slot; their sends queue in the channel FIFO meanwhile
        self._waiting_for_room: list = []
        # fault-recovery counters (chaos metrics)
        self.connect_retries = 0
        self.connect_failures = 0
        # connection-cache counters
        self.evictions = 0
        self.reconnects = 0
        self.eviction_nacks = 0
        #: sends that named a peer outside the predicted set (fell back
        #: to an on-demand lazy connect)
        self.mispredictions = 0

    # -- lifecycle ---------------------------------------------------------
    def init_phase(self):
        """Generator run during MPI_Init (may block on progress): open
        the pre-connect set with the row's setup protocol.  It yields
        each completion loop to the rank's process as a stage."""
        if self.preconnect == NONE:
            # MPI_Init creates no VIs and no connections
            yield self.adi.flush_cost()
        elif self.setup == CLIENT_SERVER:
            yield from self._client_server_init()
        else:
            # all requests go out at once and settle as the matching
            # side's requests arrive (a predicted graph is symmetric)
            for peer in self._preconnect_peers():
                self._open_and_request(self.adi.new_channel(peer))
            yield from self._settle_init()

    def _client_server_init(self):
        """The serialized client/server setup over all peers."""
        adi = self.adi
        provider = adi.provider
        provider.listen()

        # client phase: connect to every lower rank, in order
        for server in range(adi.rank):
            ch = adi.new_channel(server)
            adi.open_channel_vi(ch)
            adi.charge(
                provider.connect_client_request(
                    ch.vi, adi.rank_to_node(server), server
                )
            )
            ch.state = CH_CONNECTING
            yield adi.wait_until(lambda v=ch.vi: v.is_connected)
            adi.mark_channel_connected(ch)

        # server phase: accept every higher rank, in rank order
        for client in range(adi.rank + 1, adi.size):
            req = None

            def got_request(c=client):
                nonlocal req
                if req is None:
                    found, cost = provider.poll_connect_wait(from_rank=c)
                    adi.charge(cost)
                    req = found
                return req is not None

            yield adi.wait_until(got_request)
            ch = adi.new_channel(client)
            adi.open_channel_vi(ch)
            adi.charge(provider.connect_accept(req, ch.vi))
            ch.state = CH_CONNECTING
            yield adi.wait_until(lambda v=ch.vi: v.is_connected)
            adi.mark_channel_connected(ch)

    def finalize_phase(self):
        """Generator run during MPI_Finalize: tear the VIs down, then let
        go of the device.  The device holds its manager and the manager
        its device; dropping the back-reference lets reference counting
        free a finished rank as soon as the job lets go of it, instead
        of leaving it to the cyclic garbage collector.  The counters
        stay readable."""
        adi = self.adi
        destroyed = 0
        for ch in adi.channels.values():
            if ch.tel_connect is not None:
                ch.tel_connect.end(ok=False)
                ch.tel_connect = None
            if ch.vi is not None:
                adi.charge(adi.provider.destroy_vi(ch.vi))
                destroyed += 1
        adi.charge(adi.provider.dreg.flush())
        adi.provider.close()
        if adi.telemetry is not None:
            adi.telemetry.instant(
                "conn.finalize", ("rank", adi.rank), vis_destroyed=destroyed,
            )
        yield adi.flush_cost()
        self.adi = None

    # -- hooks ----------------------------------------------------------------
    def channel_for(self, dest: int) -> Channel:
        """Channel used to send to ``dest`` (create/connect per policy)."""
        adi = self.adi
        ch = adi.channels.get(dest)
        if ch is None:
            if self.preconnect == ALL:
                raise MpiError(
                    f"static connection manager has no channel to {dest}; "
                    "was MPI_Init run?"
                )
            ch = adi.new_channel(dest)
            if self.preconnect == PREDICTED:
                # the analyzer missed this edge: connect lazily like the
                # on-demand manager rather than fail — prediction is a
                # performance contract, not a correctness one
                self.mispredictions += 1
                if adi.telemetry is not None:
                    adi.telemetry.counter(
                        f"conn.{self.name}.mispredictions").inc()
                    adi.telemetry.instant(
                        "conn.mispredict", ("rank", adi.rank), peer=dest,
                    )
                self._open_and_request(ch)
            else:
                self._activate(ch)
        elif ch.state is CH_FAILED:
            raise ConnectionFailed(
                f"rank {adi.rank}: peer {dest} is unreachable "
                "(connect retry budget exhausted)"
            )
        elif (ch.state is CH_UNOPENED
              and ch not in self._waiting_for_room):
            # evicted earlier; reconnect on demand
            self._activate(ch)
        return ch

    def on_recv_posted(self, source: int) -> None:
        """A receive named ``source`` (or ANY_SOURCE) was posted."""
        if source != ANY_SOURCE:
            self.channel_for(source)
        elif self.preconnect != ALL:
            # §3.5: "the only solution is to issue peer connection
            # requests to all other processes in the specified
            # communicator" — the predicted set already holds them all
            for peer in (self._all_peers() if self.preconnect == NONE
                         else self._preconnect_peers()):
                self.channel_for(peer)

    def _all_peers(self):
        rank = self.adi.rank
        return chain(range(rank), range(rank + 1, self.adi.size))

    def _preconnect_peers(self):
        """The peers MPI_Init connects to (validated by MpiConfig and
        run_job: in range, no self-edge, symmetric)."""
        if self.preconnect == PREDICTED:
            return self.adi.config.predicted_peers[self.adi.rank]
        return self._all_peers() if self.preconnect == ALL else ()

    # -- progress --------------------------------------------------------------
    def progress(self) -> bool:
        """Move connection work along (non-blocking), in a fixed order:
        established and late connects, then the disconnect inbox, then
        channels waiting for a cache slot.  The ADI's progress pass
        calls it only when one of them has work.

        Establishment is notified, not polled for: the provider lists
        every VI its agent flipped to CONNECTED, and this pass confirms
        each (VipConnectPeerDone) and marks its channel — in the order
        the requests were issued, whatever order the grants landed in.
        Only with timeouts enabled, and only once the earliest deadline
        has passed, does it walk the connecting channels to retry or
        fail the late ones.
        """
        adi = self.adi
        provider = adi.provider
        notified = provider.established
        inbox = provider.pending_disconnects
        now = adi.engine.now
        expired = now >= self._next_deadline
        progressed = False
        if notified or expired:
            if expired:
                due = [ch for ch in self._connecting.values()
                       if ch.vi.is_connected or now >= ch.connect_deadline]
            else:
                due = []
                for vi in notified:
                    ch = adi.channel_of(vi)
                    if ch is not None and self._connecting.get(ch.dest) is ch:
                        due.append(ch)
                if len(due) > 1:
                    due.sort(key=attrgetter("connect_seq"))
            notified.clear()
            for ch in due:
                if provider.connect_peer_done(ch.vi):
                    del self._connecting[ch.dest]
                    ch.connect_attempts = 0
                    ch.connect_deadline = float("inf")
                    adi.mark_channel_connected(ch)
                    progressed = True
                elif now >= ch.connect_deadline:
                    progressed = True
                    if ch.connect_attempts >= adi.config.connect_retry_limit:
                        del self._connecting[ch.dest]
                        self._fail_connect(ch)
                    else:
                        self._retry_connect(ch)
            if expired:
                self._next_deadline = min(
                    (ch.connect_deadline for ch in self._connecting.values()),
                    default=float("inf"))
        while inbox:
            progressed = True
            self._handle_disconnect(inbox.pop(0))
        # activate deferred channels as slots free up
        limit = adi.config.vi_cache_limit
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

    # -- connect retry / failure (fault injection) ----------------------------
    def _arm_connect_deadline(self, ch: Channel) -> None:
        """Set the channel's next retry deadline: exponential backoff
        with jitter on retries.  Only with timeouts on; otherwise the
        deadline stays at its +inf."""
        cfg = self.adi.config
        window = min(
            cfg.connect_timeout_us
            * cfg.connect_backoff ** (ch.connect_attempts - 1),
            cfg.connect_timeout_max_us,
        )
        if cfg.connect_jitter > 0 and ch.connect_attempts > 1:
            # jitter only on retries: the first deadline stays a pure
            # function of config, and fault-free runs draw no randomness
            window *= 1.0 + cfg.connect_jitter * self.adi.retry_jitter()
        ch.connect_deadline = self.adi.engine.now + window
        if ch.connect_deadline < self._next_deadline:
            self._next_deadline = ch.connect_deadline
        # a rank parked on its activity signal would otherwise sleep
        # through the deadline: wake it to run a progress pass (spurious
        # if the connect established meanwhile — waiters re-check)
        self.adi.engine.call_later(window, self.adi.provider.activity.fire,
                                   None, "fire")

    def _retry_connect(self, ch: Channel) -> None:
        """Reissue the peer request for a connect past its deadline."""
        adi = self.adi
        self.connect_retries += 1
        ch.connect_attempts += 1
        if adi.telemetry is not None:
            adi.telemetry.instant(
                "conn.retry", ("rank", adi.rank),
                peer=ch.dest, attempt=ch.connect_attempts,
            )
        adi.charge(adi.provider.connect_peer_retry(
            ch.vi, adi.rank_to_node(ch.dest), ch.dest))
        self._arm_connect_deadline(ch)

    def _fail_connect(self, ch: Channel) -> None:
        """Retry budget exhausted: fail every request naming this peer
        with a typed ConnectionFailed and tear the channel down."""
        adi = self.adi
        now = adi.engine.now
        self.connect_failures += 1
        if adi.telemetry is not None:
            adi.telemetry.instant(
                "conn.fail", ("rank", adi.rank),
                peer=ch.dest, attempts=ch.connect_attempts,
            )
        exc = ConnectionFailed(
            f"rank {adi.rank}: connection to rank {ch.dest} failed after "
            f"{ch.connect_attempts} attempts"
        )
        adi.charge(adi.provider.connect_peer_cancel(ch.vi, ch.dest))
        for item in list(ch.send_fifo) + list(ch.control_queue):
            req = item.request
            if req is None:
                continue
            adi._awaiting_cts.pop(req.request_id, None)
            adi._awaiting_ack.pop(req.request_id, None)
            req.error = exc
            if not req.done:
                req.complete(now)
        ch.send_fifo.clear()
        ch.control_queue.clear()
        adi._dirty.pop(ch.dest, None)
        for req in adi.matching.take_posted_for(ch.dest):
            req.error = exc
            req.complete(now)
        adi.teardown_channel(ch)
        ch.state = CH_FAILED

    # -- peer-to-peer connect -------------------------------------------------
    def _open_and_request(self, ch: Channel) -> None:
        """Create ``ch``'s VI and issue the peer-to-peer request."""
        adi = self.adi
        adi.open_channel_vi(ch)
        adi.charge(adi.provider.connect_peer_request(
            ch.vi, adi.rank_to_node(ch.dest), ch.dest))
        ch.state = CH_CONNECTING
        ch.connect_attempts = 1
        if adi.config.connect_timeout_us is not None:
            self._arm_connect_deadline(ch)
        self._connect_seq += 1
        ch.connect_seq = self._connect_seq
        self._connecting[ch.dest] = ch

    def _settle_init(self):
        """Generator: wait until every request issued so far has either
        established or (under fault injection) exhausted its retries —
        never wait on a dead peer forever — then fail on the latter."""
        adi = self.adi
        yield adi.wait_until(lambda: not self._connecting)
        failed = sorted(
            ch.dest for ch in adi.channels.values()
            if ch.state is CH_FAILED
        )
        if failed:
            raise ConnectionFailed(
                f"rank {adi.rank}: {self.name} setup could not connect to "
                f"ranks {failed}"
            )

    # -- connection cache -------------------------------------------------------
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

    def _live_vi_count(self) -> int:
        return sum(1 for c in self.adi.channels.values() if c.vi is not None)

    def _eviction_pending(self) -> bool:
        return any(c.state is CH_DRAINING
                   for c in self.adi.channels.values())

    def _start_evictions(self, exclude: Optional[Channel] = None) -> None:
        """Initiate enough disconnects to eventually free one slot."""
        limit = self.adi.config.vi_cache_limit
        draining = sum(1 for c in self.adi.channels.values()
                       if c.state is CH_DRAINING)
        need = self._live_vi_count() - limit + 1 - draining
        while need > 0:
            victim = self._pick_victim(exclude)
            if victim is None:
                return
            self._evict(victim)
            need -= 1

    def _pick_victim(self, exclude: Optional[Channel]) -> Optional[Channel]:
        now = self.adi.engine.now
        candidates = [
            c for c in self.adi.channels.values()
            if c is not exclude
            and c.state is CH_CONNECTED
            and c.evict_cooldown_until <= now
            and self.adi.channel_quiescent(c)
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda c: c.last_used_at)

    def _evict(self, ch: Channel) -> None:
        adi = self.adi
        ch.state = CH_DRAINING
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
            if ch is None or ch.state is not CH_DRAINING:
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
                ch.state = CH_CONNECTED
                # the peer is busy with us: stop badgering it for a while
                ch.evict_cooldown_until = (adi.engine.now
                                           + self.NACK_COOLDOWN_US)
                if ch.pending_count:
                    adi._post_pending(ch)
