"""Per-node kernel connection agents.

VIA connection management involves the operating system: the host makes
a syscall, and a kernel agent on each node runs the connection dialog
over the wire.  The agent is a *serial* resource — requests queue and
are serviced one at a time — which is exactly why a static fully
connected setup storms the agents and `MPI_Init` takes so long
(paper Figure 8).

Two models are implemented (paper §3.2):

* **peer-to-peer** (VIA 1.0): both sides call
  ``VipConnectPeerRequest`` with the same discriminator; the connection
  establishes once both requests exist, regardless of order.  Symmetric
  and race-free — the model the on-demand mechanism uses.
* **client/server** (VIA 0.95): the server listens, polls for incoming
  requests (``VipConnectWait``) and accepts each; the client blocks
  until granted.  Asymmetric; MVICH's static setup serializes on it.

The agent never touches MPI state: it flips VI states and fires the
owning provider's activity signal; the MPI progress engine discovers
establishment by polling ``VipConnectPeerDone`` (i.e. ``vi.is_connected``).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, Optional, Tuple

from repro.fabric.packet import Packet
from repro.sim.engine import Engine
from repro.via.constants import VI_CONNECT_PENDING, VI_IDLE, ViaConnectionError
from repro.via.messages import (
    ConnGrant,
    ConnRequest,
    CsConnGrant,
    CsConnRequest,
    DisconnectReply,
    DisconnectRequest,
    Discriminator,
)
from repro.via.nic import Nic
from repro.via.vi import VI

if TYPE_CHECKING:  # pragma: no cover
    from repro.via.provider import ViaProvider


class ConnectionAgent:
    """The kernel-side connection manager of one node."""

    def __init__(self, engine: Engine, nic: Nic):
        self.engine = engine
        self.nic = nic
        self.profile = nic.profile
        self.costs = nic.profile.connection
        nic.agent = self

        # serial service engine: (handler, arguments) in arrival order
        self._work: Deque[Tuple[Callable[..., None], tuple]] = deque()
        self._scheduled = False
        self._busy_until = 0.0

        # peer-to-peer state, keyed by (discriminator, local rank) because
        # one node agent serves every process on the node (both endpoints
        # of a same-node pair land here)
        self._pending_outgoing: Dict[tuple, VI] = {}
        self._pending_incoming: Dict[tuple, ConnRequest] = {}
        #: keys with a local request issued but not yet established
        self._requested: set[tuple] = set()
        #: grants already sent, keyed by (discriminator, granted rank):
        #: (dst_node, grant, requester vi id).  A retransmitted
        #: ConnRequest whose grant was lost on a faulty fabric gets the
        #: same grant again instead of deadlocking half-established.
        self._grants_sent: Dict[tuple, tuple] = {}

        # client/server state: queued requests per listening server,
        # keyed by (job id, server rank) — co-scheduled jobs reuse rank
        # numbers, so rank alone is ambiguous on a shared node
        self._cs_queues: Dict[tuple, Deque[CsConnRequest]] = {}
        self._cs_clients: Dict[Discriminator, VI] = {}

        #: the live providers on this node, by (job id, rank)
        self._providers: Dict[Tuple[int, int], "ViaProvider"] = {}

        # counters
        self.connections_established = 0
        self.requests_processed = 0
        #: disconnect messages that arrived after their process's teardown
        self.late_disconnects = 0

    def register_local(self, provider: "ViaProvider") -> None:
        """Called by each ViaProvider on this node at construction."""
        self._providers[(provider.job_id, provider.rank)] = provider

    def unregister_local(self, provider: "ViaProvider") -> None:
        """Called by a provider at its process's teardown.  Once the
        last of its job's providers on this node has gone, the job's
        grants and client/server queues go too: the agent keeps only
        what live jobs can use."""
        del self._providers[(provider.job_id, provider.rank)]
        job_id = provider.job_id
        if any(live[0] == job_id for live in self._providers):
            return
        for sent in [k for k in self._grants_sent if k[0][0] == job_id]:
            del self._grants_sent[sent]
        for queue in [k for k in self._cs_queues if k[0] == job_id]:
            del self._cs_queues[queue]

    # -- serial service machinery ------------------------------------------------
    def _enqueue(self, handler: Callable[..., None], *args) -> None:
        """Queue ``handler(*args)`` for the agent's next free service
        slot."""
        self._work.append((handler, args))
        if not self._scheduled:
            self._kick()

    def _kick(self) -> None:
        """Schedule the service of the queue's head (the queue is not
        empty and no service is scheduled)."""
        self._scheduled = True
        now = self.engine.now
        start = max(now, self._busy_until)
        done = start + self.costs.agent_service_us
        self._busy_until = done
        # the entry's name is fingerprint material
        self.engine.call_later(done - now, self._run_one, None, "_run_one")

    def _run_one(self, _arg) -> None:
        self._scheduled = False
        handler, args = self._work.popleft()
        self.requests_processed += 1
        handler(*args)
        if not self._scheduled and self._work:
            self._kick()

    def _send_control(self, dst_node: int, message) -> None:
        self.nic.network.send(
            Packet(
                src=self.nic.node_id,
                dst=dst_node,
                wire_bytes=self.costs.control_packet_bytes,
                payload=message,
                kind="conn",
            )
        )

    # -- peer-to-peer model ----------------------------------------------------
    def peer_request(
        self, vi: VI, remote_node: int, discriminator: Discriminator,
        src_rank: int, dst_rank: int,
    ) -> None:
        """Host called VipConnectPeerRequest (syscall cost already charged)."""
        key = (discriminator, src_rank)
        if key in self._requested:
            raise ViaConnectionError(
                f"duplicate peer request for discriminator {discriminator} "
                f"from rank {src_rank}"
            )
        self._requested.add(key)
        vi.mark_connect_pending()
        self._enqueue(self._serve_peer_request, vi, remote_node, key, dst_rank)

    def _serve_peer_request(self, vi: VI, remote_node: int, key: tuple,
                            dst_rank: int) -> None:
        if key not in self._requested:
            # cancelled (connect retry budget exhausted) while this
            # request sat in the service queue: the VI is already torn
            # down, so neither register nor send anything
            return
        incoming = self._pending_incoming.pop(key, None)
        if incoming is not None:
            # The remote side asked first: match immediately.
            self._establish(vi, incoming.src_node, incoming.src_vi_id, key)
            self._send_grant(incoming, vi)
        else:
            self._pending_outgoing[key] = vi
            discriminator, src_rank = key
            self._send_control(
                remote_node,
                ConnRequest(
                    discriminator, self.nic.node_id, vi.vi_id, src_rank, dst_rank
                ),
            )

    def peer_request_retry(
        self, vi: VI, remote_node: int, discriminator: Discriminator,
        src_rank: int, dst_rank: int,
    ) -> None:
        """Resend a possibly-lost ConnRequest for an in-flight connect.

        Unlike :meth:`peer_request` this is idempotent: it neither
        re-registers the key nor touches the VI state, and it becomes a
        no-op if the connection established (or was cancelled) while the
        retry sat in the agent's service queue.
        """
        self._enqueue(self._serve_peer_request_retry, vi, remote_node,
                      (discriminator, src_rank), dst_rank)

    def _serve_peer_request_retry(self, vi: VI, remote_node: int, key: tuple,
                                  dst_rank: int) -> None:
        if self._pending_outgoing.get(key) is not vi:
            return
        discriminator, src_rank = key
        self._send_control(
            remote_node,
            ConnRequest(
                discriminator, self.nic.node_id, vi.vi_id, src_rank, dst_rank
            ),
        )

    def cancel_peer_request(
        self, discriminator: Discriminator, src_rank: int
    ) -> None:
        """Abandon an in-flight peer request (connect retry budget
        exhausted): a grant that still shows up later is ignored."""
        key = (discriminator, src_rank)
        self._requested.discard(key)
        self._pending_outgoing.pop(key, None)
        self._pending_incoming.pop(key, None)

    def _send_grant(self, req: ConnRequest, vi: VI) -> None:
        grant = ConnGrant(req.discriminator, self.nic.node_id, vi.vi_id,
                          dst_rank=req.src_rank)
        self._grants_sent[(req.discriminator, req.src_rank)] = (
            req.src_node, grant, req.src_vi_id)
        self._send_control(req.src_node, grant)

    def _on_peer_request(self, req: ConnRequest) -> None:
        # the local endpoint of this request is the process with rank
        # req.dst_rank; key the local tables accordingly
        tel = self.nic.telemetry
        if tel is not None:
            tel.instant(
                "conn.request", ("node", self.nic.node_id),
                src=req.src_rank, dst=req.dst_rank,
            )
        key = (req.discriminator, req.dst_rank)
        vi = self._pending_outgoing.pop(key, None)
        if vi is not None:
            # Crossed requests: both sides asked; each establishes from the
            # other's request and the grants become idempotent no-ops.
            self._establish(vi, req.src_node, req.src_vi_id, key)
            self._send_grant(req, vi)
        else:
            sent = self._grants_sent.get((req.discriminator, req.src_rank))
            if sent is not None and sent[2] == req.src_vi_id:
                # retransmitted request whose grant got lost: our side
                # already established — just grant again
                self._send_control(sent[0], sent[1])
                return
            self._pending_incoming[key] = req

    def _on_peer_grant(self, grant: ConnGrant) -> None:
        key = (grant.discriminator, grant.dst_rank)
        vi = self._pending_outgoing.pop(key, None)
        if vi is None:
            return  # crossed-request race: already established locally
        self._establish(vi, grant.src_node, grant.src_vi_id, key)

    # -- disconnect (connection-cache eviction) --------------------------------
    def disconnect_request(self, remote_node: int, discriminator: Discriminator,
                           src_rank: int, dst_rank: int,
                           returns_owed: int = 0) -> None:
        """Host asked to tear down an idle connection (cost pre-charged)."""
        self._enqueue(self._send_control, remote_node,
                      DisconnectRequest(discriminator, src_rank, dst_rank,
                                        returns_owed))

    def disconnect_reply(self, remote_node: int, discriminator: Discriminator,
                         src_rank: int, dst_rank: int, ack: bool,
                         returns_owed: int = 0) -> None:
        self._enqueue(self._send_control, remote_node,
                      DisconnectReply(discriminator, src_rank, dst_rank, ack,
                                      returns_owed))

    def _deliver_disconnect(self, message) -> None:
        # hand the message to the right local process; decisions about
        # quiescence belong to the MPI layer and happen at its next
        # device check (weak progress)
        key = (message.discriminator[0], message.dst_rank)
        provider = self._providers.get(key)
        if provider is not None:
            provider.pending_disconnects.append(message)
            provider.activity.fire()
            return
        # the process has torn down (a reply that crossed its teardown
        # barrier): no connection is left to decide about
        self.late_disconnects += 1

    # -- client/server model -------------------------------------------------------
    def listen(self, server_rank: int, job_id: int = 0) -> None:
        """Register a server rank willing to accept connections."""
        self._cs_queues.setdefault((job_id, server_rank), deque())

    def client_request(
        self, vi: VI, server_node: int, server_rank: int,
        client_rank: int, discriminator: Discriminator,
    ) -> None:
        """Host called VipConnectRequest (client side)."""
        if not self.profile.supports_client_server:
            raise ViaConnectionError(
                f"provider {self.profile.name!r} has no client/server model"
            )
        vi.mark_connect_pending()
        self._cs_clients[discriminator] = vi
        self._enqueue(
            self._send_control, server_node,
            CsConnRequest(
                discriminator, self.nic.node_id, vi.vi_id, client_rank, server_rank
            ),
        )

    def _on_cs_request(self, req: CsConnRequest) -> None:
        job_id = req.discriminator[0]
        queue = self._cs_queues.get((job_id, req.server_rank))
        if queue is None:
            raise ViaConnectionError(
                f"client/server request for job {job_id} rank "
                f"{req.server_rank}, which is not listening on node "
                f"{self.nic.node_id}"
            )
        queue.append(req)
        # wake any process polling VipConnectWait on this node (it can
        # poll before it created any VI), in (job id, rank) order
        for _key, provider in sorted(self._providers.items()):
            provider.activity.fire()

    def poll_cs_request(
        self, server_rank: int, from_rank: Optional[int] = None,
        job_id: int = 0,
    ) -> Optional[CsConnRequest]:
        """Server-side VipConnectWait poll.

        With ``from_rank`` set, only a request from that specific client
        is returned — MVICH's *serialized* setup accepts clients in rank
        order "regardless of the arrival order of connection requests"
        (paper §5.6); others stay queued.
        """
        queue = self._cs_queues.get((job_id, server_rank))
        if not queue:
            return None
        if from_rank is None:
            return queue.popleft()
        for i, req in enumerate(queue):
            if req.client_rank == from_rank:
                del queue[i]
                return req
        return None

    def accept(self, req: CsConnRequest, vi: VI) -> None:
        """Server accepts: connect the server VI, grant the client."""
        tel = self.nic.telemetry
        if tel is not None:
            tel.instant(
                "conn.accept", ("node", self.nic.node_id),
                client=req.client_rank, server=req.server_rank,
            )
        vi.mark_connect_pending()
        self._enqueue(self._serve_accept, req, vi)

    def _serve_accept(self, req: CsConnRequest, vi: VI) -> None:
        self._establish(vi, req.src_node, req.src_vi_id)
        self._send_control(
            req.src_node,
            CsConnGrant(req.discriminator, self.nic.node_id, vi.vi_id),
        )

    def _on_cs_grant(self, grant: CsConnGrant) -> None:
        vi = self._cs_clients.pop(grant.discriminator, None)
        if vi is None:
            raise ViaConnectionError(
                f"grant for unknown client discriminator {grant.discriminator}"
            )
        self._establish(vi, grant.src_node, grant.src_vi_id)

    # -- common ---------------------------------------------------------------------
    def _establish(
        self, vi: VI, remote_node: int, remote_vi_id: int,
        key: Optional[tuple] = None,
    ) -> None:
        if key is not None:
            self._requested.discard(key)
        # kernel instantiates the connection state, then the VI flips;
        # the call carries the endpoints, so no closure is made per
        # connection (the name is fingerprint material)
        self.engine.call_later(
            self.costs.establish_us, self._finish_establish,
            (vi, remote_node, remote_vi_id), "finish")

    def _finish_establish(self, endpoints) -> None:
        vi, remote_node, remote_vi_id = endpoints
        state = vi._state
        if state is not VI_IDLE and state is not VI_CONNECT_PENDING:
            # the host gave up (connect retry budget exhausted) and
            # destroyed the endpoint while the kernel was still
            # instantiating the connection: abandon the establish
            return
        nic = self.nic
        vi.mark_connected(remote_node, remote_vi_id, self.engine.now)
        self.connections_established += 1
        tel = nic.telemetry
        if tel is not None:
            tel.instant(
                "conn.establish", ("node", nic.node_id),
                vi=vi.vi_id, remote_node=remote_node,
            )
        nic._owners[vi.vi_id].on_connection_established(vi)
        nic.release_early(vi)

    def on_control(self, message) -> None:
        """NIC routed an incoming control packet here."""
        handler = self._HANDLERS.get(type(message))
        if handler is None:  # pragma: no cover - routing guards this
            raise ViaConnectionError(f"unknown control message {message!r}")
        # _enqueue, inline: two control messages per connection
        self._work.append((handler, (self, message)))
        if not self._scheduled:
            self._kick()

    #: the service routine of each control message type
    _HANDLERS: Dict[type, Callable[..., None]] = {
        ConnRequest: _on_peer_request,
        ConnGrant: _on_peer_grant,
        CsConnRequest: _on_cs_request,
        CsConnGrant: _on_cs_grant,
        DisconnectRequest: _deliver_disconnect,
        DisconnectReply: _deliver_disconnect,
    }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ConnectionAgent node={self.nic.node_id} "
            f"established={self.connections_established}>"
        )
