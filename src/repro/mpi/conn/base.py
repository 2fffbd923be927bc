"""Connection-manager interface.

Besides the establishment policy itself, this base class owns the
**connect retry machinery** used under fault injection: an in-flight
peer request that misses its deadline is reissued with exponential
backoff and jitter, and a channel that exhausts
``config.connect_retry_limit`` attempts fails over to a typed
:class:`~repro.mpi.constants.ConnectionFailed` on every request that
named the peer — a clean MPI error instead of a hang.  With
``config.connect_timeout_us = None`` (the default) none of this runs
and connects wait forever, the original behaviour.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Dict

from repro.mpi.channel import Channel, ChannelState
from repro.mpi.constants import ConnectionFailed

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.adi import AbstractDevice


class BaseConnectionManager:
    """Policy object deciding when VIs are created and connected.

    Lifecycle: the job runtime calls :meth:`init_phase` inside
    ``MPI_Init``; the ADI calls :meth:`channel_for` on every send,
    :meth:`on_recv_posted` on every receive, and :meth:`progress` from
    every ``MPID_DeviceCheck``.
    """

    name = "base"

    @classmethod
    def init_vi_demand(cls, nprocs: int) -> int:
        """VIs each process attaches to its NIC during ``MPI_Init``.

        The cluster scheduler's admission control charges this many VIs
        per co-resident process against the node's quota *before* the
        job starts — a static job that cannot fit must wait, exactly the
        pressure the paper's Tables 1–2 quantify.  A classmethod so
        admission can be decided without instantiating the stack.
        """
        return 0

    def __init__(self, adi: "AbstractDevice"):
        self.adi = adi
        #: channels whose peer-to-peer request is in flight, by peer
        #: rank, in issue order (``Channel.connect_seq``)
        self._connecting: Dict[int, Channel] = {}
        self._connect_seq = 0
        #: earliest connect deadline among them; +inf without timeouts
        self._next_deadline = float("inf")
        # fault-recovery counters (chaos metrics)
        self.connect_retries = 0
        self.connect_failures = 0

    # -- lifecycle ---------------------------------------------------------
    def init_phase(self):
        """Generator run during MPI_Init (may block on progress)."""
        yield self.adi.flush_cost()

    def finalize_phase(self):
        """Generator run during MPI_Finalize: tear the VIs down."""
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
        if adi.telemetry is not None:
            adi.telemetry.instant(
                "conn.finalize", ("rank", adi.rank), vis_destroyed=destroyed,
            )
        yield adi.flush_cost()

    # -- hooks ----------------------------------------------------------------
    def channel_for(self, dest: int) -> Channel:
        """Channel used to send to ``dest`` (create/connect per policy)."""
        raise NotImplementedError

    def on_recv_posted(self, source: int) -> None:
        """A receive named ``source`` (or ANY_SOURCE) was posted."""
        raise NotImplementedError

    def progress(self) -> bool:
        """Check in-flight connection requests (non-blocking).

        Establishment is notified, not polled for: the provider lists
        every VI its agent flipped to CONNECTED, and this pass confirms
        each (VipConnectPeerDone) and marks its channel — in the order
        the requests were issued, whatever order the grants landed in.
        Only with timeouts enabled, and only once the earliest deadline
        has passed, does it walk the connecting channels to retry or
        fail the late ones.
        """
        adi = self.adi
        notified = adi.provider.established
        now = adi.engine.now
        expired = now >= self._next_deadline
        if not notified and not expired:
            return False
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
        progressed = False
        for ch in due:
            if adi.provider.connect_peer_done(ch.vi):
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
        return progressed

    # -- connect retry / failure (fault injection) ----------------------------
    def _arm_connect_deadline(self, ch: Channel) -> None:
        """Set the channel's next retry deadline: exponential backoff
        with jitter on retries, no deadline when timeouts are off."""
        cfg = self.adi.config
        if cfg.connect_timeout_us is None:
            ch.connect_deadline = float("inf")
            return
        window = min(
            cfg.connect_timeout_us
            * cfg.connect_backoff ** (ch.connect_attempts - 1),
            cfg.connect_timeout_max_us,
        )
        if cfg.connect_jitter > 0 and ch.connect_attempts > 1:
            # jitter only on retries: the first deadline stays a pure
            # function of config, and fault-free runs draw no randomness
            window *= 1.0 + cfg.connect_jitter * float(
                self.adi.retry_rng.random())
        ch.connect_deadline = self.adi.engine.now + window
        if ch.connect_deadline < self._next_deadline:
            self._next_deadline = ch.connect_deadline
        # a rank parked on its activity signal would otherwise sleep
        # through the deadline: wake it to run a progress pass (spurious
        # if the connect established meanwhile — waiters re-check)
        self.adi.engine.schedule(window, self.adi.provider.activity.fire)

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
        ch.state = ChannelState.FAILED

    # -- shared helpers -------------------------------------------------------------
    def _open_and_request(self, ch: Channel) -> None:
        """Create ``ch``'s VI and issue the peer-to-peer request."""
        adi = self.adi
        adi.open_channel_vi(ch)
        adi.charge(adi.provider.connect_peer_request(
            ch.vi, adi.rank_to_node(ch.dest), ch.dest))
        ch.state = ChannelState.CONNECTING
        ch.connect_attempts = 1
        self._arm_connect_deadline(ch)
        self._connect_seq += 1
        ch.connect_seq = self._connect_seq
        self._connecting[ch.dest] = ch

    def _settle_init(self, setup: str):
        """Generator: wait until every request issued so far has either
        established or (under fault injection) exhausted its retries —
        never wait on a dead peer forever — then fail on the latter."""
        adi = self.adi
        yield from adi.wait_until(lambda: not self._connecting)
        failed = sorted(
            ch.dest for ch in adi.channels.values()
            if ch.state is ChannelState.FAILED
        )
        if failed:
            raise ConnectionFailed(
                f"rank {adi.rank}: {setup} setup could not connect to "
                f"ranks {failed}"
            )

    def _all_peers(self):
        return (r for r in range(self.adi.size) if r != self.adi.rank)
