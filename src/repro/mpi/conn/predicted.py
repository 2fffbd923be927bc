"""Predicted connection management: static setup over the analyzed graph.

The static-analysis answer to the paper's static-vs-on-demand trade-off
(:mod:`repro.analysis.comm`): ``MPI_Init`` pre-establishes exactly the
edges the communication-graph analyzer proved the kernel needs
(``MpiConfig.predicted_peers``), so the application pays on-demand's
resource footprint — VIs only where messages actually flow — with
static's zero first-message connection penalty.

Soundness is belt-and-braces: the analyzer widens every rank it cannot
resolve to a full mesh, and if a send still names an unpredicted peer at
runtime, :meth:`channel_for` falls back to an on-demand lazy connect
(counted in :attr:`mispredictions` and flagged in telemetry) instead of
failing.  ``MPI_ANY_SOURCE`` receives touch only the predicted peer set:
the analysis already widened wildcard receivers to full fan-in, mirroring
the on-demand manager's MVICH §3.5 rule, so every possible sender is
pre-connected.
"""

from __future__ import annotations

from repro.mpi.channel import Channel, ChannelState
from repro.mpi.conn.base import BaseConnectionManager
from repro.mpi.constants import ANY_SOURCE, ConnectionFailed


class PredictedConnectionManager(BaseConnectionManager):
    name = "predicted"

    @classmethod
    def init_vi_demand(cls, nprocs: int) -> int:
        """Without a graph in hand the bound is the full mesh; admission
        with the analyzed degree goes through the ``predicted_degree``
        argument of :func:`repro.mpi.conn.init_vi_demand`."""
        return max(0, nprocs - 1)

    def __init__(self, adi):
        super().__init__(adi)
        #: sends that named a peer outside the predicted set (fell back
        #: to an on-demand lazy connect)
        self.mispredictions = 0

    def _my_peers(self):
        """This rank's predicted peer list, clamped to valid ranks."""
        peers = self.adi.config.predicted_peers
        rank = self.adi.rank
        if peers is None or rank >= len(peers):
            return ()
        return tuple(
            p for p in peers[rank] if 0 <= p < self.adi.size and p != rank
        )

    def init_phase(self):
        """Create VIs and issue peer requests for the predicted edges
        only, then wait for them to establish (static-p2p style: all
        requests go out at once and settle as the matching side's
        requests arrive — the graph is symmetric by construction)."""
        for peer in self._my_peers():
            self._open_and_request(self.adi.new_channel(peer))
        yield from self._settle_init("predicted")

    def channel_for(self, dest: int) -> Channel:
        ch = self.adi.channels.get(dest)
        if ch is None:
            # the analyzer missed this edge: connect lazily like the
            # on-demand manager rather than fail — prediction is a
            # performance contract, not a correctness one
            self.mispredictions += 1
            if self.adi.telemetry is not None:
                self.adi.telemetry.counter(
                    "conn.predicted.mispredictions").inc()
                self.adi.telemetry.instant(
                    "conn.mispredict", ("rank", self.adi.rank), peer=dest,
                )
            ch = self.adi.new_channel(dest)
            self._open_and_request(ch)
        elif ch.state is ChannelState.FAILED:
            raise ConnectionFailed(
                f"rank {self.adi.rank}: peer {dest} is unreachable "
                "(connect retry budget exhausted)"
            )
        return ch

    def on_recv_posted(self, source: int) -> None:
        if source == ANY_SOURCE:
            # the analysis widened wildcard receivers to full fan-in, so
            # every live sender is already in the predicted set
            for peer in self._my_peers():
                self.channel_for(peer)
        else:
            self.channel_for(source)
