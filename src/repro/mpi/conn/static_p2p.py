"""Static connection management over the peer-to-peer model.

The original MVICH behaviour: ``MPID_Init`` creates N-1 VIs and
establishes N-1 connections before the application runs.  Unlike the
serialized client/server variant, all peer requests go out immediately
and establish as the matching requests arrive — the faster static setup
in the paper's Figure 8.
"""

from __future__ import annotations

from repro.mpi.channel import Channel
from repro.mpi.conn.base import BaseConnectionManager
from repro.mpi.constants import ANY_SOURCE, MpiError


class StaticPeerToPeerConnectionManager(BaseConnectionManager):
    name = "static-p2p"

    @classmethod
    def init_vi_demand(cls, nprocs: int) -> int:
        """Fully connected at MPI_Init: one VI per peer."""
        return max(0, nprocs - 1)

    def init_phase(self):
        """Create all VIs, issue all requests, wait for full connectivity."""
        for peer in self._all_peers():
            self._open_and_request(self.adi.new_channel(peer))
        yield from self._settle_init("static")

    def channel_for(self, dest: int) -> Channel:
        try:
            return self.adi.channels[dest]
        except KeyError:
            raise MpiError(
                f"static connection manager has no channel to {dest}; "
                "was MPI_Init run?"
            ) from None

    def on_recv_posted(self, source: int) -> None:
        # fully connected: nothing to do, even for ANY_SOURCE
        if source != ANY_SOURCE:
            self.channel_for(source)
