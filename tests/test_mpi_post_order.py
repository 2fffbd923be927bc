"""The post pass visits channels in the order they became due.

``AbstractDevice._dirty`` and ``_owing`` used to be sets of channels
(identity hash), so when two channels were due in one
``MPID_DeviceCheck`` the order they were posted in followed object
addresses.  Both are insertion-ordered now; these tests make several
channels due in a single pass and pin the order.
"""

from __future__ import annotations

import numpy as np

from repro.mpi.adi import AbstractDevice
from repro.mpi.headers import CreditHeader
from repro.via.provider import ViaProvider

from tests.mpi_rig import run


def record_posts(monkeypatch):
    """(poster rank, peer rank, header) of every eager post, in order."""
    posts = []
    original = ViaProvider.post_send

    def post_send(self, vi, header, payload, context=None):
        posts.append((self.rank, vi.remote_rank, header))
        return original(self, vi, header, payload, context=context)

    monkeypatch.setattr(ViaProvider, "post_send", post_send)
    return posts


def test_queued_sends_post_in_queueing_order(monkeypatch):
    posts = record_posts(monkeypatch)
    marks = []
    original_mark = AbstractDevice.mark_channel_connected

    def mark(self, ch):
        marks.append((self.rank, ch.dest))
        original_mark(self, ch)

    monkeypatch.setattr(AbstractDevice, "mark_channel_connected", mark)
    checks_at_post = []

    def prog(mpi):
        word = np.zeros(1)
        if mpi.rank != 0:
            yield from mpi.recv(word, source=0, tag=0)
            return None
        # connect in the order 1, 2, 3 — then queue sends as 3, 1, 2
        for peer in (1, 2, 3):
            mpi._adi.conn.channel_for(peer)
        sends = [mpi.isend(word, peer, tag=0) for peer in (3, 1, 2)]
        yield from mpi.compute(50_000.0)  # all three establish, unpolled
        before = mpi._adi.device_checks
        yield from mpi.test(sends[0])
        checks_at_post.append(mpi._adi.device_checks - before)
        assert all(s.done for s in sends)
        return None

    run(prog, nprocs=4, nodes=4, ppn=1, connection="ondemand")
    assert checks_at_post == [1], "one device check must have posted all three"
    assert [dest for rank, dest in marks if rank == 0] == [1, 2, 3]
    assert [peer for rank, peer, _h in posts if rank == 0] == [3, 1, 2]


def test_explicit_credits_fire_in_the_order_channels_fell_due(monkeypatch):
    posts = record_posts(monkeypatch)
    arrivals = []
    original_arrival = AbstractDevice._handle_arrival

    def handle_arrival(self, desc):
        if self.rank == 0:
            arrivals.append(desc.header.src_rank)
        original_arrival(self, desc)

    monkeypatch.setattr(AbstractDevice, "_handle_arrival", handle_arrival)
    burst = 5  # == the explicit-credit threshold of the default window

    def credits_sent():
        return [peer for rank, peer, header in posts
                if rank == 0 and isinstance(header, CreditHeader)]

    def prog(mpi):
        if mpi.rank == 0:
            bufs = [np.zeros(1) for _ in range(2 * burst)]
            recvs = [mpi.irecv(bufs[i], source=1 + i % 2, tag=i // 2)
                     for i in range(2 * burst)]
            yield from mpi.compute(50_000.0)  # both bursts land, unpolled
            before = mpi._adi.device_checks
            assert credits_sent() == []
            yield from mpi.test(recvs[-1])
            assert mpi._adi.device_checks - before == 1
            assert len(credits_sent()) == 2, "both must fire in one pass"
            yield from mpi.waitall(recvs)
            return None
        if mpi.rank == 1:
            yield from mpi.compute(2_000.0)  # rank 2's burst lands first
        for i in range(burst):
            yield from mpi.send(np.full(1, float(i)), 0, tag=i)
        return None

    run(prog, nprocs=3, nodes=3, ppn=1, connection="static-p2p")
    # the order in which each peer's burst-th message was handled
    seen = {1: 0, 2: 0}
    due = []
    for src in arrivals:
        seen[src] += 1
        if seen[src] == burst:
            due.append(src)
    assert due == [2, 1]
    assert credits_sent() == due
