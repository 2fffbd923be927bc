"""Channel flow control and FIFO priority, as the ADI's post pass
applies them, and MpiConfig.

The posting rules (connection first, control before envelopes, one
credit per non-credit message, the rendezvous window, strict FIFO) are
driven through real jobs on ``tests/mpi_rig.py``: rank 0 queues
messages while rank 1 computes without polling, so nothing returns
credits or answers an RTS until the test has looked.
"""

import numpy as np
import pytest

from repro.mpi.channel import Channel, ChannelState, PendingSend
from repro.mpi.config import MpiConfig
from repro.mpi.headers import CreditHeader, CtsHeader, EagerHeader, RtsHeader

from tests.mpi_rig import record_posts, run

#: rank 1 computes this long before it receives anything
BUSY_US = 50_000.0
#: over the default eager threshold: these sends go by rendezvous
RNDV_WORDS = 1000


def make_channel(credits=4, threshold=2, window=2) -> Channel:
    ch = Channel(dest=1, data_credits=credits, explicit_threshold=threshold,
                 rndv_window=window)
    ch.state = ChannelState.CONNECTED
    return ch


def eager(seq=0, **kw):
    return EagerHeader(src_rank=0, seq=seq, **kw)


def posted_to_1(posts):
    """The headers rank 0 posted to rank 1, in order."""
    return [header for rank, peer, header in posts if (rank, peer) == (0, 1)]


def sender_receiver(send, nsends, words=1):
    """A two-rank program: rank 0 calls ``send(mpi)``, which queues
    ``nsends`` messages to rank 1 with tags 0.. and returns their
    requests, then waits for them; rank 1 computes for ``BUSY_US``
    without polling, then receives them all."""
    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.waitall(send(mpi))
            return None
        yield from mpi.compute(BUSY_US)
        for tag in range(nsends):
            yield from mpi.recv(np.zeros(words), source=0, tag=tag)
        return None
    return prog


class TestChannelPosting:
    def test_unconnected_channel_posts_nothing(self, monkeypatch):
        posts = record_posts(monkeypatch)
        seen = []

        def send(mpi):
            req = mpi.isend(np.ones(1), 1, tag=0)
            ch = mpi._adi.conn.channel_for(1)
            seen.append((ch.state, len(ch.send_fifo), len(posted_to_1(posts))))
            return [req]

        run(sender_receiver(send, 1), connection="ondemand")
        assert seen == [(ChannelState.CONNECTING, 1, 0)]
        assert [type(h) for h in posted_to_1(posts)] == [EagerHeader]

    def test_fifo_order(self, monkeypatch):
        """Envelopes queued before the connection exists go out in the
        order they were queued, numbered in that order."""
        posts = record_posts(monkeypatch)

        def send(mpi):
            return [mpi.isend(np.ones(1), 1, tag=tag) for tag in range(3)]

        run(sender_receiver(send, 3), connection="ondemand")
        headers = posted_to_1(posts)
        assert [(h.tag, h.seq) for h in headers] == [(0, 0), (1, 1), (2, 2)]

    def test_control_has_priority(self, monkeypatch):
        """A control message queued after an envelope on a connecting
        channel is posted before it once the connection is up."""
        posts = record_posts(monkeypatch)

        def send(mpi):
            adi = mpi._adi
            req = mpi.isend(np.ones(1), 1, tag=0)
            adi._queue_control(adi.conn.channel_for(1),
                               CreditHeader(src_rank=0))
            return [req]

        run(sender_receiver(send, 1), connection="ondemand")
        assert [type(h) for h in posted_to_1(posts)] == [
            CreditHeader, EagerHeader]

    def test_credit_exhaustion_blocks_envelopes_and_control(
            self, monkeypatch):
        posts = record_posts(monkeypatch)
        seen = []

        def send(mpi):
            adi = mpi._adi
            ch = adi.conn.channel_for(1)
            reqs = [mpi.isend(np.ones(1), 1, tag=tag) for tag in range(3)]
            cts = CtsHeader(src_rank=0)
            adi._queue_control(ch, cts)
            seen.append((ch.credits, len(ch.send_fifo),
                         [type(h) for h in posted_to_1(posts)],
                         cts in [item.header for item in ch.control_queue]))
            ch.control_queue.clear()  # no rendezvous is waiting for it
            return reqs

        run(sender_receiver(send, 3), connection="static-p2p",
            data_credits=2)
        assert seen == [(0, 1, [EagerHeader, EagerHeader], True)]
        assert [h.tag for h in posted_to_1(posts)] == [0, 1, 2]

    def test_explicit_credit_bypasses_credits(self, monkeypatch):
        posts = record_posts(monkeypatch)
        seen = []

        def send(mpi):
            adi = mpi._adi
            ch = adi.conn.channel_for(1)
            reqs = [mpi.isend(np.ones(1), 1, tag=tag) for tag in range(3)]
            adi._queue_control(ch, CreditHeader(src_rank=0))
            seen.append((ch.credits, len(ch.send_fifo), len(ch.control_queue),
                         [type(h) for h in posted_to_1(posts)]))
            return reqs

        run(sender_receiver(send, 3), connection="static-p2p",
            data_credits=2)
        assert seen == [
            (0, 1, 0, [EagerHeader, EagerHeader, CreditHeader])]

    def test_rndv_window_limits_rts(self, monkeypatch):
        posts = record_posts(monkeypatch)
        seen = []

        def send(mpi):
            ch = mpi._adi.conn.channel_for(1)
            reqs = [mpi.isend(np.ones(RNDV_WORDS), 1, tag=tag)
                    for tag in range(2)]
            seen.append((ch.rndv_outstanding, len(ch.send_fifo),
                         [type(h) for h in posted_to_1(posts)]))
            return reqs

        run(sender_receiver(send, 2, RNDV_WORDS), connection="static-p2p",
            rndv_window=1)
        assert seen == [(1, 1, [RtsHeader])]
        assert [type(h) for h in posted_to_1(posts)].count(RtsHeader) == 2

    def test_blocked_head_is_not_overtaken(self, monkeypatch):
        """An eager envelope behind an RTS that the rendezvous window
        holds back waits too, though credits would let it go."""
        posts = record_posts(monkeypatch)
        seen = []

        def send(mpi):
            ch = mpi._adi.conn.channel_for(1)
            reqs = [mpi.isend(np.ones(RNDV_WORDS), 1, tag=tag)
                    for tag in range(2)]
            reqs.append(mpi.isend(np.ones(RNDV_WORDS)[:1], 1, tag=2))
            seen.append((ch.credits > 0, len(ch.send_fifo),
                         [type(h) for h in posted_to_1(posts)]))
            return reqs

        run(sender_receiver(send, 3, RNDV_WORDS), connection="static-p2p",
            rndv_window=1)
        assert seen == [(True, 2, [RtsHeader])]
        assert [h.seq for h in posted_to_1(posts)
                if isinstance(h, (EagerHeader, RtsHeader))] == [0, 1, 2]


class TestChannelCredits:
    def test_piggyback_drains_returns(self):
        ch = make_channel()
        ch.credits_to_return += 2  # two consumed receive buffers
        assert ch.take_piggyback() == 2
        assert ch.take_piggyback() == 0

    def test_received_piggyback_restores_credits(self):
        """Rank 0's eager send takes a credit; rank 1's reply carries it
        back piggybacked."""
        credits = []

        def prog(mpi):
            word = np.zeros(1)
            if mpi.rank == 1:
                yield from mpi.recv(word, source=0, tag=0)
                yield from mpi.send(word, 0, tag=1)
                return None
            ch = mpi._adi.conn.channel_for(1)
            credits.append(ch.credits)
            yield from mpi.send(word, 1, tag=0)
            credits.append(ch.credits)
            yield from mpi.recv(word, source=1, tag=1)
            credits.append(ch.credits)
            return None

        run(prog, connection="static-p2p", data_credits=2)
        assert credits == [2, 1, 2]

    def test_explicit_threshold_logic(self):
        ch = make_channel(threshold=2)
        assert not ch.should_send_explicit_credits()
        ch.credits_to_return += 2
        assert ch.should_send_explicit_credits()
        # pending outbound traffic suppresses explicit updates
        ch.send_fifo.append(PendingSend(eager(), None, None))
        assert not ch.should_send_explicit_credits()

    def test_sequencing_detects_violation(self, monkeypatch):
        posts = record_posts(monkeypatch)

        def send(mpi):
            return [mpi.isend(np.ones(1), 1, tag=tag) for tag in range(2)]

        run(sender_receiver(send, 2), connection="static-p2p")
        assert [h.seq for h in posted_to_1(posts)] == [0, 1]
        ch = make_channel()
        ch.check_envelope_order(0)
        with pytest.raises(RuntimeError, match="ordering"):
            ch.check_envelope_order(5)

    def test_used_reflects_traffic(self):
        ch = make_channel()
        assert not ch.used
        ch.messages_sent = 1
        assert ch.used


class TestMpiConfig:
    def test_defaults_give_paper_memory_footprint(self):
        cfg = MpiConfig()
        # 18 recv + 6 send buffers x 5000 B = the paper's 120 kB per VI
        assert cfg.prepost_count == 18
        assert (cfg.prepost_count + cfg.send_pool_count) * cfg.eager_threshold \
            == 120_000

    @pytest.mark.parametrize("bad", [
        dict(connection="lazy"),
        dict(completion="busywait"),
        dict(eager_threshold=-1),
        dict(spincount=0),
        dict(data_credits=0),
        dict(control_reserve=0),
        dict(rndv_window=0),
        dict(send_pool_count=0),
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ValueError):
            MpiConfig(**bad)

    def test_frozen(self):
        cfg = MpiConfig()
        with pytest.raises(AttributeError):
            cfg.connection = "static-p2p"  # type: ignore[misc]
