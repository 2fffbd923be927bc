"""VIA datapath tests: sends, receives, drops, RDMA, BVIA VI penalty."""

import numpy as np
import pytest

from repro.memory.buffer_pool import BufferPoolError
from repro.via import BERKELEY, CLAN, DescriptorStatus, ViaProtocolError
from repro.via.provider import ViConfig

from tests.via_rig import make_rig


def drain_recv(provider):
    out = []
    while (d := provider.poll_recv_cq()) is not None:
        out.append(d)
    return out


def drain_send(provider):
    out = []
    while (d := provider.poll_send_cq()) is not None:
        out.append(d)
    return out


class TestEagerSendRecv:
    def test_payload_arrives_intact(self):
        rig = make_rig()
        vi_a, vi_b = rig.connect_pair(0, 1)
        payload = np.arange(100, dtype=np.uint8)
        rig.providers[0].post_send(vi_a, header={"tag": 9}, payload=payload)
        rig.engine.run()
        done = drain_recv(rig.providers[1])
        assert len(done) == 1
        desc = done[0]
        assert desc.status is DescriptorStatus.SUCCESS
        assert desc.length == 100
        assert desc.header == {"tag": 9}
        assert np.array_equal(desc.buffer.view()[:100], payload)

    def test_send_completion_reported(self):
        rig = make_rig()
        vi_a, _ = rig.connect_pair(0, 1)
        desc, _ = rig.providers[0].post_send(vi_a, header=None,
                                             payload=np.zeros(8, dtype=np.uint8))
        rig.engine.run()
        assert desc.status is DescriptorStatus.SUCCESS
        assert drain_send(rig.providers[0]) == [desc]

    def test_zero_byte_send(self):
        rig = make_rig()
        vi_a, _ = rig.connect_pair(0, 1)
        rig.providers[0].post_send(vi_a, header="ctl", payload=None)
        rig.engine.run()
        done = drain_recv(rig.providers[1])
        assert len(done) == 1 and done[0].length == 0 and done[0].header == "ctl"

    def test_messages_arrive_in_order(self):
        rig = make_rig()
        vi_a, _ = rig.connect_pair(0, 1)
        p0 = rig.providers[0]
        for i in range(5):
            p0.post_send(vi_a, header=i, payload=np.full(10, i, dtype=np.uint8))
        rig.engine.run()
        done = drain_recv(rig.providers[1])
        assert [d.header for d in done] == [0, 1, 2, 3, 4]
        for i, d in enumerate(done):
            assert (d.buffer.view()[:10] == i).all()

    def test_oversize_eager_rejected_at_post(self):
        rig = make_rig()
        vi_a, _ = rig.connect_pair(0, 1)
        big = np.zeros(rig.providers[0].config.eager_buffer_size + 1, dtype=np.uint8)
        with pytest.raises(ViaProtocolError, match="exceeds"):
            rig.providers[0].post_send(vi_a, header=None, payload=big)

    def test_send_on_unconnected_vi_rejected(self):
        rig = make_rig()
        p = rig.providers[0]
        vi, _ = p.create_vi(remote_rank=1)
        with pytest.raises(ViaProtocolError, match="unconnected|idle"):
            p.post_send(vi, header=None, payload=None)

    def test_send_pool_exhaustion_raises(self):
        rig = make_rig(config=ViConfig(send_pool_count=2))
        vi_a, _ = rig.connect_pair(0, 1)
        p0 = rig.providers[0]
        # post without running the engine: bounce buffers not yet recycled
        p0.post_send(vi_a, header=None, payload=None)
        p0.post_send(vi_a, header=None, payload=None)
        with pytest.raises(BufferPoolError):
            p0.post_send(vi_a, header=None, payload=None)

    def test_release_send_buffer_recycles(self):
        rig = make_rig(config=ViConfig(send_pool_count=1))
        vi_a, _ = rig.connect_pair(0, 1)
        p0 = rig.providers[0]
        desc, _ = p0.post_send(vi_a, header=None, payload=None)
        rig.engine.run()
        drain_send(p0)
        p0.release_send_buffer(desc)
        p0.post_send(vi_a, header=None, payload=None)  # the one buffer again

    def test_loopback_same_node(self):
        # two processes sharing node 0 is modelled by the cluster layer;
        # here: one provider sending to itself over a loopback connection
        rig = make_rig(nodes=1)
        p = rig.providers[0]
        vi_x, _ = p.create_vi(remote_rank=0)
        vi_y, _ = p.create_vi(remote_rank=0)
        # wire the pair manually (self-connection via agent would need
        # distinct discriminators; the NIC only cares about vi ids)
        vi_x.mark_connected(0, vi_y.vi_id, 0.0)
        vi_y.mark_connected(0, vi_x.vi_id, 0.0)
        p.post_send(vi_x, header="self", payload=np.arange(4, dtype=np.uint8))
        rig.engine.run()
        done = drain_recv(p)
        assert len(done) == 1 and done[0].header == "self"


class TestDropSemantics:
    def test_message_dropped_without_prepost(self):
        rig = make_rig(config=ViConfig(prepost_count=1))
        vi_a, vi_b = rig.connect_pair(0, 1)
        # exhaust B's single pre-posted descriptor, don't re-post
        p0, p1 = rig.providers
        p0.post_send(vi_a, header=1, payload=None)
        rig.engine.run()
        assert len(drain_recv(p1)) == 1
        p0.post_send(vi_a, header=2, payload=None)
        rig.engine.run()
        assert drain_recv(p1) == []
        assert rig.nics[1].dropped_no_recv_descriptor == 1

    def test_repost_recv_restores_delivery(self):
        rig = make_rig(config=ViConfig(prepost_count=1))
        vi_a, vi_b = rig.connect_pair(0, 1)
        p0, p1 = rig.providers
        p0.post_send(vi_a, header=1, payload=None)
        rig.engine.run()
        (first,) = drain_recv(p1)
        p1.repost_recv(vi_b, first.buffer)
        p0.post_send(vi_a, header=2, payload=None)
        rig.engine.run()
        (second,) = drain_recv(p1)
        assert second.header == 2
        assert rig.nics[1].dropped_no_recv_descriptor == 0


class TestRdma:
    def test_rdma_write_deposits_into_region(self):
        rig = make_rig()
        vi_a, vi_b = rig.connect_pair(0, 1)
        p0, p1 = rig.providers
        # receiver registers a target buffer with ITS OWN protection tag
        target = np.zeros(64, dtype=np.uint8)
        region, _ = p1.registry.register(64, protection_tag=vi_b.protection_tag,
                                         backing=target)
        data = np.arange(64, dtype=np.uint8)
        src = np.ascontiguousarray(data)
        desc, _ = p0.post_rdma_write(vi_a, src, region.handle, 0)
        rig.engine.run()
        assert desc.status is DescriptorStatus.SUCCESS
        assert np.array_equal(target, data)
        assert rig.nics[1].rdma_writes_received == 1
        # one-sided: nothing on the receiver's CQs
        assert drain_recv(p1) == []

    def test_rdma_with_offset(self):
        rig = make_rig()
        vi_a, vi_b = rig.connect_pair(0, 1)
        p1 = rig.providers[1]
        target = np.zeros(32, dtype=np.uint8)
        region, _ = p1.registry.register(32, protection_tag=vi_b.protection_tag,
                                         backing=target)
        rig.providers[0].post_rdma_write(
            vi_a, np.full(8, 7, dtype=np.uint8), region.handle, 16)
        rig.engine.run()
        assert (target[16:24] == 7).all()
        assert not target[:16].any()

    def test_rdma_protection_tag_mismatch_faults(self):
        rig = make_rig()
        vi_a, vi_b = rig.connect_pair(0, 1)
        p1 = rig.providers[1]
        region, _ = p1.registry.register(16, protection_tag=999)
        rig.providers[0].post_rdma_write(
            vi_a, np.zeros(4, dtype=np.uint8), region.handle, 0)
        with pytest.raises(PermissionError, match="protection tag"):
            rig.engine.run()


def one_way_time(profile, extra_vis):
    """One 4-byte eager message's time from post to receive completion,
    with ``extra_vis`` more connected VIs on both nodes."""
    rig = make_rig(profile=profile)
    # dormant connected VIs inflate the NIC scan on both nodes
    for _ in range(extra_vis):
        rig.connect_pair(0, 1)
    vi_a, vi_b = rig.connect_pair(0, 1)
    start = rig.engine.now
    rig.providers[0].post_send(vi_a, header=None,
                               payload=np.zeros(4, dtype=np.uint8))
    rig.engine.run()
    done = drain_recv(rig.providers[1])
    assert len(done) == 1
    return done[0].completed_at - start


class TestBerkeleyViPenalty:
    """The mechanism behind the paper's Figure 1."""

    def test_berkeley_latency_grows_with_vi_count(self):
        t_few = one_way_time(BERKELEY, extra_vis=0)
        t_many = one_way_time(BERKELEY, extra_vis=16)
        assert t_many > t_few + 16 * BERKELEY.nic_per_vi_us  # both directions add slope

    def test_clan_latency_independent_of_vi_count(self):
        t_few = one_way_time(CLAN, extra_vis=0)
        t_many = one_way_time(CLAN, extra_vis=16)
        assert t_many == pytest.approx(t_few)

    def test_slope_is_linear(self):
        t = [one_way_time(BERKELEY, extra_vis=k) for k in (0, 4, 8)]
        d1, d2 = t[1] - t[0], t[2] - t[1]
        assert d1 == pytest.approx(d2, rel=0.05)
