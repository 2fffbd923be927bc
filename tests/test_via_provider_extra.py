"""Additional VIA provider coverage: pool growth, teardown, counters."""

import numpy as np
import pytest

from repro.via import BERKELEY, CLAN
from repro.via.constants import DescriptorStatus

from tests.test_via_datapath import one_way_time
from tests.via_rig import make_rig


class TestGrowRecvPool:
    def test_growth_pins_and_posts(self):
        rig = make_rig()
        p = rig.providers[0]
        vi, _ = p.create_vi()
        before_posted = vi.posted_recv_count
        before_pinned = rig.registries[0].stats.pinned_bytes
        cost = p.grow_recv_pool(vi, 4)
        assert cost > 0
        assert vi.posted_recv_count == before_posted + 4
        assert rig.registries[0].stats.pinned_bytes == \
            before_pinned + 4 * p.config.eager_buffer_size
        assert len(vi.extra_recv_pools) == 1

    def test_grown_buffers_deliver_and_recycle(self):
        rig = make_rig()
        vi_a, vi_b = rig.connect_pair(0, 1)
        p0, p1 = rig.providers
        p1.grow_recv_pool(vi_b, 2)
        # exhaust more messages than the original prepost by recycling
        total = p1.config.prepost_count + 2
        delivered = 0
        for i in range(total):
            p0.post_send(vi_a, header=i, payload=None)
            rig.engine.run()
            desc = p1.poll_recv_cq()
            assert desc is not None and desc.header == i
            delivered += 1
            p1.repost_recv(vi_b, desc.buffer)
            sd = p0.poll_send_cq()
            p0.release_send_buffer(sd)
        assert delivered == total

    def test_destroy_unpins_grown_pools(self):
        rig = make_rig()
        p = rig.providers[0]
        vi, _ = p.create_vi()
        p.grow_recv_pool(vi, 4)
        p.destroy_vi(vi)
        assert rig.registries[0].stats.pinned_bytes == 0


class TestProviderCounters:
    def test_connection_counter_per_endpoint(self):
        rig = make_rig(nodes=3)
        rig.connect_pair(0, 1)
        rig.connect_pair(0, 2)
        assert rig.providers[0].connections_established == 2
        assert rig.providers[1].connections_established == 1
        assert rig.providers[2].connections_established == 1

    def test_nic_counters(self):
        rig = make_rig()
        vi_a, _ = rig.connect_pair(0, 1)
        rig.providers[0].post_send(vi_a, header=None,
                                   payload=np.arange(16, dtype=np.uint8))
        rig.engine.run()
        assert rig.nics[0].messages_sent == 1
        assert rig.nics[1].messages_received == 1
        assert rig.nics[1].dropped_no_recv_descriptor == 0

    def test_agent_requests_processed(self):
        rig = make_rig()
        rig.connect_pair(0, 1)
        assert rig.agents[0].requests_processed >= 1
        assert rig.agents[1].requests_processed >= 1
        assert (rig.agents[0].connections_established
                + rig.agents[1].connections_established) == 2

    def test_active_vi_count_excludes_idle(self):
        rig = make_rig()
        p = rig.providers[0]
        p.create_vi()  # idle: never connected
        vi2, _ = p.create_vi(remote_rank=1)
        assert p.live_vi_count == 2
        assert rig.nics[0].active_vi_count == 0
        p.connect_peer_request(vi2, 1, 1)
        assert rig.nics[0].active_vi_count == 1  # pending counts as scanned


class TestSendCompletionStatuses:
    def test_flushed_descriptor_on_disconnected_vi(self):
        """A send racing a teardown is FLUSHED, not delivered."""
        from repro.via.constants import ViState

        rig = make_rig()
        vi_a, vi_b = rig.connect_pair(0, 1)
        desc, _ = rig.providers[0].post_send(vi_a, header=None, payload=None)
        # disconnect before the NIC services the doorbell
        vi_a.state = ViState.DISCONNECTED
        vi_a.peer = None
        rig.engine.run()
        assert desc.status is DescriptorStatus.FLUSHED

    def test_descriptor_double_complete_rejected(self):
        rig = make_rig()
        vi_a, _ = rig.connect_pair(0, 1)
        desc, _ = rig.providers[0].post_send(vi_a, header=None, payload=None)
        rig.engine.run()
        with pytest.raises(RuntimeError, match="twice"):
            desc.complete(DescriptorStatus.SUCCESS, 0, 0.0)


class TestProfileSanity:
    def test_profiles_distinct(self):
        assert CLAN.nic_per_vi_us == 0.0
        assert BERKELEY.nic_per_vi_us > 0.0
        assert CLAN.has_blocking_wait and not BERKELEY.has_blocking_wait
        assert CLAN.supports_client_server
        assert not BERKELEY.supports_client_server

    def test_profile_lookup(self):
        from repro.via import profile_by_name

        assert profile_by_name("clan") is CLAN
        assert profile_by_name("berkeley") is BERKELEY
        with pytest.raises(KeyError):
            profile_by_name("infiniband")

    def test_service_time_model(self):
        """Each NIC service scans every active VI: ten more connected
        VIs on both nodes add ten scans to the sender's tx service and
        ten to the receiver's rx service."""
        for profile in (BERKELEY, CLAN):
            slope = one_way_time(profile, 10) - one_way_time(profile, 0)
            assert slope == pytest.approx(2 * 10 * profile.nic_per_vi_us,
                                          abs=1e-9)
        assert CLAN.copy_us(500) == pytest.approx(1.0)
