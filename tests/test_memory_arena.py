"""Recycled arenas: zero contract, no aliasing, honest accounting.

A hypothesis state machine drives ``register``/``deregister`` of mixed
sizes — with and without user ``backing``, vouched for or not — against
a plain reference model (one ``bytearray`` per live region), and unit
tests pin the paths VI teardown, dynamic flow control and the
connection cache take through the same recycler.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle, RuleBasedStateMachine, consumes, invariant, rule,
)

from repro.memory import BufferPool, MemoryRegistry, arena
from repro.memory import registry as registry_module
from repro.memory.arena import ArenaCache
from repro.mpi import MpiConfig
from repro.via.provider import ViConfig

from tests.counting import count_calls
from tests.mpi_rig import run
from tests.test_connection_cache import capture_devices, star_sweep
from tests.via_rig import make_rig

SIZES = st.sampled_from([0, 1, 64, 4096, 5000, 40_000, 80_000, 5_000_000])


@pytest.fixture
def arenas(monkeypatch):
    """A private arena cache, so counts here start from empty."""
    cache = ArenaCache()
    monkeypatch.setattr(registry_module, "ARENAS", cache)
    return cache


def span(array: np.ndarray) -> tuple:
    start = array.__array_interface__["data"][0]
    return start, start + array.nbytes


class RegistryMachine(RuleBasedStateMachine):
    regions = Bundle("regions")

    def __init__(self):
        super().__init__()
        self.saved = registry_module.ARENAS
        registry_module.ARENAS = ArenaCache()
        self.registry = MemoryRegistry()
        #: handle -> (region, model bytes, user backing or None)
        self.live = {}
        self.retired_backings = []
        self.registrations = 0
        self.peak = 0

    def teardown(self):
        registry_module.ARENAS = self.saved

    def pinned(self) -> int:
        return sum(len(model) for _r, model, _b in self.live.values())

    @rule(target=regions, nbytes=SIZES, own_backing=st.booleans())
    def register(self, nbytes, own_backing):
        backing = np.zeros(nbytes, dtype=np.uint8) if own_backing else None
        region, _cost = self.registry.register(nbytes, backing=backing)
        assert region.nbytes == nbytes == region.data.nbytes
        assert not region.data.any(), "a fresh region must read zero"
        assert region.from_arena == (not own_backing)
        self.live[region.handle] = (region, bytearray(nbytes), backing)
        self.registrations += 1
        self.peak = max(self.peak, self.pinned())
        return region.handle

    @rule(handle=regions, data=st.data())
    def write(self, handle, data):
        if handle not in self.live:
            return
        region, model, _backing = self.live[handle]
        if not region.nbytes:
            return
        length = data.draw(st.integers(1, min(region.nbytes, 9000)))
        offset = data.draw(st.integers(0, region.nbytes - length))
        fill = data.draw(st.integers(1, 255))
        region.write(offset, np.full(length, fill, dtype=np.uint8), 0)
        model[offset:offset + length] = bytes([fill]) * length

    @rule(handle=consumes(regions), vouch=st.booleans())
    def deregister(self, handle, vouch):
        if handle not in self.live:
            return
        region, model, backing = self.live.pop(handle)
        dirty = None
        if vouch:
            dirty = len(model.rstrip(b"\0"))
        self.registry.deregister(region, dirty_bytes=dirty)
        if backing is not None:
            assert region.data is backing, "user backing stays the user's"
            assert bytes(backing) == bytes(model)
            self.retired_backings.append(backing)

    @invariant()
    def contents_match_model(self):
        for region, model, _backing in self.live.values():
            assert region.data.tobytes() == bytes(model)

    @invariant()
    def live_regions_do_not_alias(self):
        spans = sorted(
            span(region.data) for region, model, _b in self.live.values()
            if len(model))
        for (_lo, hi), (lo, _hi) in zip(spans, spans[1:]):
            assert hi <= lo, "two live regions share bytes"

    @invariant()
    def backings_are_never_recycled(self):
        free = [block for blocks in registry_module.ARENAS._free.values()
                for block, _dirty in blocks]
        for backing in self.retired_backings:
            assert not any(np.shares_memory(backing, b) for b in free)

    @invariant()
    def stats_match(self):
        stats = self.registry.stats
        assert stats.registrations == self.registrations
        assert stats.pinned_bytes == self.pinned()
        assert stats.peak_pinned_bytes == self.peak
        assert self.registry.live_region_count == len(self.live)
        assert stats.registrations - stats.deregistrations == len(self.live)


TestRegistryMachine = RegistryMachine.TestCase
TestRegistryMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None)


class TestRecycling:
    def test_dirtied_arena_comes_back_zero(self, arenas):
        reg = MemoryRegistry()
        first, _ = reg.register(8192)
        first.data[:100] = 7
        block = first.data
        reg.deregister(first, dirty_bytes=100)
        assert first.data.nbytes == 0, "a recycled region gives up its bytes"
        second, _ = reg.register(8192)
        assert np.shares_memory(second.data, block)
        assert not second.data.any()

    def test_unvouched_region_is_not_recycled(self, arenas):
        reg = MemoryRegistry()
        region, _ = reg.register(4096)
        held = region.data
        reg.deregister(region)
        assert region.data is held and arenas.cached_bytes == 0
        other, _ = reg.register(4096)
        assert not np.shares_memory(other.data, held)

    def test_backing_is_never_recycled(self, arenas):
        reg = MemoryRegistry()
        backing = np.zeros(4096, dtype=np.uint8)
        region, _ = reg.register(4096, backing=backing)
        reg.deregister(region, dirty_bytes=0)
        assert arenas.cached_bytes == 0 and region.data is backing

    def test_dirty_bytes_validated_before_anything_changes(self, arenas):
        reg = MemoryRegistry()
        region, _ = reg.register(64)
        with pytest.raises(ValueError):
            reg.deregister(region, dirty_bytes=65)
        assert reg.live_region_count == 1
        reg.deregister(region, dirty_bytes=64)

    def test_cache_is_capped(self, arenas, monkeypatch):
        monkeypatch.setattr(arena, "_MAX_CACHED_BYTES", 10_000)
        reg = MemoryRegistry()
        regions = [reg.register(4096)[0] for _ in range(4)]
        for region in regions:
            reg.deregister(region, dirty_bytes=0)
        assert arenas.cached_bytes == 8192

    def test_pool_reports_only_buffers_handed_out(self, arenas):
        reg = MemoryRegistry()
        pool = BufferPool(reg, count=16, size=5000)
        a = pool.acquire()
        b = pool.acquire()
        pool.release(a)
        assert pool.acquire() is a  # LIFO: never a third buffer
        b.view()[:] = 9
        pool.destroy()
        (block, dirty), = arenas._free[80_000]
        assert dirty == 2 * 5000
        assert block[5000:10_000].all() and not block[10_000:].any()

    def test_pool_torn_down_in_flight_keeps_its_arena(self, arenas):
        pool = BufferPool(MemoryRegistry(), count=2, size=64)
        pool.destroy(reusable=False)
        assert arenas.cached_bytes == 0


class TestViTeardownPaths:
    def test_destroyed_vi_feeds_the_next(self, arenas):
        rig = make_rig()
        p = rig.providers[0]
        vi, _ = p.create_vi()
        blocks = [vi.recv_pool.region.data, vi.send_pool.region.data]
        p.destroy_vi(vi)
        again, _ = p.create_vi()
        assert np.shares_memory(again.recv_pool.region.data, blocks[0])
        assert np.shares_memory(again.send_pool.region.data, blocks[1])

    def test_grown_pools_recycle_too(self, arenas):
        rig = make_rig()
        p = rig.providers[0]
        vi, _ = p.create_vi()
        p.grow_recv_pool(vi, 4)
        grown = vi.extra_recv_pools[0].region.data
        p.destroy_vi(vi)
        vi2, _ = p.create_vi()
        p.grow_recv_pool(vi2, 4)
        assert np.shares_memory(vi2.extra_recv_pools[0].region.data, grown)
        assert not vi2.extra_recv_pools[0].region.data.any()

    def test_vi_with_unserviced_sends_keeps_its_arenas(self, arenas):
        rig = make_rig()
        vi_a, _vi_b = rig.connect_pair(0, 1)
        p = rig.providers[0]
        p.post_send(vi_a, header=None, payload=np.ones(8, dtype=np.uint8))
        assert vi_a.pending_send_count == 1
        p.destroy_vi(vi_a)
        assert arenas.cached_bytes == 0

    def test_pending_vi_keeps_its_arenas(self, arenas):
        rig = make_rig()
        p = rig.providers[0]
        vi, _ = p.create_vi(remote_rank=1)
        p.connect_peer_request(vi, rig.nics[1].node_id, 1)
        p.destroy_vi(vi)
        assert arenas.cached_bytes == 0

    def test_connection_cache_eviction_recycles(self, arenas, monkeypatch):
        carves = count_calls(monkeypatch, ArenaCache, "_carve")

        captured, restore = capture_devices()
        try:
            res = run(star_sweep(), nprocs=8, vi_cache_limit=3)
        finally:
            restore()
        assert res.returns[0] is True
        assert res.returns[1:] == [float(r) for r in range(1, 8)]
        hub = captured[0].provider
        assert captured[0].conn.evictions > 0 and hub.vis_destroyed > 0
        # two arenas a VI: the VIs opened after an eviction reuse what it
        # returned instead of carving their own
        vis = sum(adi.provider.vis_created for adi in captured.values())
        assert carves[0] < 2 * vis

    def test_dynamic_flow_control_grows_through_the_recycler(self, arenas, monkeypatch):
        def prog(mpi):
            n = 40
            if mpi.rank == 0:
                for i in range(n):
                    yield from mpi.send(np.full(64, i % 251, dtype=np.uint8), 1, tag=i)
                return None
            ok = True
            for i in range(n):
                buf = np.empty(64, dtype=np.uint8)
                yield from mpi.recv(buf, source=0, tag=i)
                ok = ok and bool((buf == i % 251).all())
            return ok

        carves = count_calls(monkeypatch, ArenaCache, "_carve")
        for expect_carves in (True, False):
            carves[0] = 0
            res = run(prog, nprocs=2, dynamic_buffers=True)
            assert res.returns[1] is True
            assert bool(carves[0]) is expect_carves
        # the grown chunks (not just the VIs' own arenas) came back
        size = ViConfig().eager_buffer_size
        prepost = MpiConfig(dynamic_buffers=True).prepost_count
        assert set(arenas._free) - {prepost * size, ViConfig().send_pool_count * size}
