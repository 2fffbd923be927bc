"""Unit tests for MemoryRegistry, RegistrationCache and BufferPool."""

import numpy as np
import pytest

from repro.memory import (
    PAGE_SIZE,
    BufferPool,
    MemoryRegistry,
    RegistrationCache,
    RegistrationError,
)
from repro.memory.buffer_pool import BufferPoolError
from repro.memory.registry import RegistrationCosts


class TestCosts:
    def test_pages_for_rounds_up(self):
        # one µs per page: each cost counts the pages a buffer spans
        costs = RegistrationCosts(register_base_us=0.0, register_per_page_us=1.0,
                                  deregister_base_us=0.0,
                                  deregister_per_page_us=1.0)
        # a zero-byte registration still pins a page
        for nbytes, pages in ((1, 1), (PAGE_SIZE, 1), (PAGE_SIZE + 1, 2),
                              (0, 1)):
            assert costs.register_cost(nbytes) == pages
            assert costs.deregister_cost(nbytes) == pages

    def test_register_cost_scales_with_pages(self):
        costs = RegistrationCosts(register_base_us=10.0, register_per_page_us=2.0)
        assert costs.register_cost(PAGE_SIZE) == 12.0
        assert costs.register_cost(4 * PAGE_SIZE) == 18.0


class TestRegistry:
    def test_register_tracks_pinned_bytes(self):
        reg = MemoryRegistry()
        region, cost = reg.register(1000)
        assert cost > 0
        assert reg.stats.pinned_bytes == 1000
        assert reg.stats.peak_pinned_bytes == 1000
        assert reg.live_region_count == 1
        assert reg.lookup(region.handle) is region

    def test_deregister_releases_bytes_but_keeps_peak(self):
        reg = MemoryRegistry()
        r1, _ = reg.register(1000)
        r2, _ = reg.register(500)
        reg.deregister(r1)
        assert reg.stats.pinned_bytes == 500
        assert reg.stats.peak_pinned_bytes == 1500
        assert reg.live_region_count == 1
        with pytest.raises(RegistrationError):
            reg.lookup(r1.handle)

    def test_double_deregister_rejected(self):
        reg = MemoryRegistry()
        r, _ = reg.register(10)
        reg.deregister(r)
        with pytest.raises(RegistrationError):
            reg.deregister(r)

    def test_pin_limit_enforced(self):
        reg = MemoryRegistry(pin_limit_bytes=1024)
        reg.register(1000)
        with pytest.raises(RegistrationError, match="pin limit"):
            reg.register(100)

    def test_foreign_region_rejected(self):
        reg1, reg2 = MemoryRegistry(), MemoryRegistry()
        r, _ = reg1.register(10)
        with pytest.raises(RegistrationError):
            reg2.deregister(r)


class TestRegistrationCache:
    def test_miss_then_hit(self):
        reg = MemoryRegistry()
        cache = RegistrationCache(reg)
        buf = np.zeros(8192, dtype=np.uint8)
        region1, cost1 = cache.acquire(buf)
        assert cost1 > 0 and cache.misses == 1
        region2, cost2 = cache.acquire(buf)
        assert region2 is region1
        assert cost2 == 0.0 and cache.hits == 1

    def test_distinct_buffers_distinct_regions(self):
        reg = MemoryRegistry()
        cache = RegistrationCache(reg)
        a = np.zeros(100, dtype=np.uint8)
        b = np.zeros(100, dtype=np.uint8)
        ra, _ = cache.acquire(a)
        rb, _ = cache.acquire(b)
        assert ra is not rb
        assert reg.live_region_count == 2

    def test_lru_eviction_bounded_by_capacity(self):
        reg = MemoryRegistry()
        cache = RegistrationCache(reg, capacity_bytes=250)
        bufs = [np.zeros(100, dtype=np.uint8) for _ in range(3)]
        for b in bufs:
            cache.acquire(b)
        assert cache.evictions == 1
        assert cache.cached_bytes == 200
        # oldest (bufs[0]) was evicted: re-acquiring is a miss
        cache.acquire(bufs[0])
        assert cache.misses == 4

    def test_lru_order_updated_on_hit(self):
        reg = MemoryRegistry()
        cache = RegistrationCache(reg, capacity_bytes=250)
        a, b, c = (np.zeros(100, dtype=np.uint8) for _ in range(3))
        cache.acquire(a)
        cache.acquire(b)
        cache.acquire(a)  # refresh a
        cache.acquire(c)  # evicts b, not a
        _, cost = cache.acquire(a)
        assert cost == 0.0

    def test_flush_deregisters_everything(self):
        reg = MemoryRegistry()
        cache = RegistrationCache(reg)
        for _ in range(4):
            cache.acquire(np.zeros(64, dtype=np.uint8))
        cost = cache.flush()
        assert cost > 0
        assert len(cache) == 0
        assert reg.stats.pinned_bytes == 0

    def test_rejects_non_uint8(self):
        cache = RegistrationCache(MemoryRegistry())
        with pytest.raises(TypeError):
            cache.acquire(np.zeros(10, dtype=np.float64))


class TestBufferPool:
    def test_pool_pins_one_arena(self):
        reg = MemoryRegistry()
        pool = BufferPool(reg, count=8, size=512)
        assert reg.stats.pinned_bytes == 8 * 512
        assert reg.live_region_count == 1
        assert pool.pinned_bytes == 4096
        assert pool.registration_cost_us > 0

    def test_acquire_release_cycle(self):
        pool = BufferPool(MemoryRegistry(), count=2, size=64)
        a = pool.acquire()
        b = pool.acquire()
        assert pool.in_use_count == 2
        pool.release(a)
        c = pool.acquire()
        assert c.index == a.index  # LIFO reuse
        pool.release(b)
        pool.release(c)
        assert pool.in_use_count == 0

    def test_exhaustion_raises(self):
        pool = BufferPool(MemoryRegistry(), count=1, size=64)
        pool.acquire()
        with pytest.raises(BufferPoolError, match="flow control"):
            pool.acquire()

    def test_double_release_rejected(self):
        pool = BufferPool(MemoryRegistry(), count=1, size=64)
        buf = pool.acquire()
        pool.release(buf)
        with pytest.raises(BufferPoolError):
            pool.release(buf)

    def test_foreign_buffer_rejected(self):
        p1 = BufferPool(MemoryRegistry(), count=1, size=64)
        p2 = BufferPool(MemoryRegistry(), count=1, size=64)
        buf = p1.acquire()
        with pytest.raises(BufferPoolError):
            p2.release(buf)

    def test_buffers_are_disjoint_slices(self):
        pool = BufferPool(MemoryRegistry(), count=4, size=16)
        bufs = [pool.acquire() for _ in range(4)]
        for i, buf in enumerate(bufs):
            buf.view()[:] = i + 1
        for i, buf in enumerate(bufs):
            assert (buf.view() == i + 1).all()

    def test_destroy_unpins(self):
        reg = MemoryRegistry()
        pool = BufferPool(reg, count=2, size=64)
        cost = pool.destroy()
        assert cost > 0
        assert reg.stats.pinned_bytes == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BufferPool(MemoryRegistry(), count=0, size=64)
        with pytest.raises(ValueError):
            BufferPool(MemoryRegistry(), count=4, size=0)
