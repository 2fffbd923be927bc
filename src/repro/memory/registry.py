"""Per-process registration accounting and the dreg-style cache.

:class:`MemoryRegistry` is the bookkeeping half of ``VipRegisterMem`` /
``VipDeregisterMem``: it tracks how many bytes are currently pinned, the
high-water mark, and how much time registration *would* cost (the DES
delay is applied by the caller, keeping this module engine-free and
trivially unit-testable).

:class:`RegistrationCache` reproduces MVICH's ``dreg``: rendezvous
transfers register user buffers on demand, and deregistration is lazy so
a re-used buffer hits the cache and pays nothing.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.memory.arena import ARENAS
from repro.memory.region import (
    REGION_DEREGISTERED,
    REGION_REGISTERED,
    MemoryRegion,
)

#: x86 page size; registration cost scales with pages pinned.
PAGE_SIZE = 4096


#: what a recycled region holds instead of its bytes, so a stale holder
#: fails on the shape rather than writing into the next owner's arena
_RECYCLED = np.empty(0, dtype=np.uint8)


class RegistrationError(RuntimeError):
    """Raised on invalid registry operations or pin-limit overflow."""


@dataclass
class RegistrationCosts:
    """Cost model for pin/unpin, microseconds.

    The defaults approximate a 2.2.x Linux kernel on the paper's hardware:
    a syscall plus per-page table walk and pinning.
    """

    register_base_us: float = 25.0
    register_per_page_us: float = 1.5
    deregister_base_us: float = 15.0
    deregister_per_page_us: float = 0.5

    # each charges per page the buffer spans, at least one: a zero-byte
    # registration still pins a page
    def register_cost(self, nbytes: int) -> float:
        return (self.register_base_us
                + self.register_per_page_us * max(1, -(-nbytes // PAGE_SIZE)))

    def deregister_cost(self, nbytes: int) -> float:
        return (self.deregister_base_us
                + self.deregister_per_page_us * max(1, -(-nbytes // PAGE_SIZE)))


@dataclass
class RegistryStats:
    """Counters exposed to the metrics layer."""

    registrations: int = 0
    deregistrations: int = 0
    pinned_bytes: int = 0
    peak_pinned_bytes: int = 0
    total_register_us: float = 0.0
    total_deregister_us: float = 0.0


class MemoryRegistry:
    """Tracks every live registration of one simulated process.

    Parameters
    ----------
    pin_limit_bytes:
        Optional hard cap on pinned memory (the OS ``mlock`` limit /
        physical-memory pressure the paper warns about).  Exceeding it
        raises :class:`RegistrationError`.
    """

    def __init__(
        self,
        costs: Optional[RegistrationCosts] = None,
        pin_limit_bytes: Optional[int] = None,
        label: str = "",
    ):
        self.costs = costs or RegistrationCosts()
        self.pin_limit_bytes = pin_limit_bytes
        self.label = label
        self.stats = RegistryStats()
        self._regions: dict[int, MemoryRegion] = {}
        #: optional lifecycle observer (repro.analysis leak sanitizer);
        #: notified after each register/deregister, never consulted
        self.observer = None

    # -- registration ------------------------------------------------------
    def register(
        self,
        nbytes: int,
        protection_tag: int = 0,
        backing: Optional[np.ndarray] = None,
        owner_label: str = "",
    ) -> tuple[MemoryRegion, float]:
        """Pin a new region; returns ``(region, cost_us)``.

        Without ``backing`` the region's bytes come from the process's
        arena cache (:mod:`repro.memory.arena`): all zero, but possibly
        the recycled arena of an earlier registration.
        """
        stats = self.stats
        if self.pin_limit_bytes is not None:
            if stats.pinned_bytes + nbytes > self.pin_limit_bytes:
                raise RegistrationError(
                    f"{self.label or 'registry'}: pin limit exceeded "
                    f"({stats.pinned_bytes} + {nbytes} > {self.pin_limit_bytes})"
                )
        if backing is None:
            if nbytes < 0:
                raise ValueError(f"negative region size {nbytes}")
            region = MemoryRegion(
                nbytes, protection_tag, ARENAS.take(nbytes), owner_label)
            region.from_arena = True
        else:
            region = MemoryRegion(nbytes, protection_tag, backing, owner_label)
        self._regions[region.handle] = region
        cost = self.costs.register_cost(nbytes)
        stats.registrations += 1
        pinned = stats.pinned_bytes = stats.pinned_bytes + nbytes
        if pinned > stats.peak_pinned_bytes:
            stats.peak_pinned_bytes = pinned
        stats.total_register_us += cost
        if self.observer is not None:
            self.observer.on_register(self, region)
        return region, cost

    def deregister(
        self, region: MemoryRegion, dirty_bytes: Optional[int] = None
    ) -> float:
        """Unpin a region; returns the cost in microseconds.

        ``dirty_bytes`` is the owner's word that nothing references the
        region's bytes any more and that at most its first
        ``dirty_bytes`` were ever written: an arena-backed region is
        then recycled (and gives up its ``data``).  Without it the
        memory is left to whoever still holds it; user ``backing``
        arrays are never recycled.
        """
        if region.handle not in self._regions:
            raise RegistrationError(f"region #{region.handle} is not registered here")
        if region.state is not REGION_REGISTERED:
            raise RegistrationError(f"region #{region.handle} already deregistered")
        if dirty_bytes is not None and not 0 <= dirty_bytes <= region.nbytes:
            raise ValueError(
                f"dirty_bytes {dirty_bytes} outside region #{region.handle} "
                f"of {region.nbytes} bytes")
        del self._regions[region.handle]
        region.state = REGION_DEREGISTERED
        cost = self.costs.deregister_cost(region.nbytes)
        stats = self.stats
        stats.deregistrations += 1
        stats.pinned_bytes -= region.nbytes
        stats.total_deregister_us += cost
        if self.observer is not None:
            self.observer.on_deregister(self, region)
        if dirty_bytes is not None and region.from_arena:
            block, region.data = region.data, _RECYCLED
            ARENAS.give(block, dirty_bytes)
        return cost

    # -- inspection ----------------------------------------------------------
    @property
    def live_region_count(self) -> int:
        return len(self._regions)

    def lookup(self, handle: int) -> MemoryRegion:
        try:
            return self._regions[handle]
        except KeyError:
            raise RegistrationError(f"unknown region handle {handle}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MemoryRegistry {self.label!r} live={len(self._regions)} "
            f"pinned={self.stats.pinned_bytes}B peak={self.stats.peak_pinned_bytes}B>"
        )


@dataclass
class _CacheEntry:
    region: MemoryRegion
    nbytes: int
    hits: int = 0


class RegistrationCache:
    """dreg-style lazy-deregistration cache keyed by virtual address.

    Real ``dreg`` keys on virtual address ranges; the simulation keys on
    the (data pointer, length) of the numpy buffer, so distinct views of
    the same underlying user buffer hit the cache just like re-posted
    buffers do on real hardware.  Evictions are LRU and bounded by
    ``capacity_bytes``.
    """

    def __init__(self, registry: MemoryRegistry, capacity_bytes: int = 32 * 1024 * 1024):
        self.registry = registry
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[tuple[int, int], _CacheEntry]" = OrderedDict()
        self._cached_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def _key(buffer: np.ndarray) -> tuple[int, int]:
        return (buffer.__array_interface__["data"][0], buffer.nbytes)

    def acquire(
        self, buffer: np.ndarray, protection_tag: int = 0
    ) -> tuple[MemoryRegion, float]:
        """Return a registered region covering ``buffer``.

        Cost is zero on a cache hit; otherwise the registration cost
        (plus any eviction deregistration costs).
        """
        if buffer.dtype != np.uint8 or buffer.ndim != 1:
            raise TypeError("registration cache handles 1-D uint8 buffers")
        key = self._key(buffer)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            entry.hits += 1
            self.hits += 1
            return entry.region, 0.0
        self.misses += 1
        cost = self._make_room(buffer.nbytes)
        region, reg_cost = self.registry.register(
            buffer.nbytes, protection_tag, backing=buffer, owner_label="dreg"
        )
        cost += reg_cost
        self._entries[key] = _CacheEntry(region=region, nbytes=buffer.nbytes)
        self._cached_bytes += buffer.nbytes
        return region, cost

    def _make_room(self, incoming: int) -> float:
        cost = 0.0
        while self._entries and self._cached_bytes + incoming > self.capacity_bytes:
            oldest_key = next(iter(self._entries))
            cost += self._evict(oldest_key)
            self.evictions += 1
        return cost

    def _evict(self, key: int) -> float:
        entry = self._entries.pop(key)
        self._cached_bytes -= entry.nbytes
        return self.registry.deregister(entry.region)

    def flush(self) -> float:
        """Deregister everything (job teardown); returns total cost."""
        cost = 0.0
        for key in list(self._entries):
            cost += self._evict(key)
        return cost

    @property
    def cached_bytes(self) -> int:
        return self._cached_bytes

    def __len__(self) -> int:
        return len(self._entries)
