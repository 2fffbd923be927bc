"""Per-VI pre-posted eager buffer pools.

Every VI in MVICH owns a fixed set of registered buffers: receive-side
buffers pre-posted to the VI's receive queue (VIA drops messages that
arrive with no posted descriptor) and send-side bounce buffers that the
eager protocol copies outgoing payloads into.  The paper's resource
argument is exactly the product ``buffers_per_vi × eager_size × VIs``,
e.g. ~120 kB per VI in MVICH.

:class:`BufferPool` pins one VI's arena in the process's
:class:`~repro.memory.registry.MemoryRegistry` (that is the paper's
cost) and hands buffers out / takes them back; exhaustion signals a
flow-control bug upstream, so it raises rather than blocks.  The
:class:`PooledBuffer` objects over the arena appear as buffers are first
handed out, lowest index first, so the pool also knows how much of its
arena can ever have been written.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.memory.region import MemoryRegion
from repro.memory.registry import MemoryRegistry


class BufferPoolError(RuntimeError):
    """Pool misuse: double-free, foreign buffer, or exhaustion."""


class PooledBuffer:
    """One fixed-size slice of a pool's pinned region."""

    __slots__ = ("pool", "index", "region", "offset", "size", "in_use")

    def __init__(
        self, pool: "BufferPool", index: int, region: MemoryRegion,
        offset: int, size: int,
    ):
        self.pool = pool
        self.index = index
        self.region = region
        self.offset = offset
        self.size = size
        self.in_use = False

    def view(self) -> np.ndarray:
        """Writable view of the buffer's bytes."""
        return self.region.data[self.offset : self.offset + self.size]


class BufferPool:
    """A fixed population of equal-size pinned buffers for one VI.

    The whole pool is one registration (matching how MVICH registers a
    VI's buffer arena in one call), so creating a VI pins
    ``count × size`` bytes in a single operation whose cost the caller
    charges to the simulated clock.
    """

    def __init__(
        self,
        registry: MemoryRegistry,
        count: int,
        size: int,
        protection_tag: int = 0,
        label: str = "",
    ):
        if count <= 0 or size <= 0:
            raise ValueError("pool needs positive count and size")
        self.count = count
        self.size = size
        self.label = label
        self.registry = registry
        self.region, self.registration_cost_us = registry.register(
            count * size, protection_tag, owner_label=label or "buffer-pool"
        )
        #: buffers handed out at least once, by index; the rest of the
        #: arena has never been exposed and still reads as zeros
        self._buffers: List[PooledBuffer] = []
        self._free: List[int] = []  # released indices, LIFO for locality

    # -- allocation ----------------------------------------------------------
    def acquire(self) -> PooledBuffer:
        """Take a free buffer; raises :class:`BufferPoolError` when empty.

        Exhaustion is an invariant violation: the credit-based flow
        control must never let more messages in flight than buffers.
        """
        if self._free:
            buf = self._buffers[self._free.pop()]
        elif len(self._buffers) < self.count:
            index = len(self._buffers)
            buf = PooledBuffer(
                self, index, self.region, index * self.size, self.size)
            self._buffers.append(buf)
        else:
            raise BufferPoolError(
                f"buffer pool {self.label!r} exhausted ({self.count} buffers); "
                "flow control violated"
            )
        buf.in_use = True
        return buf

    def release(self, buf: PooledBuffer) -> None:
        """Return a buffer to the pool, checked.  (The MPI progress pass
        returns a completed send's bounce buffer inline, unchecked: it
        holds the buffer the pool handed out for that send.)"""
        if buf.pool is not self:
            raise BufferPoolError("buffer returned to the wrong pool")
        if not buf.in_use:
            raise BufferPoolError(f"double release of buffer {buf.index}")
        buf.in_use = False
        self._free.append(buf.index)

    def destroy(self, reusable: bool = True) -> float:
        """Deregister the arena (VI teardown); returns the cost.

        The arena is recycled unless the caller says something may still
        reference its buffers (``reusable=False``): only the buffers
        ever handed out can have been written.
        """
        dirty = len(self._buffers) * self.size if reusable else None
        # every buffer handed out points back at its pool: forgetting
        # them ends the cycle, so the pool is freed by reference counting
        self._buffers = []
        self._free = []
        return self.registry.deregister(self.region, dirty_bytes=dirty)

    # -- inspection ------------------------------------------------------------
    @property
    def in_use_count(self) -> int:
        return len(self._buffers) - len(self._free)

    @property
    def pinned_bytes(self) -> int:
        return self.count * self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BufferPool {self.label!r} {self.in_use_count}/{self.count} in use, "
            f"{self.size}B each>"
        )
