"""Recycled, lazily-zeroed backing store for registry-allocated regions.

A VI pins ~120 kB of eager buffers whether or not a message ever
crosses it (the paper's resource argument), and under static setup most
never see one (its Table 2).  The *simulated* cost of that is the
registry's accounting; this module keeps the *host* from paying it too:

* fresh backing is carved from large anonymous mappings the kernel
  zero-fills page by page on first touch, so bytes nobody writes are
  never touched and never become resident;
* a region whose owner vouches for it at deregistration (see
  :meth:`~repro.memory.registry.MemoryRegistry.deregister`) goes onto a
  per-size free list together with the length of the prefix that may
  have been written, and only that prefix is cleared when the block is
  handed out again — a fresh region always reads as zeros.

The cache is process-wide on purpose: every job builds its own
registries, and the arenas of the job that just finished are exactly
what the next one needs.  It starts empty and maps nothing until the
first registration.  It is not thread-safe; simulations run one to a
process (the service's workers are processes).

A second cache, :data:`STAGING`, recycles the blocks a NIC stages RDMA
payloads in between service and delivery: a message costs one copy into
resident memory, not an allocation priced by the allocator's mood (a
fresh megabyte is mapped, faulted in and unmapped per message).  It is
*never zeroed* — the NIC overwrites exactly the bytes it then sends.
The lifetime rule (:meth:`repro.via.nic.Nic._deliver_rdma` decides): a
message never sequenced is delivered at most once, so its block returns
right after the deposit; a sequenced one (fault injection: retransmit
table, reorder buffer and fabric duplicates may still hold it) never
does, and its block goes back to the allocator with the message.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

#: host page size blocks are aligned to (the registry's ``PAGE_SIZE``
#: is the simulated machine's, for pin costs)
_PAGE = 4096

#: bytes per mapping that regions are carved from; a region of at least
#: half a slab gets a mapping of its own
_SLAB_BYTES = 8 << 20

#: most bytes the free lists hold; past it a returned block is dropped
#: (and its mapping unmapped once every block carved from it is gone)
_MAX_CACHED_BYTES = 256 << 20

#: most bytes the staging free lists hold (only blocks in flight at the
#: same time are ever out together)
_MAX_STAGING_BYTES = 32 << 20


def _map_zeroed(nbytes: int) -> np.ndarray:
    """``nbytes`` of private anonymous memory as a writable uint8 array.

    Mapped directly rather than through ``np.zeros``: whether calloc
    memsets a block depends on the allocator's adaptive mmap threshold,
    which flips with the churn of exactly these block sizes.
    """
    import mmap  # first registration, not interpreter start-up, pays the import

    return np.frombuffer(mmap.mmap(-1, nbytes, access=mmap.ACCESS_COPY), dtype=np.uint8)


class ArenaCache:
    """Free lists of zero-on-reuse blocks over bump-carved slabs."""

    def __init__(self) -> None:
        self._slab: Optional[np.ndarray] = None
        self._slab_used = 0
        #: size -> [(block, dirty prefix length)], most recently freed last
        self._free: Dict[int, List[Tuple[np.ndarray, int]]] = {}
        self.cached_bytes = 0

    def take(self, nbytes: int) -> np.ndarray:
        """An all-zero writable block of exactly ``nbytes``."""
        free = self._free.get(nbytes)
        if not free:
            return self._carve(nbytes)
        block, dirty = free.pop()
        self.cached_bytes -= nbytes
        if dirty:
            block[:dirty] = 0
        return block

    def give(self, block: np.ndarray, dirty_bytes: int) -> None:
        """Take back a block from :meth:`take` that nothing references
        any more and of which only ``block[:dirty_bytes]`` was written."""
        if self.cached_bytes + block.nbytes > _MAX_CACHED_BYTES:
            return
        self._free.setdefault(block.nbytes, []).append((block, dirty_bytes))
        self.cached_bytes += block.nbytes

    def _carve(self, nbytes: int) -> np.ndarray:
        """Fresh, never-touched backing (the one place it comes from)."""
        span = -(-nbytes // _PAGE) * _PAGE  # whole pages: blocks share none
        if span >= _SLAB_BYTES // 2:
            return _map_zeroed(span)[:nbytes]
        if self._slab is None or self._slab_used + span > _SLAB_BYTES:
            self._slab = _map_zeroed(_SLAB_BYTES)
            self._slab_used = 0
        start = self._slab_used
        self._slab_used = start + span
        return self._slab[start : start + nbytes]


class StagingCache:
    """Free lists of never-zeroed scratch blocks, by power-of-two class."""

    def __init__(self) -> None:
        #: class size -> free blocks, most recently returned last
        self._free: Dict[int, List[np.ndarray]] = {}
        self.cached_bytes = 0
        #: blocks made because no cached one fitted / blocks handed back
        self.allocated = 0
        self.returned = 0

    def take(self, nbytes: int) -> np.ndarray:
        """``nbytes`` writable bytes of unspecified content: the prefix
        of a block of the smallest class that holds them."""
        size = 1 << max(12, (nbytes - 1).bit_length())  # 4 KiB floor: few classes
        free = self._free.get(size)
        if free:
            self.cached_bytes -= size
            return free.pop()[:nbytes]
        self.allocated += 1
        return np.empty(size, dtype=np.uint8)[:nbytes]

    def give(self, data: np.ndarray) -> None:
        """Take back what :meth:`take` returned; the caller keeps no
        reference to it."""
        block = data.base
        self.returned += 1
        if self.cached_bytes + block.nbytes <= _MAX_STAGING_BYTES:
            self._free.setdefault(block.nbytes, []).append(block)
            self.cached_bytes += block.nbytes


#: the process's arena cache (see the module docstring for why it is shared)
ARENAS = ArenaCache()
#: the process's RDMA staging blocks (likewise)
STAGING = StagingCache()
