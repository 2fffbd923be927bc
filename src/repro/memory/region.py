"""Registered memory regions.

A :class:`MemoryRegion` models one contiguous registration: a byte range
pinned in physical memory with a protection tag, as created by
``VipRegisterMem`` in the VIA specification.  The actual payload is a
numpy ``uint8`` array so data moved through the simulated NIC is real
bytes — tests verify end-to-end integrity, not just event bookkeeping.
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional

import numpy as np


class RegionState(enum.Enum):
    """Lifecycle of a registration."""

    REGISTERED = "registered"
    DEREGISTERED = "deregistered"


# the members as module names, which function bodies read (see
# ``repro.via.constants``)
REGION_REGISTERED = RegionState.REGISTERED
REGION_DEREGISTERED = RegionState.DEREGISTERED


_handle_counter = itertools.count(1)
_UINT8 = np.dtype(np.uint8)


def as_bytes(data: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Flat uint8 view of ``data``'s bytes (a copy only if ``data`` is
    not contiguous); an already flat contiguous uint8 array is returned
    as it is — the per-message case, which then costs no numpy call."""
    if data is None:
        return None
    if (type(data) is np.ndarray and data.dtype is _UINT8
            and data.ndim == 1 and data.flags.c_contiguous):
        return data
    return np.ascontiguousarray(data).view(np.uint8).reshape(-1)


class MemoryRegion:
    """One pinned, NIC-visible byte range.

    Parameters
    ----------
    nbytes:
        Size of the region.
    protection_tag:
        VIA protection tag; the NIC refuses RDMA into a region whose tag
        does not match the VI's tag.
    backing:
        Optional existing ``uint8`` array to expose (zero-copy view of a
        user buffer).  If omitted a fresh zeroed array is allocated.
    """

    __slots__ = (
        "handle", "nbytes", "protection_tag", "data", "state", "owner_label",
        "from_arena",
    )

    def __init__(
        self,
        nbytes: int,
        protection_tag: int = 0,
        backing: Optional[np.ndarray] = None,
        owner_label: str = "",
    ):
        if nbytes < 0:
            raise ValueError(f"negative region size {nbytes}")
        if backing is not None:
            if backing.dtype != _UINT8 or backing.ndim != 1:
                raise TypeError("backing array must be a 1-D uint8 array")
            if backing.nbytes != nbytes:
                raise ValueError(
                    f"backing array is {backing.nbytes} bytes, region is {nbytes}"
                )
            self.data = backing
        else:
            self.data = np.zeros(nbytes, dtype=np.uint8)
        self.handle = next(_handle_counter)
        self.nbytes = nbytes
        self.protection_tag = protection_tag
        self.state = REGION_REGISTERED
        self.owner_label = owner_label
        #: set by the registry when ``backing`` is one of its own arena
        #: blocks (recyclable at deregistration) rather than a user buffer
        self.from_arena = False

    # -- access ------------------------------------------------------------
    def check_access(self, offset: int, length: int, protection_tag: int) -> None:
        """Validate a NIC access; raises on violation.

        This is the simulated equivalent of the NIC's address-translation
        and protection check.
        """
        if self.state is not REGION_REGISTERED:
            raise PermissionError(
                f"access to deregistered region #{self.handle}"
            )
        if protection_tag != self.protection_tag:
            raise PermissionError(
                f"protection tag mismatch on region #{self.handle}: "
                f"{protection_tag} != {self.protection_tag}"
            )
        if offset < 0 or length < 0 or offset + length > self.nbytes:
            raise IndexError(
                f"access [{offset}, {offset + length}) outside region "
                f"#{self.handle} of {self.nbytes} bytes"
            )

    def write(self, offset: int, payload: np.ndarray, protection_tag: int) -> None:
        """NIC-side deposit of ``payload`` bytes at ``offset``."""
        payload = np.asarray(payload, dtype=np.uint8).ravel()
        self.check_access(offset, payload.nbytes, protection_tag)
        self.data[offset : offset + payload.nbytes] = payload

    def read(self, offset: int, length: int, protection_tag: int) -> np.ndarray:
        """NIC-side fetch of ``length`` bytes at ``offset`` (a copy)."""
        self.check_access(offset, length, protection_tag)
        return self.data[offset : offset + length].copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MemoryRegion #{self.handle} {self.nbytes}B tag={self.protection_tag} "
            f"{self.state.value}{' ' + self.owner_label if self.owner_label else ''}>"
        )
