"""MPI_Status."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class Status:
    """Receive metadata: who sent, which tag, how many bytes."""

    source: int = -1
    tag: int = -1
    nbytes: int = 0
    cancelled: bool = False

    def count(self, itemsize: int) -> int:
        """Element count for a datatype of ``itemsize`` bytes."""
        if itemsize <= 0:
            raise ValueError("itemsize must be positive")
        if self.nbytes % itemsize:
            raise ValueError(
                f"received {self.nbytes} bytes is not a multiple of {itemsize}"
            )
        return self.nbytes // itemsize
