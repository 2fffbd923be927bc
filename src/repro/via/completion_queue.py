"""Completion queues.

A CQ collects completed descriptors from any number of VIs.  The host
drains it with :meth:`CompletionQueue.poll` (``VipCQDone`` — non
blocking) — the *polling* completion style — or parks on the owning
provider's activity signal and pays the wakeup penalty, which is how the
*spinwait* style is modelled at the MPI progress layer (paper §5.3).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.via.descriptor import Descriptor


class CompletionQueue:
    """FIFO of completed descriptors."""

    __slots__ = ("name", "_entries", "completions", "high_water")

    def __init__(self, name: str = "cq"):
        self.name = name
        self._entries: Deque[Descriptor] = deque()
        #: lifetime number of completions pushed
        self.completions = 0
        self.high_water = 0

    def push(self, descriptor: Descriptor) -> None:
        """NIC-side: append a completed descriptor (the NIC's per-packet
        paths do the same inline)."""
        self._entries.append(descriptor)
        self.completions += 1
        if len(self._entries) > self.high_water:
            self.high_water = len(self._entries)

    def poll(self) -> Optional[Descriptor]:
        """Host-side: pop the oldest completion, or ``None`` if empty."""
        return self._entries.popleft() if self._entries else None

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompletionQueue {self.name!r} depth={len(self._entries)}>"
