"""Event tracing.

A :class:`TraceRecorder` attached to an :class:`~repro.sim.engine.Engine`
records ``(time, name, ok)`` for every processed heap entry, event or
bare call alike.  Its primary job in this project is
the determinism test suite: two runs of the same workload with the same
seed must produce identical traces.  It is also handy when debugging
protocol interleavings.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.sim.engine import TraceHook


@dataclass(frozen=True)
class TraceRecord:
    """One processed heap entry."""

    time: float
    name: str
    ok: bool

    def __str__(self) -> str:
        flag = "" if self.ok else " FAILED"
        return f"{self.time:14.3f}  {self.name}{flag}"


class TraceRecorder(TraceHook):
    """Collects processed events, optionally bounded and filtered.

    Parameters
    ----------
    limit:
        Keep at most this many records (oldest dropped); ``None`` keeps all.
    name_filter:
        If given, only events whose name contains this substring are kept.
    """

    def __init__(self, limit: Optional[int] = None, name_filter: Optional[str] = None):
        self.records: Deque[TraceRecord] = deque(maxlen=limit)
        self.limit = limit
        self.name_filter = name_filter
        self.dropped = 0

    def on_event(self, now: float, name: str, ok: bool) -> None:
        if self.name_filter is not None and self.name_filter not in name:
            return
        if self.limit is not None and len(self.records) == self.limit:
            self.dropped += 1  # deque evicts the oldest on append
        self.records.append(TraceRecord(now, name, bool(ok)))

    def fingerprint(self) -> str:
        """SHA-256 hex digest of the trace, stable across processes and
        platforms (unlike ``hash()``, which is salted per process for
        strings) — for determinism assertions."""
        h = hashlib.sha256()
        for r in self.records:
            h.update(f"{r.time!r}|{r.name}|{int(r.ok)}\n".encode())
        return h.hexdigest()

    def dump(self) -> str:
        """Human-readable rendering of the trace."""
        lines = [str(r) for r in self.records]
        if self.dropped:
            lines.insert(0, f"... {self.dropped} earlier records dropped ...")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.records)
