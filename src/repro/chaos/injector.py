"""The fault injector: turns a :class:`FaultPlan` into per-packet verdicts.

The injector sits at the single choke point every wire packet crosses —
:meth:`repro.fabric.network.Network.send` — and judges each packet with
draws from one dedicated RNG stream.  The network applies the verdict
(drop the packet, deliver it twice, add delay); the injector only
decides and counts.

Every fault emits a zero-length marker event named
``chaos.<fault>.<packet kind>`` so the :class:`~repro.sim.trace.TraceRecorder`
hook sees the full fault sequence, making fault timing part of the
deterministic event trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.chaos.plan import FaultPlan
from repro.fabric.packet import Packet
from repro.sim.engine import Engine, mark


@dataclass
class Verdict:
    """What the network must do with one judged packet."""

    drop: bool = False
    duplicate: bool = False
    #: extra one-way latency (reorder window draw + spike), µs
    extra_delay_us: float = 0.0
    #: additional delay of the duplicate copy relative to the original
    dup_extra_us: float = 0.0


@dataclass
class ChaosStats:
    """Per-fault-class counters, aggregated into the job's ChaosReport."""

    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    spiked: int = 0
    link_down_drops: int = 0
    #: total faults per packet kind (eager/rdma/conn/rtx-ack/...)
    per_kind: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return (self.dropped + self.duplicated + self.reordered
                + self.spiked + self.link_down_drops)

    def count(self, kind: str) -> None:
        self.per_kind[kind] = self.per_kind.get(kind, 0) + 1


class FaultInjector:
    """Judges every fabric packet against one seeded :class:`FaultPlan`."""

    def __init__(self, engine: Engine, plan: FaultPlan,
                 rng: np.random.Generator):
        self.engine = engine
        self.plan = plan
        self.rng = rng
        self.stats = ChaosStats()

    def _mark(self, fault: str, kind: str) -> None:
        """Put the fault on the trace hook as a zero-length entry."""
        self.engine.call_later(0.0, mark, None, f"chaos.{fault}.{kind}")

    def judge(self, packet: Packet) -> Optional[Verdict]:
        """Return the verdict for ``packet``, or None for "untouched".

        Loopback traffic never crosses the switch and is exempt; so are
        connection control packets when the plan protects them.  The
        draw order (loss, duplicate, reorder, spike) is fixed so the
        consumed randomness is a pure function of (plan, packet stream).
        """
        plan = self.plan
        if packet.src == packet.dst:
            return None
        kind = packet.kind
        if plan.protect_control and kind == "conn":
            return None
        now = self.engine.now
        for outage in plan.link_down:
            if outage.covers(now) and outage.node in (packet.src, packet.dst):
                self.stats.link_down_drops += 1
                self.stats.count(kind)
                self._mark("linkdown", kind)
                return Verdict(drop=True)
        rng = self.rng
        if plan.loss and rng.random() < plan.loss:
            self.stats.dropped += 1
            self.stats.count(kind)
            self._mark("drop", kind)
            return Verdict(drop=True)
        verdict = None
        if plan.duplicate and rng.random() < plan.duplicate:
            verdict = verdict or Verdict()
            verdict.duplicate = True
            verdict.dup_extra_us = float(
                rng.uniform(0.0, plan.reorder_window_us))
            self.stats.duplicated += 1
            self.stats.count(kind)
            self._mark("dup", kind)
        if plan.reorder and rng.random() < plan.reorder:
            verdict = verdict or Verdict()
            verdict.extra_delay_us += float(
                rng.uniform(0.0, plan.reorder_window_us))
            self.stats.reordered += 1
            self.stats.count(kind)
            self._mark("reorder", kind)
        if plan.spike and rng.random() < plan.spike:
            verdict = verdict or Verdict()
            verdict.extra_delay_us += plan.spike_us
            self.stats.spiked += 1
            self.stats.count(kind)
            self._mark("spike", kind)
        return verdict
