"""Fault-injection observability: what chaos did and what it cost.

One :class:`ChaosReport` per faulted job, aggregating the injector's
per-fault-class counters, the NIC reliability sublayer's recovery work
and the connection managers' retry/failure counts.  This is the
"retries are visible in the metrics report" surface of the chaos
acceptance criteria.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos.injector import FaultInjector
    from repro.chaos.plan import FaultPlan
    from repro.mpi.adi import AbstractDevice
    from repro.via.nic import Nic


@dataclass
class ChaosReport:
    """Fault and recovery counters of one job."""

    plan: "FaultPlan"
    # injected faults (fabric side)
    fabric_dropped: int = 0
    fabric_duplicated: int = 0
    fabric_reordered: int = 0
    fabric_spiked: int = 0
    link_down_drops: int = 0
    faults_per_kind: Dict[str, int] = field(default_factory=dict)
    # transport recovery (NIC reliability sublayer)
    retransmissions: int = 0
    rtx_acks_sent: int = 0
    rtx_dup_dropped: int = 0
    rtx_ooo_buffered: int = 0
    rtx_no_descriptor: int = 0
    rtx_stale: int = 0
    rtx_exhausted: int = 0
    # connection recovery (MPI connection managers)
    connect_retries: int = 0
    connect_failures: int = 0
    #: connection mechanism of the job (keys conn.<mechanism>.* in
    #: to_metrics; not part of as_dict so legacy comparisons hold)
    mechanism: str = ""

    @property
    def total_faults(self) -> int:
        return (self.fabric_dropped + self.fabric_duplicated
                + self.fabric_reordered + self.fabric_spiked
                + self.link_down_drops)

    def as_dict(self) -> Dict[str, int]:
        """Flat counter dict (stable keys) for determinism comparisons."""
        return {
            "fabric_dropped": self.fabric_dropped,
            "fabric_duplicated": self.fabric_duplicated,
            "fabric_reordered": self.fabric_reordered,
            "fabric_spiked": self.fabric_spiked,
            "link_down_drops": self.link_down_drops,
            "retransmissions": self.retransmissions,
            "rtx_acks_sent": self.rtx_acks_sent,
            "rtx_dup_dropped": self.rtx_dup_dropped,
            "rtx_ooo_buffered": self.rtx_ooo_buffered,
            "rtx_no_descriptor": self.rtx_no_descriptor,
            "rtx_stale": self.rtx_stale,
            "rtx_exhausted": self.rtx_exhausted,
            "connect_retries": self.connect_retries,
            "connect_failures": self.connect_failures,
        }

    def to_metrics(self, registry) -> None:
        """Mirror the fault/recovery counters into a telemetry metrics
        registry (``chaos.*`` namespace); this dataclass stays the
        in-Python view."""
        for key, value in self.as_dict().items():
            registry.counter(f"chaos.{key}").inc(value)
        if self.mechanism:
            # retry/failure counters attributed to the connection
            # strategy that paid them, alongside the live
            # conn.<mechanism>.setup_us histograms
            pre = f"conn.{self.mechanism}"
            registry.counter(f"{pre}.connect_retries").inc(
                self.connect_retries)
            registry.counter(f"{pre}.connect_failures").inc(
                self.connect_failures)

    def summary(self) -> str:
        return (
            f"chaos: {self.total_faults} faults injected "
            f"(drop={self.fabric_dropped} dup={self.fabric_duplicated} "
            f"reorder={self.fabric_reordered} spike={self.fabric_spiked} "
            f"linkdown={self.link_down_drops}); recovered with "
            f"{self.retransmissions} retransmissions and "
            f"{self.connect_retries} connect retries "
            f"({self.connect_failures} connects failed, "
            f"{self.rtx_exhausted} transports died)"
        )


def collect_chaos(
    injector: "FaultInjector",
    nics: List["Nic"],
    devices: Dict[int, "AbstractDevice"],
) -> ChaosReport:
    """Snapshot all fault/recovery counters after a job ran."""
    stats = injector.stats
    report = ChaosReport(
        plan=injector.plan,
        fabric_dropped=stats.dropped,
        fabric_duplicated=stats.duplicated,
        fabric_reordered=stats.reordered,
        fabric_spiked=stats.spiked,
        link_down_drops=stats.link_down_drops,
        faults_per_kind=dict(stats.per_kind),
    )
    for nic in nics:
        report.retransmissions += nic.retransmissions
        report.rtx_acks_sent += nic.rtx_acks_sent
        report.rtx_dup_dropped += nic.rtx_dup_dropped
        report.rtx_ooo_buffered += nic.rtx_ooo_buffered
        report.rtx_no_descriptor += nic.rtx_no_descriptor
        report.rtx_stale += nic.rtx_stale
        report.rtx_exhausted += nic.rtx_exhausted
    for adi in devices.values():
        report.connect_retries += adi.conn.connect_retries
        report.connect_failures += adi.conn.connect_failures
    if devices:
        report.mechanism = devices[min(devices)].conn.name
    return report
