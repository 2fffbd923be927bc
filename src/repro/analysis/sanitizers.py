"""Runtime sanitizers: TSan/ASan analogues for the DES.

Opt in per job with ``run_job(..., sanitize=SanitizerConfig())``.  Three
checkers, all **passive** — they observe transitions, registrations and
processed events but never schedule work, draw randomness, or touch the
clock, so a sanitized run is event-for-event identical to an
unsanitized one (enforced by the determinism test suite).

* :class:`ViStateChecker` — validates every VI endpoint transition
  against the legal VIA connect/disconnect state table (VIA spec §2.4)
  and raises a typed :class:`ProtocolViolation` on an illegal edge.
* :class:`LeakSanitizer` — mirrors every ``VipRegisterMem`` /
  ``VipDeregisterMem`` pair and the pre-post/consume lifecycle; at job
  teardown it reports pinned regions that were never released, VIs that
  were never destroyed, and pre-posted receive buffers that were never
  consumed.  Leaks raise a typed :class:`PinnedMemoryLeak`.
* :class:`EventRaceDetector` — the DES analogue of a data-race
  detector: groups same-timestamp events (heap ties, whose relative
  order is decided by insertion sequence) and reports tie groups,
  flagging mixed-name groups where distinct activities collided on one
  instant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.sim.engine import Engine, TraceHook
from repro.via.constants import ViState, ViaProtocolError

if TYPE_CHECKING:  # pragma: no cover
    from repro.memory.registry import MemoryRegistry
    from repro.memory.region import MemoryRegion
    from repro.via.provider import ViaProvider
    from repro.via.vi import VI


class SanitizerError(RuntimeError):
    """Base class for sanitizer findings raised as errors."""


class ProtocolViolation(SanitizerError, ViaProtocolError):
    """An illegal VI state transition (also catchable as ViaProtocolError)."""

    def __init__(self, message: str, record: "TransitionRecord") -> None:
        super().__init__(message)
        self.record = record


class PinnedMemoryLeak(SanitizerError):
    """Pinned regions or VI endpoints survived job teardown."""

    def __init__(self, message: str, report: "LeakReport") -> None:
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class SanitizerConfig:
    """Which sanitizers run and how findings surface.

    All three checkers default on; ``fail_on_*`` turns a finding into a
    typed exception (the default for genuine bugs) versus a report-only
    entry.  Race ties are report-only by default because same-timestamp
    events are common and often benign (symmetric barrier arrivals).
    """

    state_machine: bool = True
    leaks: bool = True
    races: bool = True
    fail_on_violation: bool = True
    fail_on_leak: bool = True
    max_race_examples: int = 20


# --------------------------------------------------------------------------- #
# VIA state machine
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class TransitionRecord:
    """One observed VI state transition."""

    vi_id: int
    node_id: int
    owner_rank: int
    old: ViState
    new: ViState
    legal: bool


#: the legal VIA endpoint lifecycle edges (VIA spec §2.4 plus the
#: provider's teardown paths): connects only move forward, teardown is
#: reachable from everywhere, and nothing leaves DISCONNECTED.
LEGAL_TRANSITIONS = frozenset({
    (ViState.IDLE, ViState.CONNECT_PENDING),       # VipConnect*Request
    (ViState.IDLE, ViState.CONNECTED),             # accept-side fast path
    (ViState.IDLE, ViState.DISCONNECTED),          # destroyed unused
    (ViState.CONNECT_PENDING, ViState.CONNECTED),  # handshake done
    (ViState.CONNECT_PENDING, ViState.DISCONNECTED),  # connect abandoned
    (ViState.CONNECT_PENDING, ViState.ERROR),      # transport failure
    (ViState.CONNECTED, ViState.DISCONNECTED),     # VipDisconnect/destroy
    (ViState.CONNECTED, ViState.ERROR),            # transport failure
    (ViState.ERROR, ViState.DISCONNECTED),         # teardown after failure
})


class ViStateChecker:
    """Validates VI transitions against :data:`LEGAL_TRANSITIONS`.

    Installed as ``vi.monitor``; the VI state setter calls
    :meth:`on_transition` on every distinct state change.
    """

    def __init__(self, fail_on_violation: bool = True) -> None:
        self.fail_on_violation = fail_on_violation
        self.transitions_checked = 0
        self.violations: List[TransitionRecord] = []

    def on_transition(self, vi: "VI", old: ViState, new: ViState) -> None:
        self.transitions_checked += 1
        legal = (old, new) in LEGAL_TRANSITIONS
        if legal:
            return
        record = TransitionRecord(
            vi.vi_id, vi.node_id, vi.owner_rank, old, new, legal=False
        )
        self.violations.append(record)
        if self.fail_on_violation:
            raise ProtocolViolation(
                f"illegal VI transition {old.value} -> {new.value} on "
                f"VI {vi.vi_id} (node {vi.node_id}, rank {vi.owner_rank})",
                record,
            )


# --------------------------------------------------------------------------- #
# Pinned memory / descriptor lifecycle
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class LeakedRegion:
    """One pinned region still registered at teardown."""

    registry_label: str
    owner_label: str
    nbytes: int
    handle: int


@dataclass
class LeakReport:
    """Lifecycle accounting collected over one job."""

    regions_registered: int = 0
    regions_deregistered: int = 0
    leaked_regions: List[LeakedRegion] = field(default_factory=list)
    leaked_bytes: int = 0
    #: VIs never destroyed by teardown (each holds pinned arenas)
    leaked_vis: int = 0
    #: pre-posted receive descriptors still posted when their VI died;
    #: nonzero is normal (the eager arena is kept full by design) and
    #: reported for visibility, not failed on
    unconsumed_preposted: int = 0
    #: send descriptors posted but never serviced by the NIC at teardown
    unserviced_sends: int = 0

    @property
    def has_leaks(self) -> bool:
        return bool(self.leaked_regions) or self.leaked_vis > 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "regions_registered": self.regions_registered,
            "regions_deregistered": self.regions_deregistered,
            "leaked_regions": [
                {
                    "registry": r.registry_label,
                    "owner": r.owner_label,
                    "nbytes": r.nbytes,
                    "handle": r.handle,
                }
                for r in self.leaked_regions
            ],
            "leaked_bytes": self.leaked_bytes,
            "leaked_vis": self.leaked_vis,
            "unconsumed_preposted": self.unconsumed_preposted,
            "unserviced_sends": self.unserviced_sends,
        }


class LeakSanitizer:
    """Observes register/deregister and VI teardown lifecycles.

    Installed as ``registry.observer`` on every per-rank
    :class:`~repro.memory.registry.MemoryRegistry`; the provider calls
    :meth:`on_vi_destroyed` from ``VipDestroyVi``.
    """

    def __init__(self) -> None:
        self.report = LeakReport()
        self._live: Dict[Tuple[str, int], LeakedRegion] = {}

    # registry observer interface ------------------------------------------
    def on_register(self, registry: "MemoryRegistry",
                    region: "MemoryRegion") -> None:
        self.report.regions_registered += 1
        key = (registry.label, region.handle)
        self._live[key] = LeakedRegion(
            registry_label=registry.label,
            owner_label=getattr(region, "owner_label", ""),
            nbytes=region.nbytes,
            handle=region.handle,
        )

    def on_deregister(self, registry: "MemoryRegistry",
                      region: "MemoryRegion") -> None:
        self.report.regions_deregistered += 1
        self._live.pop((registry.label, region.handle), None)

    # provider hook ---------------------------------------------------------
    def on_vi_destroyed(self, vi: "VI") -> None:
        self.report.unconsumed_preposted += vi.posted_recv_count
        self.report.unserviced_sends += vi.pending_send_count

    # teardown --------------------------------------------------------------
    def finish(self, providers: Iterable["ViaProvider"]) -> LeakReport:
        for provider in providers:
            self.report.leaked_vis += provider.live_vi_count
        for key in sorted(self._live):
            leaked = self._live[key]
            self.report.leaked_regions.append(leaked)
            self.report.leaked_bytes += leaked.nbytes
        return self.report


# --------------------------------------------------------------------------- #
# Event races
# --------------------------------------------------------------------------- #

@dataclass
class RaceReport:
    """Same-timestamp tie statistics for one run."""

    events_seen: int = 0
    #: timestamps at which >= 2 events were processed (heap ties whose
    #: relative order is insertion-dependent — the DES race condition)
    tie_groups: int = 0
    tied_events: int = 0
    #: tie groups containing >= 2 distinct event names: different
    #: activities collided on one instant
    conflict_groups: int = 0
    largest_group: int = 0
    examples: List[Tuple[float, Tuple[str, ...]]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "events_seen": self.events_seen,
            "tie_groups": self.tie_groups,
            "tied_events": self.tied_events,
            "conflict_groups": self.conflict_groups,
            "largest_group": self.largest_group,
            "examples": [
                {"time_us": t, "events": list(names)}
                for t, names in self.examples
            ],
        }


class EventRaceDetector(TraceHook):
    """Engine trace hook grouping consecutive same-timestamp events.

    Chains to ``inner`` (any pre-existing trace hook) *first*, so a
    :class:`~repro.sim.trace.TraceRecorder` under sanitization sees the
    byte-identical event stream it would see without it.
    """

    def __init__(self, inner: Optional[TraceHook] = None,
                 max_examples: int = 20) -> None:
        self.inner = inner
        self.max_examples = max_examples
        self.report = RaceReport()
        self._group_time: Optional[float] = None
        self._group: List[str] = []

    def on_event(self, now: float, name: str, ok: bool) -> None:
        if self.inner is not None:
            self.inner.on_event(now, name, ok)
        self.report.events_seen += 1
        name = name or "<unnamed>"
        # exact float equality is the point here: heap ties share the
        # identical timestamp bit pattern  # repro: allow[REPRO004]
        if self._group_time is not None and now == self._group_time:
            self._group.append(name)
        else:
            self._flush()
            self._group_time = now
            self._group = [name]

    def _flush(self) -> None:
        group, when = self._group, self._group_time
        if len(group) > 1 and when is not None:
            rep = self.report
            rep.tie_groups += 1
            rep.tied_events += len(group)
            rep.largest_group = max(rep.largest_group, len(group))
            if len(set(group)) > 1:
                rep.conflict_groups += 1
                if len(rep.examples) < self.max_examples:
                    rep.examples.append((when, tuple(group)))

    def finish(self) -> RaceReport:
        self._flush()
        self._group = []
        self._group_time = None
        return self.report


# --------------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------------- #

@dataclass
class SanitizerReport:
    """Combined findings of one sanitized job."""

    transitions_checked: int = 0
    violations: List[TransitionRecord] = field(default_factory=list)
    leaks: Optional[LeakReport] = None
    races: Optional[RaceReport] = None

    @property
    def clean(self) -> bool:
        return not self.violations and (self.leaks is None
                                        or not self.leaks.has_leaks)

    def summary(self) -> str:
        parts = [f"{self.transitions_checked} VI transitions checked",
                 f"{len(self.violations)} violations"]
        if self.leaks is not None:
            parts.append(
                f"{len(self.leaks.leaked_regions)} leaked regions "
                f"({self.leaks.leaked_bytes}B), {self.leaks.leaked_vis} leaked VIs"
            )
        if self.races is not None:
            parts.append(
                f"{self.races.tie_groups} same-time tie groups "
                f"({self.races.conflict_groups} mixed)"
            )
        return " | ".join(parts)

    def as_dict(self) -> Dict[str, object]:
        return {
            "clean": self.clean,
            "transitions_checked": self.transitions_checked,
            "violations": [
                {
                    "vi": v.vi_id, "node": v.node_id, "rank": v.owner_rank,
                    "old": v.old.value, "new": v.new.value,
                }
                for v in self.violations
            ],
            "leaks": None if self.leaks is None else self.leaks.as_dict(),
            "races": None if self.races is None else self.races.as_dict(),
        }


class Sanitizer:
    """One job's sanitizer plane: owns the three checkers and the wiring.

    Construction installs the race detector in front of any existing
    engine trace hook; :meth:`finish` restores the hook, folds the
    checkers into a :class:`SanitizerReport`, and raises
    :class:`PinnedMemoryLeak` when configured to fail on leaks.
    """

    def __init__(self, engine: Engine,
                 config: Optional[SanitizerConfig] = None) -> None:
        self.engine = engine
        self.config = config or SanitizerConfig()
        self.vi_checker: Optional[ViStateChecker] = (
            ViStateChecker(self.config.fail_on_violation)
            if self.config.state_machine else None
        )
        self.leak_checker: Optional[LeakSanitizer] = (
            LeakSanitizer() if self.config.leaks else None
        )
        self.race_detector: Optional[EventRaceDetector] = None
        if self.config.races:
            self.race_detector = EventRaceDetector(
                inner=engine.trace, max_examples=self.config.max_race_examples
            )
            engine.trace = self.race_detector
        self._finished = False

    # wiring hooks (called by run_job / ViaProvider) -----------------------
    def watch_registry(self, registry: "MemoryRegistry") -> None:
        if self.leak_checker is not None:
            registry.observer = self.leak_checker

    @property
    def vi_monitor(self) -> Optional[ViStateChecker]:
        return self.vi_checker

    def on_vi_destroyed(self, vi: "VI") -> None:
        if self.leak_checker is not None:
            self.leak_checker.on_vi_destroyed(vi)

    # teardown --------------------------------------------------------------
    def finish(self, providers: Iterable["ViaProvider"] = ()) -> SanitizerReport:
        """Fold findings into a report (idempotent); may raise
        :class:`PinnedMemoryLeak`."""
        report = SanitizerReport()
        if self.race_detector is not None:
            report.races = self.race_detector.finish()
            if not self._finished:
                self.engine.trace = self.race_detector.inner
        if self.vi_checker is not None:
            report.transitions_checked = self.vi_checker.transitions_checked
            report.violations = list(self.vi_checker.violations)
        if self.leak_checker is not None:
            if not self._finished:
                report.leaks = self.leak_checker.finish(providers)
            else:
                report.leaks = self.leak_checker.report
        self._finished = True
        if (
            self.config.fail_on_leak
            and report.leaks is not None
            and report.leaks.has_leaks
        ):
            raise PinnedMemoryLeak(
                f"pinned-memory leak at job teardown: "
                f"{len(report.leaks.leaked_regions)} regions "
                f"({report.leaks.leaked_bytes}B) still registered, "
                f"{report.leaks.leaked_vis} VIs never destroyed",
                report.leaks,
            )
        return report
