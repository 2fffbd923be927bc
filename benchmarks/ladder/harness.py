"""The measuring machinery shared by all eight workloads.

A workload is a list of *ops*.  An op is one closed-loop call into the
program under test (one engine run, one rig stream, one ``run_job``, one
cell, one batch of service requests) that returns an :class:`Outcome`:
the exact simulated statistics it produced, the checks it made, and
whatever host-side sub-timings only it can take.  :func:`run_ops`
cycles through the ops until the time budget is used, so every op is
sampled in every stretch of the run.

Ops are small on purpose — 5 to 20 ms each — and an op's host time is
the *fastest* of its samples (:func:`best_wall`).  The host is a
two-core VM on a shared machine whose speed changes by a factor of up
to 1.8 from one tenth of a second to the next (README, "Spread"): a
time read there is the program's cost times a disturbance factor of at
least 1, and only a call short enough to fit between two disturbances
reads the cost itself.  Ops of 20 ms reached the same floor (±1.5 %)
in every 10 s window of a stretch in which the medians of those windows
ranged over 60 %; ops of 250 ms and longer never reached it there.

Short calls do not help while a neighbour keeps the other hardware
thread of the core busy for 10 to 20 s on end: everything then runs 1.4
to 1.9 times slower, how much depending on the code, and a whole run
can fall inside such a stretch.  So a fixed reference computation
(:func:`probe`, a toy event loop of 0.7 ms) runs after every op and
tells how fast the core was around each sample (the fastest probe
within half a second of it).  Three things follow (:func:`run_ops`,
:func:`calibrate`, :func:`calibrated_best`): a run that has not once
seen the probe near its nominal time keeps cycling for up to half its
length again, until it has; an op's time is taken from the samples of the run's fastest
stretches only; and every sample is divided by how much slower than
nominal the probe was around it, which leaves samples of a normal
stretch as read (±1 %) and brings a run that stayed disturbed to the
end within −20 to +8 % instead of +40 to +90 %.  Host times are
therefore in *calibrated seconds*: seconds on a host that runs the
probe in ``PROBE_NOMINAL_S`` — this host when nothing disturbs it.

Every number derived from the samples is defined per *cycle*:
``wall_s`` is the sum over ops of each op's fastest calibrated time,
and ``events_per_s`` is the cycle's simulated events over that sum —
the same definition however many samples a run managed to take.

Host time comes from ``time.perf_counter``; simulated statistics come
from the program's return values and are exact, so they are hashed
(:func:`digest`) and compared, never bounded.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


def clock() -> float:
    """Host seconds.  The one wall-clock read of the ladder: it measures
    the simulator from outside and never feeds a simulation.  On Linux
    this is CLOCK_MONOTONIC, which all processes share, so a parent's
    reading can be compared with its child's (``setup_s``)."""
    return time.perf_counter()  # repro: allow[REPRO001]


# ---------------------------------------------------------------- probe --

#: host seconds one :func:`probe` takes on the README's host when
#: nothing disturbs it; calibrated seconds are seconds on such a host
PROBE_NOMINAL_S = 0.00067
#: a sample is calibrated by the fastest probe this close to it, s
PROBE_WINDOW_S = 0.5
#: a probe this close to nominal means the host is undisturbed, and a
#: stretch this close to the run's fastest counts as one of its fastest
UNDISTURBED = 1.10
STEADY = 1.05
#: a run that has seen no undisturbed probe goes on for at most this
#: share of its length, and for this long after the first one, s
EXTENSION_SHARE = 0.5
EXTENSION_TAIL_S = 1.0
_PROBE_DELAYS = [0.5 + ((i * 7919) % 97) / 10.0 for i in range(16)]


def _ticker(ticks: int) -> Iterator[float]:
    for i in range(ticks):
        yield _PROBE_DELAYS[i & 15]


def probe() -> float:
    """Host seconds of a fixed computation that uses nothing of the
    program under test but is made of what the simulator is made of: a
    heap of tuples, generators resumed one event at a time, a dict.  A
    disturbance of the core slows it as it slows the ops around it."""
    start = clock()
    heap: List[Tuple[float, int, int]] = []
    finished: Dict[int, float] = {}
    tickers = [_ticker(48) for _ in range(32)]
    seq = 0
    for k, ticker in enumerate(tickers):
        heapq.heappush(heap, (next(ticker), seq, k))
        seq += 1
    while heap:
        now, _seq, k = heapq.heappop(heap)
        try:
            delay = next(tickers[k])
        except StopIteration:
            finished[k] = now
            continue
        heapq.heappush(heap, (now + delay, seq, k))
        seq += 1
    return clock() - start


# ---------------------------------------------------------------- spans --

class Spans:
    """Boundary spans: one per call the benchmark makes into a layer.

    Kept in memory as ``(name, start_s, end_s, parent_index)`` tuples in
    start order and written out only when the run ends.  They live in
    the benchmark's files, around the calls — nothing inside ``src/`` is
    instrumented.
    """

    def __init__(self) -> None:
        self.records: List[Tuple[str, float, float, int]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        self.records.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = clock()
        try:
            yield
        finally:
            end = clock()
            self._stack.pop()
            self.records[index] = (name, start, end, parent)

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span timed by the caller (worker threads, whose
        spans must not share the main thread's parent stack)."""
        self.records.append((name, start, end, -1))

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _p in self.records if n == name]

    def median(self, name: str, scale: float = 1.0) -> float:
        """Median duration of the spans called ``name`` (0 if none)."""
        durations = self.durations(name)
        return scale * statistics.median(durations) if durations else 0.0

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [
            {"name": n, "start_s": round(s, 6), "end_s": round(e, 6), "parent": p}
            for n, s, e, p in self.records
        ]


# -------------------------------------------------------------- outcomes --

@dataclass
class Outcome:
    """What one op produced."""

    #: simulated events processed (0 for ops that simulate nothing)
    events: int = 0
    #: exact simulated statistics; hashed into the run's digest
    sim: Dict[str, Any] = field(default_factory=dict)
    #: exact counts feeding per-layer metrics (``layer.name`` -> number)
    counts: Dict[str, float] = field(default_factory=dict)
    #: host sub-timings only the op can take (``name`` -> seconds or a
    #: list of per-request seconds); the wall of the whole op is taken
    #: by :func:`run_ops`
    host: Dict[str, Any] = field(default_factory=dict)
    #: operations attempted inside the op (cells, requests, checks)
    attempted: int = 1
    #: names of the operations or checks that failed
    misses: List[str] = field(default_factory=list)


@dataclass
class Op:
    name: str
    fn: Callable[[], Outcome]
    #: False when each call sees fresh inputs by design (the service's
    #: cold keys), so samples of one run cannot share a digest
    repeatable: bool = True


@dataclass
class Sample:
    #: host seconds of the call, as read
    wall_s: float
    outcome: Outcome
    #: when the call ended and what the probe right after it read
    at_s: float = 0.0
    probe_s: float = PROBE_NOMINAL_S
    #: the fastest probe within ``PROBE_WINDOW_S`` of the call: how fast
    #: the host ran around it (:func:`calibrate`)
    nearby_s: float = PROBE_NOMINAL_S


def digest(obj: Any) -> str:
    """sha256 of the canonical JSON of ``obj`` (sorted keys, no spaces)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_op(op: Op, spans: Spans) -> Sample:
    """One timed call.  A raising op is a failed operation, not a
    failed benchmark: it is named and the other ops still run.

    The previous op's garbage is collected first, outside the timed
    region, so every sample starts from the same heap: a cell that
    leaves 600 MB of cyclic garbage behind would otherwise bill its
    collection to whichever op runs next."""
    gc.collect()
    with spans.span("op." + op.name):
        start = clock()
        try:
            outcome = op.fn()
        except Exception as exc:  # boundary: record, report, keep going
            outcome = Outcome(misses=[f"{op.name}: raised {type(exc).__name__}: {exc}"])
        wall = clock() - start
    return Sample(wall, outcome, at_s=clock(), probe_s=probe())


def run_ops(ops: Sequence[Op], seconds: float, spans: Spans,
            after_first_cycle: Optional[Callable[[], None]] = None) -> Dict[str, List[Sample]]:
    """Cycle through ``ops`` for about ``seconds``; every op runs at
    least once.  After the first cycle an op starts only if its fastest
    wall so far still fits in the budget, so a run never overshoots by
    more than the first cycle demands.  ``after_first_cycle`` is called
    once every op has run once — the point at which a fixed amount of
    work has been done, whatever the host's speed.

    The budget grows by up to ``EXTENSION_SHARE`` while no probe has
    read an undisturbed host, and ends ``EXTENSION_TAIL_S`` after the
    first one that does."""
    samples: Dict[str, List[Sample]] = {op.name: [] for op in ops}
    started = clock()
    undisturbed_at: Optional[float] = None
    index = 0
    while True:
        op = ops[index % len(ops)]
        if index >= len(ops):
            if index == len(ops) and after_first_cycle is not None:
                after_first_cycle()
            budget = seconds
            if undisturbed_at is None or undisturbed_at > seconds:
                budget *= 1.0 + EXTENSION_SHARE
                if undisturbed_at is not None:
                    budget = min(budget, undisturbed_at + EXTENSION_TAIL_S)
            if clock() - started + min(s.wall_s for s in samples[op.name]) > budget:
                break
        sample = run_op(op, spans)
        samples[op.name].append(sample)
        if undisturbed_at is None and sample.probe_s <= UNDISTURBED * PROBE_NOMINAL_S:
            undisturbed_at = sample.at_s - started
        index += 1
    calibrate(taken for taken in samples.values())
    return samples


def calibrate(groups: Iterable[Sequence[Sample]]) -> None:
    """Set ``nearby_s`` on every sample: the fastest probe within
    ``PROBE_WINDOW_S`` of it.  The fastest of fifty-odd probes is a
    steady reading of the core's speed in that second; a single probe
    is not."""
    ordered = sorted((s for group in groups for s in group), key=lambda s: s.at_s)
    low = high = 0
    for sample in ordered:
        while ordered[low].at_s < sample.at_s - PROBE_WINDOW_S:
            low += 1
        while high + 1 < len(ordered) and ordered[high + 1].at_s <= sample.at_s + PROBE_WINDOW_S:
            high += 1
        sample.nearby_s = min(s.probe_s for s in ordered[low:high + 1])


def calibrated_best(readings: Iterable[Tuple[float, float]]) -> float:
    """The fastest of some readings of one quantity, in calibrated
    seconds.  A reading is ``(host seconds, probe around it)``.  Only
    readings taken while the host ran within 5 % of the fastest it ran
    for any of them count, each divided by how much slower than nominal
    the probe says the host was."""
    readings = list(readings)
    fastest = min(probe_s for _wall, probe_s in readings)
    return min(wall_s * PROBE_NOMINAL_S / probe_s
               for wall_s, probe_s in readings if probe_s <= STEADY * fastest)


# ---------------------------------------------------------- reductions --

def best_wall(samples: Sequence[Sample]) -> float:
    """The op's host time in calibrated seconds (module docstring)."""
    return calibrated_best((s.wall_s, s.nearby_s) for s in samples)


def best_host(samples: Sequence[Sample], key: str) -> float:
    """The fastest reading of a sub-timing the op took itself."""
    return min(s.outcome.host[key] for s in samples)


def cycle_wall(samples: Dict[str, List[Sample]], names: Optional[Sequence[str]] = None) -> float:
    """Host seconds of one cycle: sum over ops of the fastest op wall."""
    names = list(samples) if names is None else names
    return sum(best_wall(samples[n]) for n in names)


def cycle_events(samples: Dict[str, List[Sample]], names: Optional[Sequence[str]] = None) -> int:
    names = list(samples) if names is None else names
    return sum(samples[n][0].outcome.events for n in names)


def cycle_count(samples: Dict[str, List[Sample]], key: str) -> float:
    """Sum of one exact count over the first sample of every op."""
    return sum(s[0].outcome.counts.get(key, 0) for s in samples.values())


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) — no interpolation, so the
    reported tail is always a latency that was actually observed."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil
    return ordered[int(rank) - 1]


def gate(samples: Dict[str, List[Sample]], ops: Sequence[Op]) -> Tuple[int, List[str], str]:
    """The correctness gate over one run's samples.

    Returns ``(attempted, misses, digest)``.  Every op's own checks
    count, plus one determinism check per repeatable op sampled more
    than once: all its samples must carry identical simulated
    statistics.  The run digest hashes the first cycle's statistics, so
    repetitions in other processes can be compared with it.
    """
    attempted = 0
    misses: List[str] = []
    first_cycle: Dict[str, Any] = {}
    for op in ops:
        taken = samples[op.name]
        for sample in taken:
            attempted += sample.outcome.attempted
            misses.extend(sample.outcome.misses)
        first_cycle[op.name] = {"events": taken[0].outcome.events, **taken[0].outcome.sim}
        if op.repeatable and len(taken) > 1:
            attempted += 1
            reference = digest(first_cycle[op.name])
            for sample in taken[1:]:
                if digest({"events": sample.outcome.events, **sample.outcome.sim}) != reference:
                    misses.append(f"{op.name}: simulated digest differs between samples")
                    break
    return attempted, misses, digest(first_cycle)


def check(outcome: Outcome, ok: bool, name: str) -> None:
    """Count one named check on ``outcome``."""
    outcome.attempted += 1
    if not ok:
        outcome.misses.append(name)


# ------------------------------------------------------------ workloads --

class Workload:
    """Base of the eight workloads.

    Construction is the workload's set-up (inputs generated from the
    seed, rigs and servers built); it is what ``setup_s`` times, so it
    must not run the program under test beyond what readiness needs.
    ``scale`` sizes the paper-scale ops only: ``"full"`` is the paper's
    size, ``"smoke"`` the self-tests'; the timed ops are the same at both.
    """

    name = ""
    #: ops whose events and wall make up ``events_per_s``; None = all
    rate_ops: Optional[Tuple[str, ...]] = None

    def __init__(self, seed: int, scale: str, spans: Spans):
        self.seed = seed
        self.scale = scale
        self.spans = spans

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One op excluded from timing (default: the first)."""
        self.ops()[0].fn()

    def paper_ops(self) -> List[Op]:
        """The same work at the paper's scale (CG on 16 ranks, a 64-rank
        mesh, a 240-job stream): seconds per call, so no sample fits
        between two disturbances of this host and none is timed for an
        end-to-end metric.  The traced pass runs each once for its exact
        counts, its paper-shape checks and the unbounded ``paper.*``
        metrics."""
        return []

    def paper_checks(self, samples: Dict[str, List[Sample]]) -> Tuple[int, List[str]]:
        """``cycle_checks`` over the paper-scale ops."""
        return 0, []

    def paper_metrics(self, samples: Dict[str, List[Sample]]) -> Dict[str, float]:
        """``paper.*`` metrics beyond wall, events and events per second."""
        return {}

    def cycle_checks(self, samples: Dict[str, List[Sample]]) -> Tuple[int, List[str]]:
        """Checks that span ops (paper shapes); ``(attempted, misses)``."""
        return 0, []

    def extras(self, samples: Dict[str, List[Sample]]) -> Dict[str, Tuple[float, str]]:
        """Host metrics only this workload has: ``name -> (value, unit)``."""
        return {}

    def layer_metrics(self, samples: Dict[str, List[Sample]]) -> Dict[str, float]:
        """Exact counts and derived per-op host costs for ``--trace 1``."""
        return {}

    def traced_extras(self) -> Dict[str, float]:
        """Extra measurements only the traced pass pays for."""
        return {}

    def peak_rss_extra_mb(self) -> float:
        """Peak RSS of processes the workload started (the service)."""
        return 0.0

    def close(self) -> None:
        """Stop what set-up started; remove what it created."""
