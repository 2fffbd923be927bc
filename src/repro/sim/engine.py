"""Event queue and simulation clock.

The engine is a classic DES core: pending events live in one binary
heap of ``(time, seq, event)`` triples.  :class:`Event` is a one-shot
completion token; processes (see :mod:`repro.sim.process`) subscribe to
events by yielding them.

Times are floats in **microseconds**.  The engine never invents time:
every advance comes from an explicit :meth:`Engine.schedule` /
:meth:`Engine.timeout` delay, so all latency modelling lives in the
higher layers where it can be documented and calibrated.

Determinism contract: events dequeue in strictly increasing
``(time, seq)`` order, ``seq`` being the engine's monotonic sequence
number — the global total order the golden-trace fingerprints pin down.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional


class SimulationError(RuntimeError):
    """Raised for structural errors in the simulation (double-trigger,
    running a finished engine, deadlock detection, ...)."""


class NegativeDelayError(SimulationError, ValueError):
    """A negative delay reached the scheduler.

    Scheduling into the past would corrupt the heap invariant (events
    must pop in nondecreasing time order), so :meth:`Engine.timeout`,
    :meth:`Engine.schedule` and every trigger path reject it up front.
    Subclasses ``ValueError`` for backward compatibility with callers
    that caught the old untyped error.
    """

    def __init__(self, delay: float, where: str = "schedule"):
        super().__init__(
            f"negative delay {delay!r} in Engine.{where}(): events cannot "
            "be scheduled into the past"
        )
        self.delay = delay


class Interrupt(Exception):
    """Thrown into a process that is interrupted while waiting.

    The interrupting party supplies ``cause`` which the interrupted
    process can inspect.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, becomes *triggered* when scheduled on the
    engine's heap, and *processed* once its callbacks have run.  Each
    callback receives the event itself; the value passed to
    :meth:`succeed` (or the exception passed to :meth:`fail`) is
    available as :attr:`value`.

    Events are single-use: triggering twice raises
    :class:`SimulationError`.  ``_ok`` is ``None`` while it is pending.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_processed", "name")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._processed = False
        self.name = name

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled for processing."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The success value or failure exception."""
        if self._ok is None:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    # With Engine.timeout and Engine.schedule, the only places that push
    # onto the heap: each inline, at ``now + delay`` from the caller's
    # own operand, after the checks every public entry keeps.
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Mark the event successful and schedule callback processing
        ``delay`` microseconds from now."""
        if self._ok is not None:
            raise SimulationError(f"{self!r} already triggered")
        if delay < 0:
            raise NegativeDelayError(delay, "succeed")
        self._ok = True
        self._value = value
        engine = self.engine
        engine._seq += 1
        heapq.heappush(engine._heap, (engine.now + delay, engine._seq, self))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Mark the event failed; waiting processes receive ``exception``."""
        if self._ok is not None:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception instance")
        if delay < 0:
            raise NegativeDelayError(delay, "fail")
        self._ok = False
        self._value = exception
        engine = self.engine
        engine._seq += 1
        heapq.heappush(engine._heap, (engine.now + delay, engine._seq, self))
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn`` to run when the event is processed.

        If the event has already been processed the callback runs
        immediately (same simulated instant)."""
        if self._processed:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self._processed
            else "triggered" if self._ok is not None
            else "pending"
        )
        label = f" {self.name!r}" if self.name else ""
        return f"<Event{label} {state} at t={self.engine.now:.3f}>"


class Engine:
    """The simulation clock and event queue.

    Typical use::

        eng = Engine()
        eng.process(my_generator_fn(eng))
        eng.run()

    :meth:`run` executes until the queue drains or ``until`` is reached.
    """

    def __init__(self, *, trace: Optional["TraceHook"] = None):
        self.now: float = 0.0
        #: pending ``(when, seq, event)`` triples, a ``heapq`` heap
        self._heap: list = []
        self._seq = 0
        self._running = False
        self.trace = trace
        #: number of events processed so far (diagnostics / determinism checks)
        self.events_processed = 0

    # -- event construction ----------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Event:
        """An event that succeeds ``delay`` microseconds from now.

        Raises :class:`NegativeDelayError` on ``delay < 0``.
        """
        if delay < 0:
            raise NegativeDelayError(delay, "timeout")
        # Event() + succeed() inline, less the double-trigger check that
        # cannot fire here: one timeout per yield of every process
        ev = Event.__new__(Event)
        ev.engine = self
        ev.callbacks = []
        ev._value = value
        ev._ok = True
        ev._processed = False
        ev.name = name or "timeout"
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, ev))
        return ev

    def schedule(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` after ``delay`` microseconds; returns the event.

        Raises :class:`NegativeDelayError` on ``delay < 0``.
        """
        if delay < 0:
            raise NegativeDelayError(delay, "schedule")
        # built as timeout() builds its event: no Event.__init__ frame
        ev = Event.__new__(Event)
        ev.engine = self
        ev.callbacks = [lambda _ev: fn()]
        ev._value = None
        ev._ok = True
        ev._processed = False
        ev.name = getattr(fn, "__name__", "scheduled")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, ev))
        return ev

    def process(self, generator) -> "Process":
        """Spawn a generator as a simulation process (convenience)."""
        from repro.sim.process import Process

        return Process(self, generator)

    # -- execution ---------------------------------------------------------
    def peek(self) -> float:
        """Time of the next event, or ``inf`` if the queue is empty."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if not self._heap:
            raise SimulationError("step() on an empty event heap")
        t, _seq, ev = heapq.heappop(self._heap)
        if t < self.now:  # pragma: no cover - guarded by every trigger
            raise SimulationError("time went backwards")
        self.now = t
        ev._processed = True
        self.events_processed += 1
        if self.trace is not None:
            self.trace.on_event(self.now, ev)
        callbacks, ev.callbacks = ev.callbacks, []
        for fn in callbacks:
            fn(ev)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains (or the clock passes ``until``).

        Returns the final simulated time.

        This is the DES hot loop: it processes the same events in the
        same order as repeated :meth:`step` calls, but keeps the heap,
        ``heappop`` and the event counter in locals, and hoists the
        trace-hook and ``until`` checks out of the per-event path.
        Installing a trace hook *mid-run* (from a callback) is
        unsupported — hooks must be in place before :meth:`run`, which
        every recorder in this codebase already guarantees.
        ``events_processed`` is written back on every exit path, so it
        is exact whenever the engine is not actively running.
        """
        if self._running:
            raise SimulationError("engine is already running")
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        trace = self.trace
        processed = self.events_processed
        try:
            if until is None and trace is None:
                # fastest variant: no deadline, no recorder
                while heap:
                    t, _seq, ev = heappop(heap)
                    self.now = t
                    ev._processed = True
                    processed += 1
                    cbs = ev.callbacks
                    if cbs:
                        ev.callbacks = []
                        for fn in cbs:
                            fn(ev)
            else:
                while heap:
                    t = heap[0][0]
                    if until is not None and t > until:
                        self.now = until
                        break
                    t, _seq, ev = heappop(heap)
                    self.now = t
                    ev._processed = True
                    processed += 1
                    if trace is not None:
                        trace.on_event(t, ev)
                    cbs = ev.callbacks
                    if cbs:
                        ev.callbacks = []
                        for fn in cbs:
                            fn(ev)
        finally:
            self._running = False
            self.events_processed = processed
        return self.now

    def run_until_event(self, event: Event) -> Any:
        """Run until ``event`` is processed; return its value.

        Raises the event's exception if it failed, or
        :class:`SimulationError` if the queue drains first (deadlock)."""
        while not event.processed:
            if not self._heap:
                raise SimulationError(
                    f"event heap drained before {event!r} fired (deadlock?)"
                )
            self.step()
        if not event.ok:
            raise event.value
        return event.value


class _AnyOf(Event):
    """The event :func:`any_of` returns.  Its bound :meth:`_fire` is the
    one callback every input carries: no closure per input."""

    __slots__ = ()

    def _fire(self, ev: Event) -> None:
        if self._ok is None:
            if ev._ok:
                self.succeed(ev._value)
            else:
                self.fail(ev._value)


def any_of(engine: "Engine", events: list) -> "Event":
    """An event that succeeds when the *first* of ``events`` fires.

    Late firings of the other events are absorbed (the combined event is
    already triggered).  The value is the value of the first event to
    fire; if that one failed, the combined event fails with its
    exception.  An empty ``events`` raises :class:`ValueError`: nothing
    could ever fire it.
    """
    if not events:
        raise ValueError("any_of() needs at least one event; an empty race never fires")
    combo = _AnyOf.__new__(_AnyOf)  # pending, without an __init__ frame
    combo.engine = engine
    combo.callbacks = []
    combo._value = None
    combo._ok = None
    combo._processed = False
    combo.name = "any-of"
    fire = combo._fire
    for ev in events:
        if ev._processed:
            fire(ev)
        else:
            ev.callbacks.append(fire)
    return combo


class TraceHook:
    """Interface for engine-level tracing (see :mod:`repro.sim.trace`)."""

    def on_event(self, now: float, event: Event) -> None:  # pragma: no cover
        raise NotImplementedError
