"""Event queue and simulation clock.

The engine is a classic DES core: one binary heap of *entries*, each
keyed by ``(time, seq)``.  An entry carries either an :class:`Event` —
a one-shot completion token that processes (see
:mod:`repro.sim.process`) subscribe to by yielding it — as a
``(time, seq, event)`` triple, or a bare call that nothing waits on as
a ``(time, seq, fn, arg, name)`` 5-tuple (:meth:`Engine.call_later`, a
process's :meth:`Engine.sleep`).  A call builds no event object and no
callback list: most of a simulation's entries are NIC services, fabric
deliveries and host-cost sleeps that only their one owner ever sees.

Times are floats in **microseconds**.  The engine never invents time:
every advance comes from an explicit :meth:`Engine.timeout` /
:meth:`Engine.call_later` / :meth:`Engine.sleep` delay, so all latency
modelling lives in the higher layers where it can be documented and
calibrated.

Determinism contract: entries dequeue in strictly increasing
``(time, seq)`` order, ``seq`` being the engine's monotonic sequence
number — the global total order the golden-trace fingerprints pin down.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional


class SimulationError(RuntimeError):
    """Raised for structural errors in the simulation (double-trigger,
    running a finished engine, deadlock detection, ...)."""


class NegativeDelayError(SimulationError, ValueError):
    """A negative delay reached the scheduler.

    Scheduling into the past would corrupt the heap invariant (entries
    must pop in nondecreasing time order), so :meth:`Engine.timeout`,
    :meth:`Engine.call_later`, :meth:`Engine.sleep` and every trigger
    path reject it up front.
    Subclasses ``ValueError`` for backward compatibility with callers
    that caught the old untyped error.
    """

    def __init__(self, delay: float, where: str = "timeout"):
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
    :class:`SimulationError`.  ``_ok`` is ``None`` while it is pending;
    ``callbacks`` is ``None`` once it is processed.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "name")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self.name = name

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled for processing."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

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
    # With Engine.timeout, Engine.call_later and Process's sleep, the only
    # places that push onto the heap: each inline, at ``now + delay`` from
    # the caller's own operand, after the checks every public entry keeps.
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
        heappush(engine._heap, (engine.now + delay, engine._seq, self))
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
        heappush(engine._heap, (engine.now + delay, engine._seq, self))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self.callbacks is None
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
        #: pending entries, a ``heapq`` heap: ``(when, seq, event)``
        #: triples and ``(when, seq, fn, arg, name)`` calls
        self._heap: list = []
        self._seq = 0
        self._running = False
        self.trace = trace
        #: number of entries processed so far, events and calls alike
        #: (diagnostics / determinism checks)
        self.events_processed = 0

    # -- event construction ----------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Event:
        """An event that succeeds ``delay`` microseconds from now: for
        something to wait on (an ``any_of`` guard, a process's yield).
        A callback nothing waits on is :meth:`call_later`; a process's
        pause is :meth:`sleep`.

        Raises :class:`NegativeDelayError` on ``delay < 0``.
        """
        if delay < 0:
            raise NegativeDelayError(delay, "timeout")
        # Event() + succeed() inline, less the double-trigger check that
        # cannot fire here
        ev = Event.__new__(Event)
        ev.engine = self
        ev.callbacks = []
        ev._value = value
        ev._ok = True
        ev.name = name or "timeout"
        self._seq += 1
        heappush(self._heap, (self.now + delay, self._seq, ev))
        return ev

    def call_later(self, delay: float, fn: Callable[[Any], None], arg: Any,
                   name: str) -> None:
        """Run ``fn(arg)`` after ``delay`` microseconds, as an entry
        named ``name`` (what a trace hook sees; it always succeeds).
        Nothing can wait on it, and no :class:`Event` is built.

        Raises :class:`NegativeDelayError` on ``delay < 0``.
        """
        if delay < 0:
            raise NegativeDelayError(delay, "call_later")
        self._seq += 1
        heappush(self._heap, (self.now + delay, self._seq, fn, arg, name))

    def sleep(self, delay: float, name: str) -> tuple:
        """What a process yields to pause ``delay`` microseconds, as an
        entry named ``name``, with no :class:`Event` built.

        Only a :class:`~repro.sim.process.Process` can resume from it,
        and only the one that yields it at once: the entry's place in
        the ``(time, seq)`` order is taken here, its callback is the
        yielding process's.  A sleep cannot be interrupted.

        Raises :class:`NegativeDelayError` on ``delay < 0``.
        """
        if delay < 0:
            raise NegativeDelayError(delay, "sleep")
        self._seq += 1
        return (self.now + delay, self._seq, name)

    def process(self, generator) -> "Process":
        """Spawn a generator as a simulation process (convenience)."""
        from repro.sim.process import Process

        return Process(self, generator)

    # -- execution ---------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains (or the clock passes ``until``).

        Returns the final simulated time.

        This is the DES hot loop and the one dispatch of both entry
        kinds: it keeps the heap, ``heappop`` and the entry counter in
        locals, and hoists the trace-hook and ``until`` checks out of the
        per-entry path.  ``run(until=t)`` processes every entry at or
        before ``t``: with ``t`` the next entry's time, it steps the
        clock one instant.
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
        pop = heappop
        trace = self.trace
        processed = self.events_processed
        try:
            if until is None and trace is None:
                # fastest variant: no deadline, no recorder
                while heap:
                    entry = pop(heap)
                    self.now = entry[0]
                    processed += 1
                    if len(entry) == 3:
                        ev = entry[2]
                        cbs = ev.callbacks
                        ev.callbacks = None
                        if cbs:
                            for fn in cbs:
                                fn(ev)
                    else:
                        entry[2](entry[3])
            else:
                while heap:
                    t = heap[0][0]
                    if until is not None and t > until:
                        self.now = until
                        break
                    entry = pop(heap)
                    self.now = t
                    processed += 1
                    if len(entry) == 3:
                        ev = entry[2]
                        if trace is not None:
                            trace.on_event(t, ev.name, ev._ok)
                        cbs = ev.callbacks
                        ev.callbacks = None
                        if cbs:
                            for fn in cbs:
                                fn(ev)
                    else:
                        _t, _seq, fn, arg, name = entry
                        if trace is not None:
                            trace.on_event(t, name, True)
                        fn(arg)
        finally:
            self._running = False
            self.events_processed = processed
        return self.now


def mark(_arg: Any) -> None:
    """The call of an entry that only leaves its name on the trace:
    ``engine.call_later(delay, mark, None, name)``."""


class SignalWait(Event):
    """The event :meth:`Signal.wait <repro.sim.signal.Signal.wait>`
    parks in its signal's waiter list.  It knows its signal, so that an
    :func:`any_of` it loses can take it out of that list again."""

    __slots__ = ("signal",)


class _AnyOf(Event):
    """The event :func:`any_of` returns.  Its bound :meth:`_fire` is the
    one callback every input carries: no closure per input.  ``_inputs``
    is the list of inputs until it is decided."""

    __slots__ = ("_inputs",)

    def _fire(self, ev: Event) -> None:
        if self._ok is None:
            if ev._ok:
                self.succeed(ev._value)
            else:
                self.fail(ev._value)
            inputs, self._inputs = self._inputs, None
            for loser in inputs:
                # a signal wait still parked drops this callback, and
                # leaves its signal if nothing else waits on it
                if loser._ok is None and type(loser) is SignalWait:
                    callbacks = loser.callbacks
                    callbacks.remove(self._fire)
                    if not callbacks:
                        waiters = loser.signal._waiters
                        # not there if a fire that raised (at a waiter
                        # triggered by hand) took the list
                        if loser in waiters:
                            waiters.remove(loser)


def any_of(engine: "Engine", events: list) -> "Event":
    """An event that succeeds when the *first* of ``events`` fires.

    The value is the value of the first event to fire; if that one
    failed, the combined event fails with its exception.  Once it is
    decided, each losing input that is a still-pending
    :meth:`Signal.wait <repro.sim.signal.Signal.wait>` drops the
    combined event's callback, and a wait left with no callback leaves
    its signal: it never fires, and a later fire of the signal finds
    one waiter fewer (none left arms the signal's pending pulse).
    Every other late input (a guard timeout, a wait already fired) is
    absorbed when it fires.  The race keeps ``events`` until it is
    decided: the caller must not change the list meanwhile.  An empty
    ``events`` raises :class:`ValueError`: nothing could ever fire it.
    """
    if not events:
        raise ValueError("any_of() needs at least one event; an empty race never fires")
    combo = _AnyOf.__new__(_AnyOf)  # pending, without an __init__ frame
    combo.engine = engine
    combo.callbacks = []
    combo._value = None
    combo._ok = None
    combo.name = "any-of"
    combo._inputs = events
    fire = combo._fire
    done = None
    for ev in events:
        callbacks = ev.callbacks
        if callbacks is None:  # processed: the first one decides, below
            if done is None:
                done = ev
        else:
            callbacks.append(fire)
    if done is not None:
        fire(done)
    return combo


class TraceHook:
    """Interface for engine-level tracing (see :mod:`repro.sim.trace`):
    one call per processed entry, with its time, its name and whether it
    succeeded (a call always does)."""

    def on_event(self, now: float, name: str, ok: bool) -> None:  # pragma: no cover
        raise NotImplementedError
