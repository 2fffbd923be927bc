"""Generator-coroutine processes.

A *process* wraps a Python generator.  Each ``yield`` hands the engine an
:class:`~repro.sim.engine.Event`; the process resumes when that event is
processed, receiving the event's value (``gen.send(value)``) or its
exception (``gen.throw(exc)``).

A process is itself an :class:`Event` that succeeds with the generator's
return value, so processes can wait on each other::

    def child(eng):
        yield eng.timeout(5.0)
        return 42

    def parent(eng):
        value = yield eng.process(child(eng))
        assert value == 42

A process may also yield :meth:`Engine.sleep` to pause with no event
built: it is resumed by a bare heap entry, and nothing else can wait on
or interrupt that pause::

    def worker(eng):
        yield eng.sleep(5.0, "think")

A process may also yield a *generator*: a stage it runs itself, in the
same step, until the stage returns.  The yielding generator then resumes
with the stage's return value (or its exception), as after ``yield
from`` — but while the stage waits, each resume enters the stage's frame
alone, not every generator it is nested in::

    def rank(eng):
        yield setup(eng)             # a stage
        result = yield program(eng)  # another; its return value
        yield teardown(eng)
"""

from __future__ import annotations

from heapq import heappush
from types import GeneratorType
from typing import Any, Generator, List, Optional

from repro.sim.engine import Engine, Event, Interrupt, SimulationError


def _outcome(ok: bool, value: Any) -> Event:
    """A processed stand-in event carrying an outcome to the generator
    it resumes: a stage's return value or exception, an interrupt."""
    event = Event.__new__(Event)
    event.callbacks = None
    event._ok = ok
    event._value = value
    return event


#: what a process is resumed with at its start, after a sleep, and what
#: a stage's generator is first sent
_GO = _outcome(True, None)


class Process(Event):
    """A running generator on the simulation engine.

    The process starts at the current simulated instant (its first resume
    is a call scheduled with zero delay, preserving entry ordering by
    sequence number).
    """

    __slots__ = ("_generator", "_waiting_on", "_park", "_callers")

    def __init__(self, engine: Engine, generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process needs a generator, got {type(generator).__name__}; "
                "did you call the function instead of passing its generator?"
            )
        super().__init__(engine, name or getattr(generator, "__name__", "process"))
        #: the generator stepped now: the innermost running stage
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        #: generators suspended on the stage they yielded, innermost last
        self._callers: Optional[List[Generator]] = None
        #: what every awaited event calls back: bound once, not per yield
        #: (and dropped when the process ends, so that it is freed by
        #: reference counting, not left to the cyclic collector)
        self._park = self._resume
        engine.call_later(0.0, self._park, _GO, f"{self.name}.start")

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point.

        Interrupting a finished process is an error; so is interrupting
        a process that is not waiting on an event: one that is currently
        scheduled to run (its event already fired), or one that is asleep
        (:meth:`Engine.sleep` builds no event to detach from).  All raise
        :class:`SimulationError`, which keeps semantics simple and
        deterministic: a process is resumed once per wait.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        target = self._waiting_on
        if type(target) is tuple:
            raise SimulationError(
                f"process {self.name!r} is asleep; only a wait on an event "
                "can be interrupted"
            )
        if target is None:
            raise SimulationError(
                f"process {self.name!r} is not waiting on anything; "
                "cannot interrupt"
            )
        callbacks = target.callbacks
        if callbacks is None:
            raise SimulationError(
                f"process {self.name!r} is about to resume from {target!r}; "
                "cannot interrupt"
            )
        # Detach from the event we were waiting on and schedule the throw.
        callbacks.remove(self._park)
        self._waiting_on = None
        # the call is traced as a success; the generator resumes from a
        # failed stand-in that carries the Interrupt
        self.engine.call_later(0.0, self._park, _outcome(False, Interrupt(cause)),
                               f"{self.name}.interrupt")

    # -- stepping ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Step the generator with the outcome of ``event`` and park on
        what it yields, looping (not recursing) while that has already
        been processed.  The per-entry hot path: it reads event slots,
        not the checking properties.  Stages start, return and fail in
        the branches off it."""
        generator = self._generator
        self._waiting_on = None
        while True:
            try:
                if event._ok:
                    target = generator.send(event._value)
                else:
                    target = generator.throw(event._value)
            except StopIteration as stop:
                if self._callers:
                    # a stage returned: its caller goes on, in this step
                    generator = self._generator = self._callers.pop()
                    event = _outcome(True, stop.value)
                    continue
                self._end()
                self.succeed(stop.value)
                return
            except (KeyboardInterrupt, SystemExit):
                # operator interrupts are not simulation failures: unwind
                # through engine.run() so the CLI's graceful-interrupt path
                # (exit 130, cache intact) sees the real KeyboardInterrupt
                raise
            except BaseException as exc:
                # drop this frame from the traceback: once this call
                # returns it would keep the process alive, and through
                # its caller the engine's stack, in a reference cycle
                exc.__traceback__ = exc.__traceback__.tb_next
                if self._callers:
                    # a stage raised: so does its yield in the caller
                    generator = self._generator = self._callers.pop()
                    event = _outcome(False, exc)
                    continue
                self._end()
                if isinstance(exc, Interrupt):
                    # An unhandled Interrupt terminates the process quietly:
                    # the interrupter asked it to stop and it did not object.
                    self.succeed(None)
                else:
                    self.fail(exc)
                return
            if not isinstance(target, Event):
                if type(target) is tuple and len(target) == 3:
                    # Engine.sleep: its (time, seq) place, resumed by a
                    # bare call to this process
                    self._waiting_on = target
                    when, seq, name = target
                    heappush(self.engine._heap, (when, seq, self._park, _GO, name))
                    return
                if type(target) is GeneratorType:
                    # a stage: run it here until it returns
                    if self._callers is None:
                        self._callers = []
                    self._callers.append(generator)
                    generator = self._generator = target
                    event = _GO
                    continue
                self._abandon(generator)
                self.fail(SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes "
                    "must yield Event objects, generators or Engine.sleep()"))
                return
            if target.engine is not self.engine:
                self._abandon(generator)
                self.fail(SimulationError("yielded event belongs to a different engine"))
                return
            callbacks = target.callbacks
            if callbacks is not None:  # not processed
                self._waiting_on = target
                callbacks.append(self._park)
                return
            event = target

    def _abandon(self, generator: Generator) -> None:
        """Close the running stage and every generator suspended on it,
        innermost first, and end the process."""
        generator.close()
        for caller in reversed(self._callers or ()):
            caller.close()
        self._end()

    def _end(self) -> None:
        """Let go of the generators and of the bound callback: nothing
        resumes a finished process."""
        self._generator = None
        self._callers = None
        self._park = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
