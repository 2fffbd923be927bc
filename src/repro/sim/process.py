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
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.engine import Engine, Event, Interrupt, SimulationError


class Process(Event):
    """A running generator on the simulation engine.

    The process starts at the current simulated instant (its first resume
    is scheduled with zero delay, preserving event ordering by sequence
    number).
    """

    __slots__ = ("_generator", "_waiting_on", "_park")

    def __init__(self, engine: Engine, generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process needs a generator, got {type(generator).__name__}; "
                "did you call the function instead of passing its generator?"
            )
        super().__init__(engine, name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        #: what every awaited event calls back: bound once, not per yield
        self._park = self._resume
        engine.timeout(0.0, None, f"{self.name}.start").callbacks.append(self._park)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point.

        Interrupting a finished process is an error; interrupting a
        process that is not waiting (i.e. currently scheduled to run) is
        also rejected to keep semantics simple and deterministic.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        target = self._waiting_on
        if target is None:
            raise SimulationError(
                f"process {self.name!r} is not waiting on anything; "
                "cannot interrupt"
            )
        # Detach from the event we were waiting on and schedule the throw.
        try:
            target.callbacks.remove(self._park)
        except ValueError:  # already fired, resume is in flight
            pass
        self._waiting_on = None
        # the kick succeeds (it is traced as such); the generator resumes
        # from a failed stand-in that carries the Interrupt
        thrown = Event(self.engine)
        thrown._ok = False
        thrown._value = Interrupt(cause)
        self.engine.timeout(0.0, None, f"{self.name}.interrupt").callbacks.append(
            lambda _kick: self._resume(thrown))

    # -- stepping ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Step the generator with the outcome of ``event`` and park on
        what it yields, looping (not recursing) while that has already
        been processed.  The per-event hot path: it reads event slots,
        not the checking properties."""
        generator = self._generator
        self._waiting_on = None
        while True:
            try:
                if event._ok:
                    target = generator.send(event._value)
                else:
                    target = generator.throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except Interrupt:
                # An unhandled Interrupt terminates the process quietly: the
                # interrupter asked it to stop and it did not object.
                self.succeed(None)
                return
            except (KeyboardInterrupt, SystemExit):
                # operator interrupts are not simulation failures: unwind
                # through engine.run() so the CLI's graceful-interrupt path
                # (exit 130, cache intact) sees the real KeyboardInterrupt
                raise
            except BaseException as exc:
                self.fail(exc)
                return
            if not isinstance(target, Event):
                generator.close()
                self.fail(SimulationError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes must yield Event objects"))
                return
            if target.engine is not self.engine:
                generator.close()
                self.fail(SimulationError("yielded event belongs to a different engine"))
                return
            if not target._processed:
                self._waiting_on = target
                target.callbacks.append(self._park)
                return
            event = target

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
