"""Reusable wake-up signals.

:class:`Signal` is the multi-shot counterpart of the one-shot
:class:`~repro.sim.engine.Event`: any number of processes can wait on it
repeatedly, and each :meth:`Signal.fire` wakes every currently parked
waiter.  The MPI progress engine uses one signal per process to model
"something relevant happened" (a NIC completion, an incoming connection
request, a credit return) without busy-looping the event heap.

Fires with no waiters are remembered as a *pending pulse* so that a
process that checks state, finds nothing, and then waits does not miss a
fire that slipped in between — the classic lost-wakeup race.  Callers
should still re-check their actual condition after waking (spurious
wake-ups are allowed, exactly like condition variables).
"""

from __future__ import annotations

from typing import Any, List

from repro.sim.engine import Engine, Event, SignalWait, SimulationError


class Signal:
    """A level-triggered, multi-waiter wake-up primitive."""

    __slots__ = ("engine", "name", "_wait_name", "_waiters", "_pending", "fires")

    def __init__(self, engine: Engine, name: str = "signal"):
        self.engine = engine
        self.name = name
        #: name of every wait event (trace-fingerprint material), built once
        self._wait_name = f"{name}.wait"
        self._waiters: List[SignalWait] = []
        self._pending = False
        #: total number of fire() calls (diagnostics)
        self.fires = 0

    def wait(self) -> Event:
        """Return an event that succeeds at the next :meth:`fire`.

        If a fire happened while nobody was waiting, the returned event
        succeeds immediately (consuming the pending pulse).  Otherwise it
        is a :class:`~repro.sim.engine.SignalWait` parked in the waiter
        list; an :func:`~repro.sim.engine.any_of` it loses takes it out.
        """
        if self._pending:
            self._pending = False
            return self.engine.timeout(0.0, None, self._wait_name)
        # a fresh pending wait, built without an __init__ frame (the
        # MPI progress loop parks here on every unproductive poll)
        ev = SignalWait.__new__(SignalWait)
        ev.engine = self.engine
        ev.callbacks = []
        ev._value = None
        ev._ok = None
        ev.name = self._wait_name
        ev.signal = self
        self._waiters.append(ev)
        return ev

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters; returns how many were woken.

        With no waiters, arms the pending pulse instead.  A waiter that
        was triggered by hand makes this raise :class:`SimulationError`,
        once every other waiter has been woken, in order.
        """
        self.fires += 1
        if not self._waiters:
            self._pending = True
            return 0
        waiters, self._waiters = self._waiters, []
        try:
            for ev in waiters:
                ev.succeed(value)
        except SimulationError:
            for ev in waiters:
                if ev._ok is None:
                    ev.succeed(value)
            raise
        return len(waiters)

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Signal {self.name!r} waiters={len(self._waiters)} "
            f"pending={self._pending}>"
        )
