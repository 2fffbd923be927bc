"""Engine helpers that only tests use: the time of the next heap entry,
running until one event is processed, and a callback on an event that
may have been processed already."""

from __future__ import annotations

from typing import Any, Callable

from repro.sim import Engine, Event, SimulationError


def peek(engine: Engine) -> float:
    """Time of the next entry, or ``inf`` if the heap is empty."""
    return engine._heap[0][0] if engine._heap else float("inf")


def run_until_event(engine: Engine, event: Event) -> Any:
    """Run ``engine`` one instant at a time until ``event`` is processed;
    return its value.

    Raises the event's exception if it failed, or
    :class:`SimulationError` if the heap drains first (deadlock)."""
    while not event.processed:
        if not engine._heap:
            raise SimulationError(
                f"event heap drained before {event!r} fired (deadlock?)")
        engine.run(until=peek(engine))
    if not event.ok:
        raise event.value
    return event.value


def add_callback(event: Event, fn: Callable[[Event], None]) -> None:
    """Run ``fn(event)`` when ``event`` is processed, or now if it has
    been already."""
    if event.processed:
        fn(event)
    else:
        event.callbacks.append(fn)
