"""Unit tests for the DES engine core (events, clock, heap)."""

import pytest

from repro.sim import Engine, SimulationError

from tests.sim_helpers import add_callback, peek, run_until_event


def test_clock_starts_at_zero():
    eng = Engine()
    assert eng.now == 0.0
    assert eng.events_processed == 0


def test_timeout_advances_clock():
    eng = Engine()
    eng.timeout(12.5)
    eng.run()
    assert eng.now == 12.5
    assert eng.events_processed == 1


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(-1.0)


def test_events_process_in_time_order():
    eng = Engine()
    order = []
    eng.call_later(30.0, order.append, "c", "c")
    eng.call_later(10.0, order.append, "a", "a")
    eng.call_later(20.0, order.append, "b", "b")
    eng.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    eng = Engine()
    order = []
    for tag in "abcde":
        eng.call_later(5.0, order.append, tag, tag)
    eng.run()
    assert order == list("abcde")


def test_event_value_available_after_processing():
    eng = Engine()
    ev = eng.event()
    ev.succeed("payload", delay=3.0)
    eng.run()
    assert ev.processed
    assert ev.ok
    assert ev.value == "payload"


def test_event_value_unavailable_before_trigger():
    eng = Engine()
    ev = eng.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_double_trigger_rejected():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))


def test_fail_requires_exception_instance():
    eng = Engine()
    ev = eng.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_failed_event_carries_exception():
    eng = Engine()
    ev = eng.event()
    exc = RuntimeError("boom")
    ev.fail(exc)
    eng.run()
    assert not ev.ok
    assert ev.value is exc


def test_callback_after_processing_runs_immediately():
    eng = Engine()
    ev = eng.timeout(1.0)
    eng.run()
    seen = []
    add_callback(ev, lambda e: seen.append(e.value))
    assert seen == [None]


def test_run_until_stops_clock_at_limit():
    eng = Engine()
    hits = []
    eng.call_later(10.0, hits.append, 1, "one")
    eng.call_later(100.0, hits.append, 2, "two")
    eng.run(until=50.0)
    assert hits == [1]
    assert eng.now == 50.0


def test_run_until_event_returns_value():
    eng = Engine()
    ev = eng.timeout(7.0, value="done")
    assert run_until_event(eng, ev) == "done"
    assert eng.now == 7.0


def test_run_until_event_detects_deadlock():
    eng = Engine()
    ev = eng.event()  # never triggered
    with pytest.raises(SimulationError, match="deadlock"):
        run_until_event(eng, ev)


def test_run_until_event_propagates_failure():
    eng = Engine()
    ev = eng.event()
    ev.fail(ValueError("nope"), delay=1.0)
    with pytest.raises(ValueError, match="nope"):
        run_until_event(eng, ev)


def test_nested_scheduling_from_callbacks():
    eng = Engine()
    trace = []

    def outer(_arg):
        trace.append(("outer", eng.now))
        eng.call_later(5.0, inner, None, "inner")

    def inner(_arg):
        trace.append(("inner", eng.now))

    eng.call_later(10.0, outer, None, "outer")
    eng.run()
    assert trace == [("outer", 10.0), ("inner", 15.0)]


def test_peek_reports_next_event_time():
    eng = Engine()
    assert peek(eng) == float("inf")
    eng.timeout(4.0)
    assert peek(eng) == 4.0
    eng.call_later(2.0, print, None, "call")
    assert peek(eng) == 2.0


# -- typed negative-delay errors (heap-order protection) -------------------

def test_negative_timeout_raises_typed_error():
    from repro.sim import NegativeDelayError

    eng = Engine()
    with pytest.raises(NegativeDelayError) as exc:
        eng.timeout(-0.5)
    assert exc.value.delay == -0.5


def test_negative_schedule_raises_typed_error():
    from repro.sim import NegativeDelayError

    eng = Engine()
    with pytest.raises(NegativeDelayError):
        eng.call_later(-1e-9, print, None, "call")
    with pytest.raises(NegativeDelayError):
        eng.sleep(-1e-9, "nap")
    # nothing half-scheduled: the heap stays empty and runnable
    assert peek(eng) == float("inf")
    eng.run()
    assert eng.events_processed == 0


def test_negative_trigger_delay_raises_typed_error():
    from repro.sim import NegativeDelayError

    eng = Engine()
    with pytest.raises(NegativeDelayError):
        eng.event().succeed(delay=-2.0)
    with pytest.raises(NegativeDelayError):
        eng.event().fail(ValueError("x"), delay=-2.0)


def test_negative_delay_error_is_backward_compatible():
    """Old callers caught ValueError; the typed error must still be one,
    and a SimulationError for engine-level handlers."""
    from repro.sim import NegativeDelayError

    assert issubclass(NegativeDelayError, ValueError)
    assert issubclass(NegativeDelayError, SimulationError)
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(-1.0)


def test_heap_order_intact_after_rejected_negative_delay():
    from repro.sim import NegativeDelayError

    eng = Engine()
    order = []
    eng.call_later(10.0, order.append, "a", "a")
    with pytest.raises(NegativeDelayError):
        eng.call_later(-5.0, order.append, "bad", "bad")
    eng.call_later(20.0, order.append, "b", "b")
    eng.run()
    assert order == ["a", "b"]
    assert eng.now == 20.0


# -- hot-loop equivalence: run() vs one instant at a time ------------------

def test_run_and_step_process_identically():
    def build():
        eng = Engine()
        log = []
        def tick(step):
            tag, dly = step
            log.append((tag, eng.now))
            if dly < 40:
                eng.call_later(dly * 2, tick, (tag + "x", dly * 2), "tick")
        eng.call_later(5.0, tick, ("a", 5.0), "tick")
        eng.call_later(5.0, tick, ("b", 10.0), "tick")
        eng.timeout(17.0)
        return eng, log

    e1, log1 = build()
    e1.run()
    e2, log2 = build()
    while e2._heap:
        e2.run(until=peek(e2))
    assert log1 == log2
    assert e1.now == e2.now
    assert e1.events_processed == e2.events_processed


def test_events_processed_exact_after_run_with_until():
    eng = Engine()
    for k in range(5):
        eng.timeout(float(k))
    eng.run(until=2.5)
    assert eng.events_processed == 3
    eng.run()
    assert eng.events_processed == 5
