"""Unit tests for generator-coroutine processes."""

import sys

import pytest

from repro.sim import Engine, Interrupt, Process, SimulationError


def test_process_requires_generator():
    eng = Engine()

    def not_a_generator():
        return 3

    with pytest.raises(TypeError):
        Process(eng, not_a_generator())  # type: ignore[arg-type]


def test_process_runs_and_returns_value():
    eng = Engine()

    def prog():
        yield eng.timeout(10.0)
        yield eng.timeout(5.0)
        return "finished"

    proc = eng.process(prog())
    eng.run()
    assert proc.processed and proc.ok
    assert proc.value == "finished"
    assert eng.now == 15.0


def test_process_receives_event_value():
    eng = Engine()
    got = []

    def prog():
        v = yield eng.timeout(1.0, value=99)
        got.append(v)

    eng.process(prog())
    eng.run()
    assert got == [99]


def test_waiting_on_child_process():
    eng = Engine()

    def child():
        yield eng.timeout(8.0)
        return 42

    def parent():
        value = yield eng.process(child())
        return value * 2

    parent_proc = eng.process(parent())
    eng.run()
    assert parent_proc.value == 84
    assert eng.now == 8.0


def test_exception_in_process_recorded_as_failure():
    eng = Engine()

    def prog():
        yield eng.timeout(1.0)
        raise ValueError("inner failure")

    proc = eng.process(prog())
    eng.run()
    assert proc.processed and not proc.ok
    assert isinstance(proc.value, ValueError)


def test_failed_event_thrown_into_waiter():
    eng = Engine()
    caught = []

    def prog():
        ev = eng.event()
        ev.fail(RuntimeError("bad"), delay=2.0)
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    eng.process(prog())
    eng.run()
    assert caught == ["bad"]


def test_yielding_non_event_is_an_error():
    eng = Engine()

    def prog():
        yield 5  # type: ignore[misc]

    proc = eng.process(prog())
    eng.run()
    assert not proc.ok
    assert isinstance(proc.value, SimulationError)


def test_interrupt_wakes_waiting_process():
    eng = Engine()
    log = []

    def sleeper():
        try:
            yield eng.timeout(1000.0)
            log.append("slept full")
        except Interrupt as intr:
            log.append(("interrupted", intr.cause, eng.now))

    proc = eng.process(sleeper())
    eng.schedule(10.0, lambda: proc.interrupt("wake up"))
    eng.run()
    assert log == [("interrupted", "wake up", 10.0)]


def test_interrupt_finished_process_rejected():
    eng = Engine()

    def quick():
        yield eng.timeout(1.0)

    proc = eng.process(quick())
    eng.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_unhandled_interrupt_terminates_quietly():
    eng = Engine()

    def sleeper():
        yield eng.timeout(1000.0)

    proc = eng.process(sleeper())
    eng.schedule(1.0, lambda: proc.interrupt())
    eng.run()
    assert proc.processed and proc.ok
    assert proc.value is None


def test_two_processes_interleave_by_time():
    eng = Engine()
    log = []

    def ticker(name, period, count):
        for _ in range(count):
            yield eng.timeout(period)
            log.append((name, eng.now))

    eng.process(ticker("fast", 3.0, 3))
    eng.process(ticker("slow", 5.0, 2))
    eng.run()
    assert log == [
        ("fast", 3.0),
        ("slow", 5.0),
        ("fast", 6.0),
        ("fast", 9.0),
        ("slow", 10.0),
    ]


def test_is_alive_transitions():
    eng = Engine()

    def prog():
        yield eng.timeout(1.0)

    proc = eng.process(prog())
    assert proc.is_alive
    eng.run()
    assert not proc.is_alive


def test_joining_many_finished_processes_does_not_recurse():
    """Yielding an already-processed event resumes the process in a
    loop: it used to nest three frames per such yield, so a parent
    joining finished children overflowed the stack — twice, the second
    time inside ``fail()``, taking ``engine.run()`` down with it."""
    eng = Engine()

    def child(k):
        yield eng.timeout(1.0)
        return k

    kids = [eng.process(child(k)) for k in range(2000)]

    def parent():
        yield eng.timeout(5.0)  # every child has finished by now
        total = 0
        for kid in kids:
            total += yield kid
        return total

    joined = eng.process(parent())
    eng.run()
    assert joined.ok and joined.value == sum(range(2000))
    assert eng.now == 5.0

    done = eng.timeout(0.0, value=1)

    def spinner():
        yield done
        count = 0
        for _ in range(5000):
            count += yield done  # processed: no event, no recursion
        return count

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        spun = eng.process(spinner())
        events_before = eng.events_processed
        eng.run()
    finally:
        sys.setrecursionlimit(limit)
    assert spun.ok and spun.value == 5000
    # the timeout, the boot event and the process's own completion
    assert eng.events_processed - events_before == 3
