"""Unit tests for generator-coroutine processes."""

import gc
import sys
import weakref

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
    eng.call_later(10.0, proc.interrupt, "wake up", "interrupter")
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
    eng.call_later(1.0, proc.interrupt, None, "interrupter")
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


def test_a_yielded_generator_runs_as_a_stage():
    """A yielded generator runs in the process's place until it returns;
    its caller then resumes with the value (or the exception), in the
    same step: the stages cost no event of their own."""
    eng = Engine()
    log = []

    def inner(n):
        yield eng.timeout(1.0)
        if n < 0:
            raise ValueError(n)
        return n * 10

    def middle():
        got = yield inner(2)               # a stage inside a stage
        return got + (yield from plain())  # and a plain delegation

    def plain():
        yield eng.timeout(1.0)
        return 1

    def outer():
        log.append((yield middle()))
        try:
            yield inner(-1)
        except ValueError as exc:
            log.append(("raised", exc.args[0], eng.now))
        return "done"

    proc = eng.process(outer())
    eng.run()
    assert proc.ok and proc.value == "done"
    assert log == [21, ("raised", -1, 3.0)]
    # the boot event, three timeouts and the process's own completion
    assert eng.events_processed == 5


def test_an_exception_leaves_every_stage_in_turn():
    eng = Engine()
    unwound = []

    def failing():
        yield eng.timeout(1.0)
        raise KeyError("lost")

    def stage(name, inner):
        try:
            return (yield inner)
        finally:
            unwound.append(name)

    proc = eng.process(stage("outer", stage("inner", failing())))
    eng.run()
    assert not proc.ok and isinstance(proc.value, KeyError)
    assert unwound == ["inner", "outer"]


def test_an_interrupt_reaches_the_running_stage():
    eng = Engine()
    log = []

    def sleeper():
        try:
            yield eng.timeout(1000.0)
        except Interrupt as intr:
            log.append(("stage", intr.cause, eng.now))
            raise

    def caller():
        try:
            yield sleeper()
        except Interrupt:
            log.append(("caller", eng.now))
        yield sleeper()  # an unhandled interrupt ends the process quietly

    proc = eng.process(caller())
    eng.call_later(10.0, proc.interrupt, "first", "interrupter")
    eng.call_later(20.0, proc.interrupt, "second", "interrupter")
    eng.run()
    assert proc.ok and proc.value is None
    assert log == [("stage", "first", 10.0), ("caller", 10.0),
                   ("stage", "second", 20.0)]


def test_a_bad_yield_inside_a_stage_closes_every_stage():
    eng = Engine()
    closed = []

    def stage(name, inner=None):
        try:
            if inner is None:
                yield 5  # type: ignore[misc]
            else:
                yield inner
        finally:
            closed.append(name)

    proc = eng.process(stage("outer", stage("inner")))
    eng.run()
    assert not proc.ok and isinstance(proc.value, SimulationError)
    assert closed == ["inner", "outer"]


@pytest.mark.parametrize("staged", [False, True])
def test_a_finished_process_is_freed_by_reference_counting(staged):
    """Neither its bound callback nor its stages keep a process that
    returned alive."""
    eng = Engine()

    def stage():
        yield eng.timeout(5.0)
        return 1

    def prog():
        if staged:
            return (yield stage())
        return (yield from stage())

    class Weakly(Process):
        """A Process that takes weak references (no ``__slots__``)."""

    gc.disable()
    try:
        proc = Weakly(eng, prog())
        eng.run()
        assert proc.ok and proc.value == 1
        ref = weakref.ref(proc)
        del proc
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("ending", ["interrupt", "failure"])
@pytest.mark.parametrize("staged", [False, True])
def test_an_interrupted_or_failed_process_is_freed_by_reference_counting(
        ending, staged):
    """An exception that ends a process keeps the frame that caught it
    in its traceback; that frame must not keep the process alive."""
    eng = Engine()

    def stage():
        yield eng.timeout(5.0)
        if ending == "failure":
            raise KeyError("lost")

    def prog():
        if staged:
            yield stage()
        else:
            yield from stage()

    class Weakly(Process):
        """A Process that takes weak references (no ``__slots__``)."""

    gc.disable()
    try:
        proc = Weakly(eng, prog())
        if ending == "interrupt":
            eng.call_later(1.0, proc.interrupt, "stop", "interrupter")
        eng.run()
        if ending == "interrupt":
            assert proc.ok and proc.value is None
        else:
            assert not proc.ok and isinstance(proc.value, KeyError)
        ref = weakref.ref(proc)
        del proc
        assert ref() is None
    finally:
        gc.enable()


def test_a_sleep_resumes_the_process_with_no_event():
    eng = Engine()
    log = []

    def prog():
        value = yield eng.sleep(2.5, "nap")
        log.append((value, eng.now))
        yield eng.sleep(0.0, "nap")
        log.append((None, eng.now))
        return "woke"

    proc = eng.process(prog())
    eng.run()
    assert proc.ok and proc.value == "woke"
    assert log == [(None, 2.5), (None, 2.5)]
    # the start call, two sleeps and the process's own completion
    assert eng.events_processed == 4


def test_interrupting_a_sleeping_process_is_a_typed_error():
    eng = Engine()
    raised = []

    def sleeper():
        yield eng.sleep(10.0, "nap")
        return "slept full"

    proc = eng.process(sleeper())

    def interrupt(_arg):
        try:
            proc.interrupt("wake up")
        except SimulationError as exc:
            raised.append(str(exc))

    eng.call_later(1.0, interrupt, None, "interrupter")
    eng.run()
    assert raised and "asleep" in raised[0]
    # the sleep was not disturbed
    assert proc.ok and proc.value == "slept full" and eng.now == 10.0


def test_interrupting_a_process_whose_wake_up_fired_is_a_typed_error():
    """Its event fired and the resume is in flight: an interrupt then
    would throw into whatever it waits on next, and that wait's event
    would resume it a second time."""
    eng = Engine()
    log = []
    first = eng.timeout(5.0, "first")

    def prog():
        log.append((yield first))
        log.append((yield eng.timeout(10.0, "second")))

    proc = eng.process(prog())
    eng.run(until=1.0)

    def interrupt(_event):
        try:
            proc.interrupt("late")
        except SimulationError as exc:
            log.append(type(exc).__name__)

    first.callbacks.insert(0, interrupt)  # runs before the process's own
    eng.run()
    assert log == ["SimulationError", "first", "second"]
    assert proc.ok and eng.now == 15.0
