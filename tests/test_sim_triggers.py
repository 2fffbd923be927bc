"""Trigger semantics of ``repro.sim``: the engine against a reference.

``Event.succeed``/``fail``, ``Engine.timeout``/``call_later``, a
process's ``Engine.sleep``, ``Signal.wait``/``fire`` and ``any_of`` push
onto the heap inline, and a call or a sleep is a bare heap entry with no
event.  The reference below is the plain version of the same contract:
every entry an event, ``succeed`` and ``fail`` through one ``_push``, a
call an event with one callback, a sleep a timeout its process waits
on, ``Signal.wait`` through the event constructor and ``succeed``,
``any_of`` arming one closure per input and, once decided, taking each
still-pending signal wait it armed back off (off its signal too when
nothing else waits on it).  Seeded programs mixing every
trigger run on both, and must leave the same ``(time, name, ok)``
trace, the same values and the same raised exceptions.  The one
deliberate difference from older engines is that a rejected negative
delay leaves the event untriggered, which the reference states too.
"""

from __future__ import annotations

import heapq

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.sim
from repro.sim import Engine, NegativeDelayError, Signal, SimulationError, any_of

from tests.sim_helpers import add_callback, peek


class reference:
    """The reference engine: the same names and contract as ``repro.sim``."""

    class SimulationError(RuntimeError):
        pass

    class NegativeDelayError(SimulationError, ValueError):
        def __init__(self, delay):
            super().__init__(delay)
            self.delay = delay

    class Event:
        def __init__(self, engine, name=""):
            self.engine, self.name, self.callbacks = engine, name, []
            self.triggered = self.processed = self.ok = False
            self.value = None
            #: the signal whose waiter list holds this event, if any
            self.signal = None

        def succeed(self, value=None, delay=0.0):
            return self._trigger(True, value, delay)

        def fail(self, exception, delay=0.0):
            return self._trigger(False, exception, delay)

        def _trigger(self, ok, value, delay):
            if self.triggered:
                raise reference.SimulationError("already triggered")
            self.engine._push(delay, self)
            self.triggered, self.ok, self.value = True, ok, value
            return self

        def add_callback(self, fn):
            if self.processed:
                fn(self)
            else:
                self.callbacks.append(fn)

    class Engine:
        def __init__(self, trace=None):
            self.now, self.heap, self.seq, self.trace = 0.0, [], 0, trace

        def event(self, name=""):
            return reference.Event(self, name)

        def _push(self, delay, event):
            if delay < 0:
                raise reference.NegativeDelayError(delay)
            self.seq += 1
            heapq.heappush(self.heap, (self.now + delay, self.seq, event))

        def timeout(self, delay, value=None, name=""):
            return reference.Event(self, name or "timeout").succeed(value, delay)

        def call_later(self, delay, fn, arg, name):
            event = reference.Event(self, name)
            event.callbacks.append(lambda _event: fn(arg))
            event.succeed(None, delay)

        def sleep(self, delay, name):
            return self.timeout(delay, None, name)

        def process(self, generator):
            return reference.Process(self, generator)

        def run(self):
            while self.heap:
                self.now, _seq, event = heapq.heappop(self.heap)
                event.processed = True
                self.trace.on_event(self.now, event.name, event.ok)
                callbacks, event.callbacks = event.callbacks, []
                for fn in callbacks:
                    fn(event)

    class Process(Event):
        """Resumes its generator with each yielded event's outcome."""

        def __init__(self, engine, generator):
            super().__init__(engine, generator.__name__)
            self.generator = generator
            engine.call_later(0.0, self.resume, (True, None), f"{self.name}.start")

        def resume(self, outcome):
            ok, value = outcome
            try:
                if ok:
                    target = self.generator.send(value)
                else:
                    target = self.generator.throw(value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except Exception as exc:
                self.fail(exc)
                return
            target.add_callback(lambda event: self.resume((event.ok, event.value)))

    @staticmethod
    def any_of(engine, events):
        combo = engine.event("any-of")
        armed = []  # (signal wait, its closure) while combo is undecided

        def detach():
            for event, fire in armed:
                if not event.triggered:
                    event.callbacks.remove(fire)
                    if not event.callbacks and event in event.signal.waiters:
                        event.signal.waiters.remove(event)
            armed.clear()

        def arm(event):
            def fire(e):
                if not combo.triggered:
                    (combo.succeed if e.ok else combo.fail)(e.value)
                    detach()
            event.add_callback(fire)
            if event.signal is not None and not event.processed:
                armed.append((event, fire))

        for event in events:
            arm(event)
        if combo.triggered:
            detach()
        return combo

    class Signal:
        def __init__(self, engine, name="signal"):
            self.engine, self.name, self.waiters, self.pending = engine, name, [], False

        def wait(self):
            event = reference.Event(self.engine, f"{self.name}.wait")
            if self.pending:
                self.pending = False
                event.succeed()
            else:
                event.signal = self
                self.waiters.append(event)
            return event

        def fire(self, value=None):
            if not self.waiters:
                self.pending = True
                return 0
            waiters, self.waiters = self.waiters, []
            by_hand = [event for event in waiters if event.triggered]
            for event in waiters:
                if not event.triggered:
                    event.succeed(value)
            if by_hand:
                raise reference.SimulationError("already triggered")
            return len(waiters)


KINDS = ("timeout", "event", "succeed", "fail", "wait", "fire", "any_of",
         "race", "guard", "observe", "call_later", "sleep")
#: negative delays, zero, and fractions whose sums round
DELAYS = (-1.0, -1e-9, 0.0, 0.1, 0.3, 1.0, 2.5)

programs = st.lists(
    st.tuples(
        st.sampled_from((0.0, 0.1, 0.2, 1.0, 1.3, 3.0)),  # when the op runs
        st.sampled_from(KINDS),
        st.integers(0, 7),
        st.integers(0, 7),
        st.sampled_from(DELAYS),
    ),
    max_size=40,
)


class Recorder:
    def __init__(self):
        self.trace = []

    def on_event(self, now, name, ok):
        self.trace.append((now, name, ok))


def run_program(sim, program):
    """Run ``program`` on ``sim`` (``repro.sim`` or :class:`reference`);
    returns the engine trace and the log of values, counts and raised
    exceptions."""
    recorder = Recorder()
    engine = sim.Engine(trace=recorder)
    signals = [sim.Signal(engine, f"s{i}") for i in range(3)]
    pool, log = [], []

    def observe(event):
        log.append(("done", engine.now, event.name, event.ok, repr(event.value)))

    def keep(event):
        pool.append(event)
        add_callback(event, observe)

    def called(a):
        log.append(("called", engine.now, a))

    def sleeper(a, b, delay):
        # a negative delay fails the process at its first sleep
        yield engine.sleep(delay, f"z{a}")
        log.append(("slept", engine.now, a))
        yield engine.sleep(0.1 * b, f"z{a}")
        signals[a % 3].fire(b)
        log.append(("slept", engine.now, a))

    def execute(kind, a, b, delay):
        picked = pool[a % len(pool)] if pool else None
        if kind == "timeout":
            keep(engine.timeout(delay, a, f"t{b}" if b % 2 else ""))
        elif kind == "event":
            keep(engine.event(f"e{a}"))
        elif kind == "succeed" and picked is not None:
            picked.succeed(b, delay)
        elif kind == "fail" and picked is not None:
            picked.fail(ValueError(b), delay)
        elif kind == "wait":
            keep(signals[a % 3].wait())
        elif kind == "fire":
            log.append(("woke", signals[a % 3].fire(b)))
        elif kind == "any_of" and picked is not None:
            keep(sim.any_of(engine, [pool[(a + i * b) % len(pool)]
                                     for i in range(1 + b % 3)]))
        elif kind == "race":  # the progressive barrier's: the loser detaches
            keep(sim.any_of(engine, [signals[a % 3].wait(), signals[b % 3].wait()]))
        elif kind == "guard":
            keep(sim.any_of(engine, [signals[a % 3].wait(), engine.timeout(delay)]))
        elif kind == "observe" and picked is not None:
            add_callback(picked, observe)
        elif kind == "call_later":
            engine.call_later(delay, called, a, f"c{b}")
        elif kind == "sleep":
            engine.process(sleeper(a, b, delay))

    for when, kind, a, b, delay in program:
        def step(_arg, kind=kind, a=a, b=b, delay=delay):
            try:
                execute(kind, a, b, delay)
            except (sim.SimulationError, TypeError, ValueError) as exc:
                log.append(("raised", kind, type(exc).__name__,
                            getattr(exc, "delay", None)))
        engine.call_later(when, step, None, "step")
    engine.run()
    return recorder.trace, log


@given(program=programs)
# a race's losing wait that a raising fire (at a waiter triggered by
# hand) already took off its signal
@example(program=[(0.0, "event", 0, 0, 0.0), (0.0, "wait", 1, 0, 0.0),
                  (0.0, "fire", 0, 0, 0.0), (0.0, "race", 0, 1, 0.0),
                  (0.0, "succeed", 1, 0, 0.0), (0.0, "fire", 1, 0, 0.0)])
@settings(max_examples=300, deadline=None)
def test_triggers_match_the_reference(program):
    assert run_program(repro.sim, program) == run_program(reference, program)


def test_the_oracle_sees_every_trigger():
    """The drawn ops reach what the oracle is for: a pending pulse, a
    detached race loser, a failed and an already processed ``any_of``
    input, a double trigger, a negative delay, a bare call and a
    process's sleeps, one of which fails it."""
    program = [
        (0.0, "fire", 0, 5, 0.0),     # no waiter: arms s0's pulse
        (0.0, "wait", 0, 0, 0.0),     # consumes it
        (0.0, "race", 1, 2, 0.0),     # waits on s1 and s2
        (0.1, "fire", 1, 6, 0.0),     # s1 wins, s2's waiter detaches
        (0.2, "fire", 2, 7, 0.0),     # ... so this fire arms s2's pulse
        (0.2, "event", 3, 0, 0.0),
        (0.2, "fail", 2, 4, 0.3),     # the pending event fails at 0.5
        (1.0, "any_of", 2, 1, 0.0),   # processed failed input
        (1.0, "any_of", 0, 1, 0.0),   # processed successful input
        (1.0, "succeed", 0, 1, 0.0),  # double trigger
        (1.3, "timeout", 0, 1, -1.0),
        (1.3, "guard", 0, 0, 0.1),
        (1.0, "call_later", 4, 3, 2.5),
        (1.0, "call_later", 4, 3, -1e-9),
        (1.0, "sleep", 5, 2, 1.0),    # wakes at 2.0 and 2.2, fires s2
        (1.0, "sleep", 6, 0, -1.0),   # fails at its first sleep
    ]
    trace, log = run_program(repro.sim, program)
    assert (trace, log) == run_program(reference, program)
    assert ("raised", "succeed", "SimulationError", None) in log
    assert ("raised", "timeout", "NegativeDelayError", -1.0) in log
    assert ("done", 0.5, "e3", False, "ValueError(4)") in log
    assert ("done", 1.0, "any-of", False, "ValueError(4)") in log
    assert ("done", 1.0, "any-of", True, "None") in log
    assert [entry for entry in log if entry[0] == "woke"] == [
        ("woke", 0), ("woke", 1), ("woke", 0)]
    assert sum(name == "s2.wait" for _t, name, _ok in trace) == 0
    assert ("called", 3.5, 4) in log
    assert ("raised", "call_later", "NegativeDelayError", -1e-9) in log
    assert [entry for entry in log if entry[0] == "slept"] == [
        ("slept", 2.0, 5), ("slept", 2.2, 5)]
    assert (1.0, "sleeper", False) in trace and (2.2, "sleeper", True) in trace


@pytest.mark.parametrize("trigger", ("timeout", "call_later", "sleep",
                                     "succeed", "fail"))
def test_every_public_trigger_rejects_a_negative_delay(trigger):
    engine = Engine()
    event = engine.event("e")
    call = {
        "timeout": lambda: engine.timeout(-1e-9),
        "call_later": lambda: engine.call_later(-1e-9, print, None, "call"),
        "sleep": lambda: engine.sleep(-1e-9, "nap"),
        "succeed": lambda: event.succeed(delay=-1e-9),
        "fail": lambda: event.fail(ValueError("x"), delay=-1e-9),
    }[trigger]
    with pytest.raises(NegativeDelayError) as raised:
        call()
    assert raised.value.delay == -1e-9
    # rejected before any change: nothing pushed, the event still pending
    assert peek(engine) == float("inf") and not event.triggered
    event.succeed()
    engine.run()
    assert engine.events_processed == 1


def test_a_hand_triggered_waiter_makes_the_next_fire_raise():
    engine = Engine()
    signal = Signal(engine)
    first, second = signal.wait(), signal.wait()
    second.succeed("by hand")
    with pytest.raises(SimulationError, match="already triggered"):
        signal.fire()
    engine.run()
    assert first.value is None and second.value == "by hand"


def test_a_fire_that_raises_still_wakes_every_other_waiter():
    engine = Engine()
    signal = Signal(engine)
    waits = [signal.wait() for _ in range(4)]
    waits[1].succeed("by hand")
    with pytest.raises(SimulationError, match="already triggered"):
        signal.fire("fired")
    assert signal.waiter_count == 0
    woken = []
    for wait in waits:
        add_callback(wait, lambda event: woken.append(event.value))
    engine.run()
    # the hand-triggered one first (it was pushed first), then the rest
    # in the order they waited
    assert woken == ["by hand", "fired", "fired", "fired"]
    assert [wait.value for wait in waits] == ["fired", "by hand", "fired",
                                              "fired"]


def test_any_of_nothing_raises_at_the_call():
    with pytest.raises(ValueError, match="at least one event"):
        any_of(Engine(), [])
