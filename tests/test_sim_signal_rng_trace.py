"""Unit tests for Signal, RngStreams and TraceRecorder."""

import numpy as np

from repro.sim import Engine, RngStreams, Signal, TraceRecorder


class TestSignal:
    def test_fire_wakes_waiter(self):
        eng = Engine()
        sig = Signal(eng)
        woken = []

        def waiter():
            yield sig.wait()
            woken.append(eng.now)

        eng.process(waiter())
        eng.call_later(5.0, sig.fire, None, "fire")
        eng.run()
        assert woken == [5.0]

    def test_fire_wakes_all_waiters(self):
        eng = Engine()
        sig = Signal(eng)
        woken = []

        def waiter(i):
            yield sig.wait()
            woken.append(i)

        for i in range(4):
            eng.process(waiter(i))
        eng.call_later(1.0, sig.fire, None, "fire")
        eng.run()
        assert sorted(woken) == [0, 1, 2, 3]

    def test_pending_pulse_prevents_lost_wakeup(self):
        eng = Engine()
        sig = Signal(eng)
        sig.fire()  # nobody waiting yet
        woken = []

        def late_waiter():
            yield sig.wait()
            woken.append(eng.now)

        eng.process(late_waiter())
        eng.run()
        assert woken == [0.0]

    def test_pending_pulse_consumed_once(self):
        eng = Engine()
        sig = Signal(eng)
        sig.fire()
        ev1 = sig.wait()
        ev2 = sig.wait()
        assert ev1.triggered
        assert not ev2.triggered

    def test_waiter_count_and_fires(self):
        eng = Engine()
        sig = Signal(eng)
        assert sig.waiter_count == 0
        sig.wait()
        assert sig.waiter_count == 1
        assert sig.fire() == 1
        assert sig.fires == 1
        assert sig.waiter_count == 0


class TestRngStreams:
    def test_same_name_same_stream_object(self):
        rng = RngStreams(7)
        assert rng.stream("a") is rng.stream("a")

    def test_different_names_independent(self):
        rng = RngStreams(7)
        a = rng.stream("a").random(4)
        b = rng.stream("b").random(4)
        assert not np.allclose(a, b)

    def test_same_seed_reproducible(self):
        x = RngStreams(123).stream("nic").random(8)
        y = RngStreams(123).stream("nic").random(8)
        assert np.array_equal(x, y)

    def test_different_seeds_differ(self):
        x = RngStreams(1).stream("nic").random(8)
        y = RngStreams(2).stream("nic").random(8)
        assert not np.array_equal(x, y)

    def test_adding_stream_does_not_perturb_existing(self):
        r1 = RngStreams(9)
        _ = r1.stream("first").random(4)
        mid = r1.stream("first").random(4)

        r2 = RngStreams(9)
        _ = r2.stream("first").random(4)
        _ = r2.stream("second")  # new stream interleaved
        mid2 = r2.stream("first").random(4)
        assert np.array_equal(mid, mid2)

    def test_seed_derivation_is_pinned(self):
        # literal values: every seeded statistic in the goldens rests on them
        rng = RngStreams(7)
        assert rng.derive_seed("nic") == 4144933509878706804
        assert rng.stream("nic").random(4).tolist() == [
            0.7470627928356351, 0.6864580324544414,
            0.11726897391373414, 0.17997716015108345,
        ]

    def test_contains(self):
        rng = RngStreams(0)
        assert "x" not in rng
        rng.stream("x")
        assert "x" in rng


class TestTraceRecorder:
    def _run_workload(self, trace):
        eng = Engine(trace=trace)

        def prog():
            yield eng.timeout(1.0, name="alpha")
            yield eng.timeout(2.0, name="beta")

        eng.process(prog())
        eng.run()
        return eng

    def test_records_events(self):
        tr = TraceRecorder()
        self._run_workload(tr)
        names = [r.name for r in tr.records]
        assert "alpha" in names and "beta" in names

    def test_fingerprint_deterministic(self):
        t1, t2 = TraceRecorder(), TraceRecorder()
        self._run_workload(t1)
        self._run_workload(t2)
        assert t1.fingerprint() == t2.fingerprint()

    def test_limit_drops_oldest(self):
        tr = TraceRecorder(limit=2)
        self._run_workload(tr)
        assert len(tr.records) == 2
        assert tr.dropped >= 1

    def test_name_filter(self):
        tr = TraceRecorder(name_filter="beta")
        self._run_workload(tr)
        assert all("beta" in r.name for r in tr.records)
        assert len(tr) == 1

    def test_records_calls_and_sleeps_as_successes(self):
        tr = TraceRecorder()
        eng = Engine(trace=tr)

        def prog():
            yield eng.sleep(1.0, "nap")

        eng.process(prog())
        eng.call_later(0.5, lambda _arg: None, None, "bell")
        eng.run()
        assert [(r.time, r.name, r.ok) for r in tr.records] == [
            (0.0, "prog.start", True), (0.5, "bell", True),
            (1.0, "nap", True), (1.0, "prog", True)]
        assert eng.events_processed == 4

    def test_dump_is_text(self):
        tr = TraceRecorder(limit=1)
        self._run_workload(tr)
        out = tr.dump()
        assert "dropped" in out
        assert isinstance(out, str)
