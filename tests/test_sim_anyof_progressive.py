"""Tests for the any_of combinator and the progressive OOB barrier."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, run_job
from repro.cluster import job as job_module
from repro.cluster import oob as oob_module
from repro.cluster.oob import OobBoard
from repro.mpi import MpiConfig
from repro.sim import Engine, Signal, any_of
from repro.via.provider import ViaProvider

from tests.counting import record_instances
from tests.sim_helpers import run_until_event


class TestAnyOf:
    def test_first_event_wins(self):
        eng = Engine()
        slow = eng.timeout(100.0, value="slow")
        quick = eng.timeout(10.0, value="quick")
        combo = any_of(eng, [slow, quick])
        got = run_until_event(eng, combo)
        assert got == "quick"
        assert eng.now == 10.0

    def test_late_event_absorbed(self):
        eng = Engine()
        a = eng.timeout(1.0, value="a")
        b = eng.timeout(2.0, value="b")
        combo = any_of(eng, [a, b])
        eng.run()
        assert combo.value == "a"  # b fired later and was ignored

    def test_failure_propagates(self):
        eng = Engine()
        bad = eng.event()
        bad.fail(ValueError("boom"), delay=1.0)
        good = eng.timeout(50.0)
        combo = any_of(eng, [bad, good])
        with pytest.raises(ValueError, match="boom"):
            run_until_event(eng, combo)

    def test_already_processed_event(self):
        eng = Engine()
        done = eng.timeout(1.0, value="past")
        eng.run()
        combo = any_of(eng, [done, eng.event()])
        got = run_until_event(eng, combo)
        assert got == "past"

    def test_with_signals(self):
        eng = Engine()
        s1, s2 = Signal(eng, "a"), Signal(eng, "b")
        woken = []

        def waiter():
            value = yield any_of(eng, [s1.wait(), s2.wait()])
            woken.append((value, eng.now))

        eng.process(waiter())
        eng.call_later(5.0, s2.fire, "two", "fire")
        eng.call_later(9.0, s1.fire, "one", "fire")
        eng.run()
        assert woken == [("two", 5.0)]


class TestProgressiveBarrier:
    def test_services_protocol_while_parked(self):
        """A rank that reaches finalize early must still answer a peer's
        disconnect handshake — the scenario that motivated the
        progressive barrier."""

        def prog(mpi):
            buf = np.empty(1)
            if mpi.rank == 0:
                # talk to everyone, forcing evictions near the end; the
                # peers will already be in finalize when the disconnect
                # requests arrive
                for peer in range(1, mpi.size):
                    yield from mpi.send(np.array([1.0]), peer)
                    yield from mpi.recv(buf, source=peer)
                return True
            yield from mpi.recv(buf, source=0)
            yield from mpi.send(buf.copy(), 0)

        res = run_job(ClusterSpec(nodes=4, ppn=2), 6, prog,
                      MpiConfig(vi_cache_limit=2))
        assert res.returns[0] is True

    def test_all_ranks_released_together(self):
        eng = Engine()
        board = OobBoard(eng, 2)

        class FakeAdi:
            class provider:
                pass

            def __init__(self):
                self.provider = type("P", (), {})()
                self.provider.activity = Signal(eng, "act")
                self.checks = 0

            def device_check(self):
                self.checks += 1
                yield eng.timeout(0.1)
                return False

        adis = [FakeAdi(), FakeAdi()]
        done = []

        def proc(i, delay):
            yield eng.timeout(delay)
            yield from board.progressive_barrier("x", adis[i])
            done.append((i, eng.now))

        eng.process(proc(0, 0.0))
        eng.process(proc(1, 300.0))
        eng.run()
        release = max(t for _i, t in done)
        assert all(abs(t - release) < 1.0 for _i, t in done)
        assert adis[0].checks > 0  # the early rank kept progressing


@pytest.mark.parametrize("connection", ["ondemand", "static-p2p", "static-cs"])
def test_finalize_leaves_no_waiter_behind(monkeypatch, connection):
    """Each rank's finalize races the barrier against its activity
    signal; whichever loses is taken off its signal, so once the job is
    over nothing waits on any rank's activity or on a barrier."""
    providers = record_instances(monkeypatch, job_module, ViaProvider)
    barriers = record_instances(monkeypatch, oob_module, Signal)

    def prog(mpi):
        out = np.empty(4)
        yield from mpi.allreduce(np.full(4, float(mpi.rank)), out)
        if mpi.rank % 2:
            yield from mpi.compute(50.0 * mpi.rank)
        return float(out[0])

    res = run_job(ClusterSpec(nodes=4, ppn=1), 4, prog,
                  MpiConfig(connection=connection))
    assert res.returns == [6.0] * 4
    assert len(providers) == 4 and barriers
    assert [p.activity.waiter_count for p in providers] == [0] * 4
    assert [s.waiter_count for s in barriers] == [0] * len(barriers)
