"""The bottom two layers, ``repro.sim`` and ``repro.fabric``, run without
numpy.

Run it with an interpreter that cannot import numpy (CI uses a bare
venv; ``tests/test_import_hygiene.py`` runs it with ``python -S``):

    PYTHONPATH=src python tests/no_numpy_layers.py

It checks that numpy is out of reach, then drives a signal ping-pong,
two pinned ``any_of`` races and a two-node store-and-forward delivery,
and exits non-zero on the first mismatch.
"""

import importlib.util
import sys


def signal_pingpong():
    from repro.sim import Engine, Signal

    engine = Engine()
    ping, pong = Signal(engine, "ping"), Signal(engine, "pong")
    wakeups = []

    def player(mine, theirs, serve):
        if serve:
            theirs.fire()
        for _ in range(10):
            yield mine.wait()
            wakeups.append(engine.now)
            yield engine.timeout(1.0)
            theirs.fire()

    engine.process(player(ping, pong, True))
    engine.process(player(pong, ping, False))
    engine.run()
    assert len(wakeups) == 20 and engine.now == 20.0, (wakeups, engine.now)


def races():
    from repro.sim import Engine, Signal, TraceRecorder, any_of

    # an any_of race: the signal, rung by a bare call, beats its guard
    # timeout, which is absorbed later; a process sleeps meanwhile. The
    # trace is pinned: the same one a timeout per sleep and an event per
    # call gave
    trace = TraceRecorder()
    engine, won = Engine(trace=trace), []
    bell = Signal(engine, "bell")

    def racer():
        won.append((yield any_of(engine, [bell.wait(), engine.timeout(5.0, "guard")])))
        won.append(engine.now)

    def sleeper():
        yield engine.sleep(1.5, "nap")
        yield engine.sleep(3.0, "nap")

    engine.process(racer())
    engine.process(sleeper())
    engine.call_later(2.0, bell.fire, "bell", "fire")
    engine.run()
    assert won == ["bell", 2.0] and engine.now == 5.0, (won, engine.now)
    assert trace.fingerprint() == (
        "834adadc3e240a0bc6520eda3f9607360fabc375ee4a98cff17064428c2d7712"
    ), trace.dump()

    # a two-signal race: the loser's wait leaves its signal, so nothing
    # waits on it after the race, and its later fire wakes nothing and
    # adds no entry. The trace is pinned
    trace = TraceRecorder()
    engine, seen = Engine(trace=trace), []
    left, right = Signal(engine, "left"), Signal(engine, "right")

    def chooser():
        seen.append((yield any_of(engine, [left.wait(), right.wait()])))
        seen.append(right.waiter_count)

    engine.process(chooser())
    engine.call_later(1.0, left.fire, "left", "fire")
    engine.call_later(2.0, lambda value: seen.append(right.fire(value)), "right", "fire")
    engine.run()
    assert seen == ["left", 0, 0] and engine.now == 2.0, (seen, engine.now)
    assert "right.wait" not in {r.name for r in trace.records}, trace.dump()
    assert trace.fingerprint() == (
        "9a119b88b9a8619c5cc615a56a837a131cde53669e239e724a8f97bf1f328838"
    ), trace.dump()


def store_and_forward():
    from repro.fabric import LinkParams, Network, Packet
    from repro.sim import Engine

    # a two-node delivery, store and forward: 2 x (1 + 100 / 10) + 5 us,
    # the second packet one serialization time later
    engine, got = Engine(), []
    net = Network(engine, LinkParams(wire_latency_us=5.0, loopback_latency_us=1.0,
                                     bandwidth_bytes_per_us=10.0,
                                     per_packet_overhead_us=1.0))
    net.attach(0, lambda packet: None)
    net.attach(1, lambda packet: got.append((packet.payload, engine.now)))
    net.send(Packet(0, 1, 100, "hello"))
    net.send(Packet(0, 1, 100, "again"))
    engine.run()
    assert got == [("hello", 27.0), ("again", 38.0)], got


def main():
    assert importlib.util.find_spec("numpy") is None, "numpy is importable"
    import repro, repro.sim, repro.fabric  # noqa: E401,F401

    signal_pingpong()
    races()
    store_and_forward()
    assert "numpy" not in sys.modules
    print("ok: repro.sim and repro.fabric ran without numpy")


if __name__ == "__main__":
    main()
