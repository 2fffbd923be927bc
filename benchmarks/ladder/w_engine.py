"""``engine_churn`` — bare ``repro.sim``: timeout churn and signal ping-pong.

Only the engine, ``Process`` and ``Signal``/``any_of`` work here: it is
the ceiling for any event-queue change and the workload on which a
``via``/``mpi``/``service`` change must show no movement.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.sim import Engine, Signal, any_of

from .harness import Op, Outcome, Sample, Workload, best_wall, check

PROCESSES = 64
PAIRS = 32
#: yields per process (1 event each) and round trips per pair (4 events
#: each: wait, any-of, think, absorbed guard); ≈15 ms per op
STEPS = 150
ROUNDS = 25
#: any_of guard: longer than any round trip, short enough to keep the heap small
GUARD_US = 50.0


class EngineChurn(Workload):
    name = "engine_churn"

    def __init__(self, seed, scale, spans):
        super().__init__(seed, scale, spans)
        rng = random.Random(seed)
        # per-process delay tables: distinct, seeded, so heap order is
        # not the trivial round-robin of equal delays
        self.delays = [
            [rng.uniform(0.5, 20.0) for _ in range(16)] for _ in range(PROCESSES)
        ]
        self.think = [rng.uniform(0.1, 2.0) for _ in range(PAIRS)]

    def ops(self) -> List[Op]:
        return [Op("timeouts", lambda: self.timeouts(STEPS)),
                Op("signals", lambda: self.signals(ROUNDS))]

    def warm_up(self) -> None:
        self.timeouts(50)
        self.signals(10)

    def timeouts(self, steps: int) -> Outcome:
        engine = Engine()
        done = [0] * PROCESSES

        def churn(pid: int, table: List[float]):
            n = len(table)
            for step in range(steps):
                yield engine.timeout(table[step % n])
            done[pid] = steps

        for pid, table in enumerate(self.delays):
            engine.process(churn(pid, table))
        end = engine.run()
        out = Outcome(
            events=engine.events_processed,
            sim={"end_us": end, "yields": sum(done)},
            counts={"sim.timeouts": sum(done)},
        )
        check(out, sum(done) == PROCESSES * steps, "timeouts: a process did not finish")
        return out

    def signals(self, rounds: int) -> Outcome:
        engine = Engine()
        wakeups = [0]
        guard_wins = [0]

        def player(mine: Signal, theirs: Signal, think: float, serve: bool):
            if serve:
                theirs.fire()
            for _ in range(rounds):
                # the partner fires within a few µs; the guard timeout
                # must lose the race every time and is absorbed later
                waited_from = engine.now
                yield any_of(engine, [mine.wait(), engine.timeout(GUARD_US)])
                if engine.now - waited_from >= GUARD_US:
                    guard_wins[0] += 1
                wakeups[0] += 1
                yield engine.timeout(think)
                theirs.fire()

        for pair in range(PAIRS):
            a = Signal(engine, f"a{pair}")
            b = Signal(engine, f"b{pair}")
            engine.process(player(a, b, self.think[pair], True))
            engine.process(player(b, a, self.think[pair] * 1.5, False))
        end = engine.run()
        out = Outcome(
            events=engine.events_processed,
            sim={"end_us": end, "wakeups": wakeups[0]},
            counts={"sim.signal_wakeups": wakeups[0]},
        )
        check(out, wakeups[0] == 2 * PAIRS * rounds, "signals: lost wakeups")
        check(out, guard_wins[0] == 0, "signals: a guard timeout beat a fire")
        return out

    def layer_metrics(self, samples: Dict[str, List[Sample]]) -> Dict[str, float]:
        t = samples["timeouts"]
        s = samples["signals"]
        return {
            "sim.timeouts_per_s": t[0].outcome.counts["sim.timeouts"] / best_wall(t),
            "sim.signal_wakeups_per_s": s[0].outcome.counts["sim.signal_wakeups"] / best_wall(s),
        }
