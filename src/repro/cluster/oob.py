"""Out-of-band process-manager channel.

Real MPI jobs bootstrap over a side channel (mpirun's sockets), not over
VIA.  Keeping job-level synchronization out of band matters for the
reproduction: ``MPI_Init`` and ``MPI_Finalize`` must not create VIA
connections under on-demand management, or Table 2's counts (Ring = 2
VIs) would be polluted.

The OOB board provides a named-barrier primitive with a fixed modelled
cost per participant.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.engine import Engine, any_of
from repro.sim.signal import Signal


class OobBoard:
    """Process-manager rendezvous shared by all ranks of a job."""

    #: modelled cost of one OOB barrier crossing per process (socket
    #: round trip through mpirun), µs
    BARRIER_COST_US = 200.0

    def __init__(self, engine: Engine, nprocs: int):
        self.engine = engine
        self.nprocs = nprocs
        self._counts: Dict[str, int] = {}
        self._signals: Dict[str, Signal] = {}

    def _signal(self, name: str) -> Signal:
        sig = self._signals.get(name)
        if sig is None:
            sig = Signal(self.engine, name=f"oob.{name}")
            self._signals[name] = sig
        return sig

    def barrier(self, name: str):
        """Generator: wait until all ``nprocs`` ranks reach this barrier."""
        yield self.engine.sleep(self.BARRIER_COST_US, f"oob.{name}.cost")
        count = self._counts.get(name, 0) + 1
        self._counts[name] = count
        sig = self._signal(name)
        if count == self.nprocs:
            sig.fire()
            return
        while self._counts[name] < self.nprocs:
            yield sig.wait()

    def progressive_barrier(self, name: str, adi):
        """Like :meth:`barrier`, but keeps the MPI device progressing
        while parked — MPI_Finalize must still answer the peers'
        protocol traffic (disconnect handshakes, credit returns), since
        weak progress means nobody else will."""
        yield self.engine.sleep(self.BARRIER_COST_US, f"oob.{name}.cost")
        self._counts[name] = self._counts.get(name, 0) + 1
        sig = self._signal(name)
        if self._counts[name] == self.nprocs:
            sig.fire()
            return
        while self._counts[name] < self.nprocs:
            progressed = yield from adi.device_check()
            if self._counts[name] >= self.nprocs:
                return
            if not progressed:
                yield any_of(self.engine,
                             [sig.wait(), adi.provider.activity.wait()])
