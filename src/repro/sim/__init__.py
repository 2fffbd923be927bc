"""Deterministic discrete-event simulation (DES) kernel.

This package is the foundation of the whole reproduction: every other
subsystem (the VIA provider, the NIC models, the MPI library, the NAS
kernels) runs as generator-coroutine processes on top of this engine.

Design goals:

* **Determinism.** Two runs with the same seed and the same workload
  produce byte-identical event traces.  Ties in event time are broken by
  a monotonically increasing sequence number.
* **Microsecond clock.** All times are floats in microseconds, matching
  the units the paper reports.
* **Tiny yield protocol.** A process generator may yield
  :class:`~repro.sim.engine.Event` objects (one-shot), results of
  :meth:`Engine.timeout`, or :meth:`~repro.sim.signal.Signal.wait`;
  :meth:`Engine.sleep`, a pause with no event built; or a generator,
  a stage the process runs in its place until it returns (see
  :mod:`repro.sim.process`).
* **An event only where something waits.** Work that nothing waits on
  (:meth:`Engine.call_later`, a sleep) is a bare heap entry.
"""

from repro.sim.engine import (
    Engine,
    Event,
    Interrupt,
    NegativeDelayError,
    SimulationError,
    any_of,
)
from repro.sim.process import Process
from repro.sim.signal import Signal
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceRecorder, TraceRecord

__all__ = [
    "Engine",
    "any_of",
    "Event",
    "Interrupt",
    "NegativeDelayError",
    "SimulationError",
    "Process",
    "Signal",
    "RngStreams",
    "TraceRecorder",
    "TraceRecord",
]
