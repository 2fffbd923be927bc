"""Workloads: the kernel registry plus trace capture/replay.

* :mod:`repro.workloads.registry` — every kernel (NPB, micro, pattern,
  skeleton, captured trace) as one :class:`KernelDef`, read directly
  by the bench, the cluster scheduler and the analyzer.
* :mod:`repro.workloads.trace` — the versioned byte-deterministic
  JSONL trace format.
* :mod:`repro.workloads.replay` — recording facade (capture) and the
  replay kernel generator.
"""

from repro.workloads.registry import (
    KERNEL_DEFS,
    KernelDef,
    build_program,
    kernel_def,
    register_kernel,
    register_trace,
)
from repro.workloads.trace import (
    CommTrace,
    TraceFormatError,
    TraceReplayError,
    load_trace,
    parse_trace,
)

__all__ = [
    "KERNEL_DEFS",
    "KernelDef",
    "build_program",
    "kernel_def",
    "register_kernel",
    "register_trace",
    "CommTrace",
    "TraceFormatError",
    "TraceReplayError",
    "load_trace",
    "parse_trace",
]
