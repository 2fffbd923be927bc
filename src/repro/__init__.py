"""repro — reproduction of "Impact of On-Demand Connection Management in
MPI over VIA" (Wu, Liu, Wyckoff, Panda — IEEE CLUSTER 2002).

The package simulates a VIA cluster (GigaNet cLAN and Berkeley VIA on
Myrinet profiles), implements an MVICH-style MPI library over it with
**static** and **on-demand** connection management, and ships the
workloads and harness that regenerate every table and figure of the
paper's evaluation.

Quick start::

    import numpy as np
    from repro import ClusterSpec, MpiConfig, run_job

    def prog(mpi):
        x = np.full(4, float(mpi.rank))
        out = np.empty(4)
        yield from mpi.allreduce(x, out)
        return float(out[0])

    result = run_job(ClusterSpec(nodes=8, ppn=2), nprocs=16, program=prog,
                     config=MpiConfig(connection="ondemand"))
    print(result.returns[0], result.resources.avg_vis)

Layers (bottom up): :mod:`repro.sim` (discrete-event engine),
:mod:`repro.memory` (pinned-memory substrate), :mod:`repro.fabric`
(network), :mod:`repro.via` (VIA provider), :mod:`repro.mpi` (the MPI
library), :mod:`repro.cluster` (job runtime), :mod:`repro.apps`
(workloads incl. NAS kernels), :mod:`repro.bench` (paper experiments).
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any, List

if TYPE_CHECKING:  # pragma: no cover - the names keep their types
    from repro.cluster import ClusterSpec, JobResult, run_job
    from repro.mpi import MpiConfig
    from repro.via import BERKELEY, CLAN, ViaProfile, profile_by_name

__version__ = "0.1.0"

#: public name -> defining subpackage, resolved on access (PEP 562): a
#: layer loads only itself and what lies below it, so ``import repro.sim``
#: must not pay for the job runtime, MPI, VIA and numpy.
_SUBMODULE_OF = {
    name: submodule
    for submodule, names in (
        ("cluster", "ClusterSpec JobResult run_job"),
        ("mpi", "MpiConfig"),
        ("via", "CLAN BERKELEY ViaProfile profile_by_name"),
    )
    for name in names.split()
}


def __getattr__(name: str) -> Any:
    submodule = _SUBMODULE_OF.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{submodule}"), name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_SUBMODULE_OF))


__all__ = [
    "ClusterSpec",
    "JobResult",
    "run_job",
    "MpiConfig",
    "CLAN",
    "BERKELEY",
    "ViaProfile",
    "profile_by_name",
    "__version__",
]
