"""An MVICH-shaped MPI-1 library over the simulated VIA provider.

This is the layer the paper actually modifies.  It reproduces MVICH's
architecture (MPICH 1.2 + a VIA ADI device):

* point-to-point with **eager** (credit-flow-controlled, bounce-buffer)
  and **rendezvous** (RTS/CTS/RDMA-write/FIN, dreg-registered) protocols
  and a 5000-byte threshold;
* MPICH-style matching: posted-receive and unexpected queues,
  non-overtaking per (source, tag, communicator), ``MPI_ANY_SOURCE`` /
  ``MPI_ANY_TAG``;
* **weak progress**: the library progresses only inside MPI calls, via
  ``MPID_DeviceCheck`` (:meth:`repro.mpi.adi.AbstractDevice.device_check`,
  a generator around the plain ``progress_pass`` that ``wait_until`` polls);
* two completion styles — *polling* and *spinwait* (spin ``spincount``
  times, then block and pay the wakeup penalty), paper §5.3;
* three connection managers (paper §3–4): static client/server
  (serialized), static peer-to-peer, and **on-demand** with per-VI
  pre-posted send FIFOs and connect-to-all on ``MPI_ANY_SOURCE``;
* MPICH-1-style collectives built on point-to-point: recursive-doubling
  barrier/allreduce/allgather, binomial bcast/reduce, pairwise
  alltoall(v), linear gather/scatter(v).

Rank programs are generator coroutines that receive a
:class:`~repro.mpi.facade.MpiProcess` facade; every blocking call is
``yield from``-ed.
"""

from repro.mpi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    PROC_NULL,
    MAX_TAG,
    Op,
    SUM,
    PROD,
    MAX,
    MIN,
    LAND,
    LOR,
    BAND,
    BOR,
    SendMode,
    MpiError,
    ConnectionFailed,
)
from repro.mpi.config import MpiConfig
from repro.mpi.status import Status
from repro.mpi.request import Request, RequestKind
from repro.mpi.facade import MpiProcess

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "PROC_NULL",
    "MAX_TAG",
    "Op",
    "SUM",
    "PROD",
    "MAX",
    "MIN",
    "LAND",
    "LOR",
    "BAND",
    "BOR",
    "SendMode",
    "MpiError",
    "ConnectionFailed",
    "MpiConfig",
    "Status",
    "Request",
    "RequestKind",
    "MpiProcess",
]
