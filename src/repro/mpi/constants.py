"""MPI constants, reduction operators and error types."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: wildcard source for receives (forces connect-to-all under on-demand)
ANY_SOURCE = -1
#: wildcard tag for receives
ANY_TAG = -1
#: null process: sends/recvs to it complete immediately with no data
PROC_NULL = -2
#: largest user tag; tags above this are reserved for collectives
MAX_TAG = 2**20


class MpiError(RuntimeError):
    """Raised for MPI usage errors (bad ranks, truncation, ...)."""


class ConnectionFailed(MpiError):
    """A peer is unreachable: the connect retry budget or the transport
    retransmit budget was exhausted (fault injection).  Surfaced as a
    clean MPI error by ``MPID_DeviceCheck`` instead of hanging."""


class SendMode(enum.Enum):
    """The four MPI-1 communication modes (paper §3.6)."""

    STANDARD = "standard"
    SYNCHRONOUS = "synchronous"
    BUFFERED = "buffered"
    READY = "ready"


# the members as module names, which function bodies read (see
# ``repro.via.constants``)
MODE_STANDARD = SendMode.STANDARD
MODE_SYNCHRONOUS = SendMode.SYNCHRONOUS
MODE_BUFFERED = SendMode.BUFFERED
MODE_READY = SendMode.READY


@dataclass(frozen=True)
class Op:
    """A reduction operator applied to numpy arrays elementwise."""

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    commutative: bool = True

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.fn(a, b)


SUM = Op("sum", np.add)
PROD = Op("prod", np.multiply)
MAX = Op("max", np.maximum)
MIN = Op("min", np.minimum)
LAND = Op("land", np.logical_and)
LOR = Op("lor", np.logical_or)
BAND = Op("band", np.bitwise_and)
BOR = Op("bor", np.bitwise_or)

ALL_OPS = (SUM, PROD, MAX, MIN, LAND, LOR, BAND, BOR)
