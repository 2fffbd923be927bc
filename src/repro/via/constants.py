"""VIA enums and error types."""

from __future__ import annotations

import enum


class ViState(enum.Enum):
    """VI endpoint lifecycle (VIA spec §2.4)."""

    IDLE = "idle"
    CONNECT_PENDING = "connect-pending"
    CONNECTED = "connected"
    DISCONNECTED = "disconnected"
    ERROR = "error"


class DescriptorOp(enum.Enum):
    """Work-request kinds."""

    SEND = "send"
    RECV = "recv"
    RDMA_WRITE = "rdma-write"


class DescriptorStatus(enum.Enum):
    """Completion status of a descriptor."""

    PENDING = "pending"
    SUCCESS = "success"
    ERROR = "error"
    #: posted to the send queue of a VI that was never connected and got torn down
    FLUSHED = "flushed"


# Each member once more as a module name: function bodies read these.
# On CPython < 3.12 ``ViState.CONNECTED`` goes through
# ``EnumMeta.__getattr__`` (about 5x a global read), and the datapath
# tests a state per descriptor, VI and poll.
VI_IDLE = ViState.IDLE
VI_CONNECT_PENDING = ViState.CONNECT_PENDING
VI_CONNECTED = ViState.CONNECTED
VI_DISCONNECTED = ViState.DISCONNECTED
VI_ERROR = ViState.ERROR
OP_SEND = DescriptorOp.SEND
OP_RECV = DescriptorOp.RECV
OP_RDMA_WRITE = DescriptorOp.RDMA_WRITE
DESC_PENDING = DescriptorStatus.PENDING
DESC_SUCCESS = DescriptorStatus.SUCCESS
DESC_ERROR = DescriptorStatus.ERROR
DESC_FLUSHED = DescriptorStatus.FLUSHED


class ViaError(RuntimeError):
    """Base class for VIA provider errors."""


class ViaConnectionError(ViaError):
    """Connection-management misuse or failure."""


class ViaProtocolError(ViaError):
    """Datapath violation (send on unconnected VI, tag mismatch, ...)."""
