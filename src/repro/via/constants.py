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


class ViaError(RuntimeError):
    """Base class for VIA provider errors."""


class ViaConnectionError(ViaError):
    """Connection-management misuse or failure."""


class ViaProtocolError(ViaError):
    """Datapath violation (send on unconnected VI, tag mismatch, ...)."""
