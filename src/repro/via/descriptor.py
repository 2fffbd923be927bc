"""Work-request descriptors.

A VIA descriptor is a control segment plus data segments living in
registered memory.  The simulation keeps one logical data segment and
carries the *structured* header of the upper layer (an object) next to
the raw payload bytes; the header's wire size is charged explicitly so
fabric timing stays honest while tests can inspect protocol fields
without byte-unpacking.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

import numpy as np

from repro.memory.buffer_pool import PooledBuffer
from repro.via.constants import (
    DESC_PENDING,
    DESC_SUCCESS,
    OP_RDMA_WRITE,
    OP_RECV,
    OP_SEND,
    DescriptorOp,
    DescriptorStatus,
)

_descriptor_ids = itertools.count(1)


class Descriptor:
    """One posted work request.

    For ``SEND``: ``payload`` holds the outgoing bytes (already copied
    into pinned memory by the upper layer) and ``header`` the structured
    protocol header.

    For ``RECV``: ``buffer`` is the pre-posted pooled buffer the NIC will
    deposit into; after completion ``header``/``length`` describe what
    arrived.

    For ``RDMA_WRITE``: ``payload`` holds the bytes, ``remote_handle`` /
    ``remote_offset`` address the target registered region.
    """

    __slots__ = (
        "descriptor_id",
        "op",
        "vi_id",
        "header",
        "payload",
        "buffer",
        "remote_handle",
        "remote_offset",
        "status",
        "length",
        "completed_at",
        "context",
        "tel_span",
        "flow_id",
    )

    def __init__(
        self,
        op: DescriptorOp,
        vi_id: int,
        header: Any = None,
        payload: Optional[np.ndarray] = None,
        buffer: Optional[PooledBuffer] = None,
        remote_handle: Optional[int] = None,
        remote_offset: int = 0,
        context: Any = None,
        flow_id: int = 0,
    ):
        if op is OP_SEND and payload is None:
            raise ValueError("SEND descriptor needs a payload (may be empty)")
        if op is OP_RECV and buffer is None:
            raise ValueError("RECV descriptor needs a pre-posted buffer")
        if op is OP_RDMA_WRITE and (payload is None or remote_handle is None):
            raise ValueError("RDMA_WRITE descriptor needs payload and remote handle")
        self.descriptor_id = next(_descriptor_ids)
        self.op = op
        self.vi_id = vi_id
        self.header = header
        self.payload = payload
        self.buffer = buffer
        self.remote_handle = remote_handle
        self.remote_offset = remote_offset
        self.status = DESC_PENDING
        #: bytes transferred (filled at completion)
        self.length = 0
        self.completed_at: float = -1.0
        #: upper-layer cookie (MVICH hangs its request objects here)
        self.context = context
        #: open telemetry span (post -> completion), if the VI is traced
        self.tel_span = None
        #: causal flow id of the MPI message this work serves (0 = untagged)
        self.flow_id = flow_id

    @property
    def done(self) -> bool:
        return self.status is not DESC_PENDING

    def complete(self, status: DescriptorStatus, length: int, now: float) -> None:
        if self.status is not DESC_PENDING:
            raise RuntimeError(f"descriptor {self.descriptor_id} completed twice")
        self.status = status
        self.length = length
        self.completed_at = now
        if self.tel_span is not None:
            self.tel_span.end(
                ok=status is DESC_SUCCESS,
                status=status.value, nbytes=length,
            )
            self.tel_span = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Descriptor #{self.descriptor_id} {self.op.value} vi={self.vi_id} "
            f"{self.status.value}>"
        )
