"""Causal message flows over a recorded telemetry stream.

A **flow** is one MPI-level message: the flow id is minted at the send
post (:meth:`~repro.telemetry.core.Telemetry.new_flow`), rides the
protocol header through the ADI, the VIA descriptor, the NIC service
spans and the fabric packet, and is echoed by every span the message
touches as a ``flow`` attribute — send span on the sender's rank track,
``nic.tx`` on the sender's node, ``fabric.hop`` on the link, ``nic.rx``
on the receiver's node, and the matched ``mpi.recv`` span on the
receiver's rank.  Rendezvous control (CTS/FIN) and the RDMA data
message echo the *originating send's* id, so one long message is one
flow end to end.

Flow ids are allocated in recording order from the per-job telemetry
plane, so two same-seed runs produce identical ids and the exports stay
byte-deterministic.  Id 0 means "untagged" (self-sends, untraced
retransmissions) and never appears in the index.

This module is pure post-run analysis: it never touches the engine.
"""

from __future__ import annotations

from typing import Dict, List, Union

from repro.telemetry.core import InstantRecord, SpanRecord, Telemetry

#: span/instant attribute key carrying the flow id
FLOW_ATTR = "flow"

FlowRecord = Union[SpanRecord, InstantRecord]


def flow_of(record: FlowRecord) -> int:
    """The flow id a record is tagged with (0 = untagged)."""
    return record.attrs.get(FLOW_ATTR, 0) or 0


def record_time(record: FlowRecord) -> float:
    """Sort timestamp of a record (span start / instant time)."""
    return record.start_us if isinstance(record, SpanRecord) else record.ts_us


def record_end(record: FlowRecord) -> float:
    """Latest simulated time a record covers."""
    if isinstance(record, SpanRecord):
        return record.start_us if record.end_us is None else record.end_us
    return record.ts_us


def build_flow_index(tel: Telemetry) -> Dict[int, List[FlowRecord]]:
    """Group the stream's flow-tagged records by flow id.

    Each flow's records are sorted by ``(time, seq)`` — the same order
    the exporters use — so walking a flow reads as the message's causal
    chain: send → nic.tx → fabric.hop → nic.rx → recv completion.
    """
    index: Dict[int, List[FlowRecord]] = {}
    for span in tel.spans:
        fid = flow_of(span)
        if fid:
            index.setdefault(fid, []).append(span)
    for inst in tel.instants:
        fid = flow_of(inst)
        if fid:
            index.setdefault(fid, []).append(inst)
    for records in index.values():
        records.sort(key=lambda r: (record_time(r), r.seq))
    return index
