"""Telemetry exporters: JSONL stream, Chrome trace, summary table.

All exports are **byte-deterministic**: records are sorted by
``(timestamp, seq)``, JSON objects are serialized with sorted keys and
fixed separators, and every number is simulated time or a seeded
counter — two same-seed runs produce identical files.

The Chrome export follows the ``trace_event`` format understood by
Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``: spans are
complete events (``ph: "X"``, ``ts``/``dur`` in µs — conveniently the
simulation's native unit), instants are ``ph: "i"``, and metadata
events name one process per track group with one thread ("track") per
rank / node / link.
"""

from __future__ import annotations

import json
from typing import IO, TYPE_CHECKING, List, Tuple, Union

from repro.telemetry.core import Telemetry, Track

if TYPE_CHECKING:  # pragma: no cover - the bench layer sits above this one
    from repro.bench.report import Experiment

#: track group -> Chrome pid (one "process" per layer of the stack)
_GROUP_PIDS = {"rank": 1, "node": 2, "link": 3}
_GROUP_LABELS = {
    "rank": "MPI ranks",
    "node": "NICs (kernel agents + firmware)",
    "link": "fabric links (egress)",
}


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _pid_tid(track: Track) -> Tuple[int, int]:
    group, index = track
    return _GROUP_PIDS.get(group, 99), index


def _track_str(track: Track) -> str:
    return f"{track[0]}:{track[1]}"


# ------------------------------------------------------------------ JSONL --
def jsonl_lines(tel: Telemetry) -> List[str]:
    """The full telemetry stream as deterministic JSON lines.

    Spans and instants first (merged, time-ordered), then the metrics
    registry (counters, gauges, histograms — name-sorted).
    """
    events = sorted(
        [("span", s.start_us, s.seq, s) for s in tel.spans]
        + [("instant", i.ts_us, i.seq, i) for i in tel.instants],
        key=lambda e: (e[1], e[2]),
    )
    lines: List[str] = []
    for kind, ts, seq, rec in events:
        if kind == "span":
            lines.append(_dumps({
                "type": "span", "seq": seq, "name": rec.name,
                "track": _track_str(rec.track), "t0": rec.start_us,
                "t1": rec.end_us, "dur": rec.duration_us,
                "ok": rec.ok, "parent": rec.parent, "args": rec.attrs,
            }))
        else:
            lines.append(_dumps({
                "type": "instant", "seq": seq, "name": rec.name,
                "track": _track_str(rec.track), "t": rec.ts_us,
                "args": rec.attrs,
            }))
    m = tel.metrics
    for name, value in m.counters.items():
        lines.append(_dumps({"type": "counter", "name": name, "value": value}))
    for name, value in m.gauges.items():
        lines.append(_dumps({"type": "gauge", "name": name, "value": value}))
    for name, hist in m.histograms.items():
        lines.append(_dumps({"type": "histogram", "name": name, **hist.as_dict()}))
    return lines


def export_jsonl(tel: Telemetry, dest: Union[str, IO[str]]) -> int:
    """Write the JSONL stream; returns the number of lines."""
    lines = jsonl_lines(tel)
    text = "\n".join(lines) + ("\n" if lines else "")
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)
    return len(lines)


# ----------------------------------------------------------- Chrome trace --
def chrome_trace(tel: Telemetry) -> dict:
    """The ``trace_event`` document (dict) for Perfetto.

    Every event carries the required ``ph``/``ts``/``pid``/``name``
    keys (metadata events use ``ts: 0``).
    """
    used_tracks = sorted(
        {s.track for s in tel.spans} | {i.track for i in tel.instants}
    )
    events: List[dict] = []
    for group in sorted({t[0] for t in used_tracks}):
        events.append({
            "ph": "M", "ts": 0, "pid": _GROUP_PIDS.get(group, 99), "tid": 0,
            "name": "process_name",
            "args": {"name": _GROUP_LABELS.get(group, group)},
        })
    for track in used_tracks:
        pid, tid = _pid_tid(track)
        events.append({
            "ph": "M", "ts": 0, "pid": pid, "tid": tid,
            "name": "thread_name",
            "args": {"name": f"{track[0]} {track[1]}"},
        })

    timed = sorted(
        [("X", s.start_us, s.seq, s) for s in tel.spans]
        + [("i", i.ts_us, i.seq, i) for i in tel.instants],
        key=lambda e: (e[1], e[2]),
    )
    for ph, ts, seq, rec in timed:
        pid, tid = _pid_tid(rec.track)
        ev = {
            "ph": ph, "ts": ts, "pid": pid, "tid": tid,
            "name": rec.name, "cat": rec.cat, "args": rec.attrs,
        }
        if ph == "X":
            ev["dur"] = rec.duration_us
            if not rec.ok:
                ev["cname"] = "terrible"  # Perfetto renders failures red
            flow = rec.attrs.get("flow", 0)
            if flow:
                # bind all spans of one causal message flow together;
                # Perfetto draws arrows between same-bind_id events in
                # timestamp order (send → nic.tx → hop → nic.rx → recv)
                ev["bind_id"] = f"0x{flow:x}"
                ev["flow_out"] = True
                ev["flow_in"] = True
        else:
            ev["s"] = "t"  # thread-scoped instant
        events.append(ev)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def export_chrome_trace(tel: Telemetry, dest: Union[str, IO[str]]) -> int:
    """Write the Chrome trace JSON; returns the number of trace events."""
    doc = chrome_trace(tel)
    text = _dumps(doc)
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)
    return len(doc["traceEvents"])


# ---------------------------------------------------------- summary table --
def summary_experiment(tel: Telemetry, title: str = "telemetry summary") -> Experiment:
    """Render the metrics registry as a bench report table."""
    from repro.bench.report import Experiment

    exp = Experiment(
        "telemetry", title, ["value", "count", "mean_us", "max_us"],
        notes=f"{len(tel.spans)} spans, {len(tel.instants)} instants "
              f"({tel.dropped} dropped)",
    )
    m = tel.metrics
    for name, value in m.counters.items():
        exp.add(name, value=value)
    for name, value in m.gauges.items():
        exp.add(name, value=value)
    for name, hist in m.histograms.items():
        exp.add(name, count=hist.count, mean_us=hist.mean, max_us=hist.max)
    return exp
