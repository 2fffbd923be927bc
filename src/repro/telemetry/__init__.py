"""Structured telemetry for the simulated MPI/VIA stack.

Public surface:

* :class:`Telemetry` / :class:`TelemetryConfig` — the recording plane,
  attached to a job via ``run_job(..., telemetry=TelemetryConfig())``;
* :class:`MetricsRegistry` (+ :class:`Counter`, :class:`Gauge`,
  :class:`Histogram`) — deterministic numeric metrics;
* exporters — :func:`export_jsonl`, :func:`export_chrome_trace`
  (Perfetto-loadable, with causal flow arrows), :func:`summary_experiment`
  (text table);
* flow analysis — :func:`build_flow_index` (causal message flows),
  :func:`analyze_critical_path` / :class:`CritPathReport` (where did
  each message's latency go: connect stall, flow control, NIC, wire).
"""

from repro.telemetry.core import (
    InstantRecord,
    SpanHandle,
    SpanRecord,
    Telemetry,
    TelemetryConfig,
    Track,
)
from repro.telemetry.critpath import (
    BUCKETS,
    CritPathReport,
    FlowBreakdown,
    PairStats,
)
from repro.telemetry.critpath import analyze as analyze_critical_path
from repro.telemetry.export import (
    chrome_trace,
    export_chrome_trace,
    export_jsonl,
    jsonl_lines,
    summary_experiment,
)
from repro.telemetry.flow import build_flow_index, flow_of
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_EDGES_US,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "Telemetry",
    "TelemetryConfig",
    "Track",
    "SpanRecord",
    "InstantRecord",
    "SpanHandle",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_EDGES_US",
    "jsonl_lines",
    "export_jsonl",
    "chrome_trace",
    "export_chrome_trace",
    "summary_experiment",
    "build_flow_index",
    "flow_of",
    "analyze_critical_path",
    "CritPathReport",
    "FlowBreakdown",
    "PairStats",
    "BUCKETS",
]
