"""The names the ladder reports: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repository root carries the same workloads,
end-to-end metrics and per-layer metrics (``test_ladder.py`` holds the
two in step); this module adds what that file has no room for — the
metrics that exist on one workload only, with the bound ``compare``
applies to them.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: how long one run measures, s (``--seconds`` default; the driver's value)
RUN_SECONDS = 10

#: name -> why it is here (one line each; the README has the long form)
WORKLOADS: Dict[str, str] = {
    "engine_churn": "bare repro.sim timeouts and Signal/any_of ping-pong; only sim works, "
                    "so a via/mpi/service change must not move it",
    "via_stream": "VIA rig below MPI: eager descriptors of 0 B to 4 KiB, 64 KiB RDMA writes, "
                  "BVIA with 1 and 16 VIs; via.nic, fabric and memory work, mpi does not",
    "mpi_pt2pt": "run_job static-p2p ping-pong, eager and rendezvous sizes apart, plus a "
                 "4-rank windowed exchange; mpi.adi dominates, connection managers idle",
    "npb_cells": "five NPB kernels on 4 ranks under static and on-demand setup: whole stack "
                 "with collectives and numpy compute; the paper's CG-S/16 cell in the traced pass",
    "conn_init": "a lone barrier on 8 ranks, cLAN and BVIA, three mechanisms (64 ranks in the "
                 "traced pass); nearly all events are connection setup, guards the "
                 "manager collapse",
    "cluster_mix": "seeded short jobs through the cluster scheduler under on-demand and static "
                   "setup (240 arrivals in the traced pass); per-job build and teardown dominate",
    "predict_cold": "cold static analysis of six kernels, then a predicted cell (ten kernels and "
                    "CG at 16 ranks in the traced pass); analysis.interp does most of the work",
    "service_mix": "job server subprocess, closed-loop client: cold, cached and "
                   "single-flight-joined requests; tiny simulations, so protocol and cache show",
}

#: (name, unit, better, bound) — reported by every workload, never 0.
#: Host times are in calibrated seconds (``harness``).  The bounds are
#: the most a bound may be (peak RSS: 10 %): the run-to-run quartile
#: spread measured on this host is 1 to 4 % for ``wall_s`` and
#: ``events_per_s`` (README, "Spread"), but the host it shares a
#: machine with can slow it by half for minutes, and what the probe
#: cannot correct of that is up to 20 %.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("events_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
]

#: (name, unit, better, bound, workload, layer) — host metrics one
#: workload has; ``run`` prints them beside the end-to-end ones and
#: ``compare`` bounds them, and ``--trace 1`` reports them as per-layer
#: metrics named ``<layer>.<name>``
WORKLOAD_ONLY: List[Tuple[str, str, str, float, str, str]] = [
    ("eager_msgs_per_s", "1/s", "higher", 0.25, "mpi_pt2pt", "mpi"),
    ("rndv_msgs_per_s", "1/s", "higher", 0.25, "mpi_pt2pt", "mpi"),
    ("cold_p50_ms", "ms", "lower", 0.25, "service_mix", "service"),
    ("cached_p50_ms", "ms", "lower", 0.25, "service_mix", "service"),
    ("joined_p50_ms", "ms", "lower", 0.25, "service_mix", "service"),
    ("req_per_s", "1/s", "higher", 0.25, "service_mix", "service"),
]

#: the packages host self time is folded into; ``other`` is numpy, the
#: standard library, and the benchmark's own code
LAYERS = ("sim", "fabric", "memory", "via", "mpi", "mpi.conn", "apps", "workloads",
          "cluster", "analysis", "telemetry", "bench", "service", "other")

#: sums of one exact count over the ops of a cycle
SUMMED_COUNTS = (
    "fabric.packets", "fabric.bytes", "via.connections", "mpi.msgs", "mpi.sim_time_us",
    "mpi.conn.connections", "cluster.jobs_completed", "cluster.makespan_us",
    "analysis.graph_edges", "service.executions", "service.cache_hits",
    "service.dedup_joined", "service.rejected_busy",
)

PER_LAYER: List[Tuple[str, str, str]] = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"{layer}.self_share", "ratio", "lower") for layer in LAYERS]
    + [
        # boundary spans: median host time of one call into the layer
        ("cluster.build_s", "s", "lower"),
        ("cluster.run_job_s", "s", "lower"),
        ("analysis.cold_s_total", "s", "lower"),
        ("analysis.cold_s_max", "s", "lower"),
        ("analysis.warm_predict_us", "us", "lower"),
        ("bench.cache_get_us", "us", "lower"),
        ("bench.cache_put_us", "us", "lower"),
        ("bench.fingerprint_us", "us", "lower"),
        ("bench.compute_cell_s", "s", "lower"),
        ("service.ping_ms", "ms", "lower"),
        ("service.submit_ms", "ms", "lower"),
        ("service.fetch_ms", "ms", "lower"),
        ("service.queue_wait_ms_p50", "ms", "lower"),
        ("service.run_ms_p50", "ms", "lower"),
        ("service.cold_p95_ms", "ms", "lower"),
        ("service.cached_p99_ms", "ms", "lower"),
        # exact counts (simulated) and per-op host costs derived from them
        ("sim.events", "count", "lower"),
        ("sim.timeouts_per_s", "1/s", "higher"),
        ("sim.signal_wakeups_per_s", "1/s", "higher"),
        ("fabric.packets", "count", "lower"),
        ("fabric.bytes", "bytes", "lower"),
        ("fabric.host_us_per_packet", "us", "lower"),
        ("via.host_us_per_desc_eager", "us", "lower"),
        ("via.host_us_per_rdma_write", "us", "lower"),
        ("via.host_us_per_connect", "us", "lower"),
        ("via.connections", "count", "lower"),
        ("via.vis_avg", "count", "lower"),
        ("via.bvia_vi_slowdown", "ratio", "lower"),
        ("memory.pinned_peak_bytes", "bytes", "lower"),
        ("mpi.msgs", "count", "lower"),
        ("mpi.host_us_per_msg_eager", "us", "lower"),
        ("mpi.host_us_per_msg_rndv", "us", "lower"),
        ("mpi.init_us_avg", "us", "lower"),
        ("mpi.sim_time_us", "us", "lower"),
        ("mpi.conn.connections", "count", "lower"),
        ("mpi.conn.host_us_per_connection", "us", "lower"),
        ("cluster.jobs_completed", "count", "higher"),
        ("cluster.makespan_us", "us", "lower"),
        ("cluster.host_ms_per_job", "ms", "lower"),
        ("analysis.graph_edges", "count", "lower"),
        ("service.executions", "count", "lower"),
        ("service.cache_hits", "count", "higher"),
        ("service.dedup_joined", "count", "higher"),
        ("service.rejected_busy", "count", "lower"),
        ("service.cache_hit_ratio", "ratio", "higher"),
        # switched features on the CG-S/16 on-demand cell: on ÷ off
        ("telemetry.enabled_overhead_ratio", "ratio", "lower"),
        ("analysis.sanitize_overhead_ratio", "ratio", "lower"),
        ("sim.trace_overhead_ratio", "ratio", "lower"),
        # profiled cycle wall ÷ unprofiled cycle wall
        ("trace.overhead_ratio", "ratio", "lower"),
        # the workload's paper-scale ops, run once each in the traced
        # pass: host times as read (one sample), counts exact
        ("paper.wall_s", "s", "lower"),
        ("paper.events", "count", "lower"),
        ("paper.events_per_s", "1/s", "higher"),
        ("paper.connections_static", "count", "lower"),
        ("paper.connections_ondemand", "count", "lower"),
        ("paper.analysis_cold_s", "s", "lower"),
    ]
    + [(f"{layer}.{name}", unit, better)
       for name, unit, better, _bound, _workload, layer in WORKLOAD_ONLY]
)


def benchmark_json() -> Dict:
    """The document ``BENCHMARK.json`` must equal."""
    return {
        "command": ["python3", "benchmarks/ladder/run.py"],
        "paths": ["benchmarks/ladder"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
