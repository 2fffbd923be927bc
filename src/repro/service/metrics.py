"""Service-level metrics: the job server's own operational surface.

Reuses :class:`repro.telemetry.metrics.MetricsRegistry` — the same
counters/gauges/fixed-edge-histograms machinery every simulated job
uses — but over *host* milliseconds, because the server is an operator
artifact living outside the simulation (read through ``repro.bench.clock``).

Canonical names:

==============================  =============================================
``service.submits``             external submit ops answered (any outcome)
``service.accepted``            submissions that enqueued a new execution
``service.dedup_joined``        submissions collapsed onto an in-flight job
``service.cache_hits``          submissions served without execution (memory
                                single-flight result or disk cache)
``service.rejected_busy``       typed ServiceBusy admission rejections
``service.executions``          worker-pool executions completed OK
``service.failed``              executions that raised
``service.connections``         client connections accepted (a client keeps
                                one per thread, so this counts threads,
                                not requests)
``service.queue_depth``         gauge: jobs waiting for a worker
``service.running``             gauge: jobs currently on the pool
``service.draining``            gauge: 1 once shutdown has begun
``service.cache.hits``          gauge: the ResultCache's own hit counter
``service.cache.misses``        gauge: the ResultCache's own miss counter
``service.cache.hit_rate``      gauge: hits / (hits + misses), disk level
``service.queue_wait_ms``       histogram: admission -> worker pickup
``service.run_ms``              histogram: worker pickup -> completion
==============================  =============================================

``service.cache.*`` are literally the counters
:class:`repro.bench.cache.ResultCache` increments for the sweep CLI's
``[cache: H hits / M misses]`` line — one definition of "hit", surfaced
in both places.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bench.cache import ResultCache
from repro.telemetry.metrics import MetricsRegistry

#: fixed host-millisecond bucket edges (1/2/5 decades, 1 ms .. 10 min);
#: wall histograms are operator-facing, so coarse edges are plenty
SERVICE_MS_EDGES = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1_000.0, 2_000.0, 5_000.0, 10_000.0, 20_000.0, 60_000.0,
    120_000.0, 300_000.0, 600_000.0,
)


def make_service_registry(workers: int, queue_bound: int) -> MetricsRegistry:
    """A registry pre-seeded with the canonical service metrics, so an
    idle server still exports the full (deterministically named) set."""
    reg = MetricsRegistry()
    for name in ("service.submits", "service.accepted", "service.dedup_joined",
                 "service.cache_hits", "service.rejected_busy",
                 "service.executions", "service.failed",
                 "service.connections"):
        reg.counter(name)
    reg.gauge("service.workers").set(workers)
    reg.gauge("service.queue_bound").set(queue_bound)
    for name in ("service.queue_depth", "service.running", "service.draining",
                 "service.cache.hits", "service.cache.misses",
                 "service.cache.hit_rate"):
        reg.gauge(name)
    reg.histogram("service.queue_wait_ms", SERVICE_MS_EDGES)
    reg.histogram("service.run_ms", SERVICE_MS_EDGES)
    return reg


def fold_cache_counters(reg: MetricsRegistry, cache: Optional[ResultCache]) -> None:
    """Snapshot the ResultCache's own hit/miss counters into the
    registry (the service's cache-hit-rate metric *is* those counters)."""
    hits = cache.hits if cache is not None else 0
    misses = cache.misses if cache is not None else 0
    reg.gauge("service.cache.hits").set(hits)
    reg.gauge("service.cache.misses").set(misses)
    lookups = hits + misses
    reg.gauge("service.cache.hit_rate").set(
        round(hits / lookups, 6) if lookups else 0.0)


def histogram_percentile(
    edges: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """Upper-edge percentile estimate from fixed-bucket counts.

    Returns the smallest bucket upper edge whose cumulative count
    reaches ``q`` of the total (the overflow bucket reports the last
    edge).  Deterministic given the counts; used for the swarm report's
    p50/p99 queue-wait lines.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile fraction out of range: {q}")
    total = sum(counts)
    if total == 0:
        return 0.0
    threshold = q * total
    cumulative = 0
    for i, count in enumerate(counts):
        cumulative += count
        if cumulative >= threshold:
            return float(edges[i]) if i < len(edges) else float(edges[-1])
    return float(edges[-1])
