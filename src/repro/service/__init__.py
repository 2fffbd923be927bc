"""Simulation-as-a-service: a persistent job server over the bench/cluster
experiment entries.

The package turns the one-shot CLIs (``repro.bench sweep``,
``repro.bench.cluster``) into a long-lived asyncio server
(``python -m repro.service serve``) that accepts experiment requests as
newline-delimited JSON over a unix socket, with:

- **admission control**: a bounded queue; a full queue is a typed
  ``ServiceBusy`` rejection, never unbounded buffering;
- **single-flight dedup**: job id == content-addressed cache key, so
  concurrent identical submissions share one execution and every
  request hits the same SHA-256-addressed ResultCache the CLIs use;
- **progress streaming** to subscribed clients and a metrics registry
  (queue depth, wait/run histograms, cache hit rate) built on
  ``repro.telemetry.metrics``;
- **graceful drain** on shutdown and signals;
- a **seeded client swarm** (``swarm`` subcommand) for deterministic
  load-test reports.

Layering note: this package lives in host time, read only through
``repro.bench.clock.now_s``; everything it calls remains
determinism-lint clean.
"""

from repro.service.client import ServiceClient
from repro.service.jobs import JobRequest, normalize_request
from repro.service.protocol import (
    PROTOCOL_VERSION,
    JobFailed,
    NotDone,
    RequestError,
    ServiceBusy,
    ServiceDraining,
    ServiceError,
    UnknownJob,
)
from repro.service.server import ServiceConfig, ServiceServer, serve

__all__ = [
    "PROTOCOL_VERSION",
    "JobFailed",
    "JobRequest",
    "NotDone",
    "RequestError",
    "ServiceBusy",
    "ServiceClient",
    "ServiceConfig",
    "ServiceDraining",
    "ServiceError",
    "ServiceServer",
    "UnknownJob",
    "normalize_request",
    "serve",
]
