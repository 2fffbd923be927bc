"""Seeded synthetic client swarm: the service's load test.

``python -m repro.service swarm`` fires N concurrent clients at a
running server.  Each client draws its request sequence from a seeded
``random.Random`` stream (client *i* of swarm seed *s* seeds its RNG
with the string ``"{s}:{i}"``), sampling **with replacement** from a
small pool of micro-kernel configurations — so concurrent duplicate
submissions are guaranteed and the single-flight/cache machinery is
actually exercised.

The aggregate report splits into two parts:

- the **report document** (written as ``SWARM_<seed>.json``): request
  mix, unique keys, executions (measured as the server's
  ``service.executions`` counter delta), and outcome counts.  This is
  deterministic given the swarm seed and the server configuration —
  against a cold cache, ``executions == unique_keys`` exactly, and two
  swarms with the same seed against two cold servers produce
  byte-identical reports.
- the **timing summary** (returned separately, printed to stderr):
  ServiceBusy rejections/retries and queue-wait/run-time percentiles.
  These are honest host measurements and intentionally kept out of the
  deterministic document.

Clients retry typed :class:`~repro.service.protocol.ServiceBusy`
rejections with linear backoff — rejection is load shedding, not
failure, so a swarm against a tiny queue still completes; it just
records how often it was pushed back.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Tuple

from repro.service.client import ServiceClient
from repro.service.metrics import histogram_percentile
from repro.service.protocol import ServiceBusy

#: the sampled configuration pool: tiny kernels only (a swarm is a
#: load test of the *service*, not of the simulator)
SWARM_KERNELS = ("pingpong", "ring")
SWARM_CONNECTIONS = ("ondemand", "static-p2p")
SWARM_SEEDS = (0, 1, 2)

#: ServiceBusy retry budget per request (linear backoff below)
MAX_BUSY_RETRIES = 400
BUSY_BACKOFF_S = 0.02


def swarm_request(rng: random.Random) -> Dict[str, Any]:
    """Draw one request from the pool (uniform with replacement)."""
    return {
        "type": "kernel",
        "kernel": rng.choice(SWARM_KERNELS),
        "nprocs": 2,
        "nodes": 2,
        "ppn": 1,
        "connection": rng.choice(SWARM_CONNECTIONS),
        "seed": rng.choice(SWARM_SEEDS),
    }


def swarm_plan(seed: int, clients: int,
               requests_per_client: int) -> List[List[Dict[str, Any]]]:
    """The full per-client request plan — pure function of the seed."""
    return [
        [swarm_request(random.Random(f"{seed}:{i}"))
         for _ in range(requests_per_client)]
        for i in range(clients)
    ]


def _client_worker(
    client: ServiceClient, requests: List[Dict[str, Any]], timeout_s: float
) -> List[Dict[str, Any]]:
    """One swarm client, on its own thread (so on its own connection of
    the shared ``client``): submit each request (retrying ServiceBusy),
    wait for completion, record the outcome."""
    outcomes = []
    for request in requests:
        retries = 0
        while True:
            try:
                resp = client.submit(request)
                break
            except ServiceBusy:
                retries += 1
                if retries > MAX_BUSY_RETRIES:
                    outcomes.append({
                        "state": "rejected", "retries": retries,
                        "request": request,
                    })
                    resp = None
                    break
                time.sleep(BUSY_BACKOFF_S * min(retries, 10))
        if resp is None:
            continue
        final = client.wait(resp["id"], timeout_s=timeout_s)
        outcomes.append({
            "state": final["state"], "retries": retries,
            "id": resp["id"], "request": request,
        })
    return outcomes


def run_swarm(
    socket_path: str,
    seed: int = 0,
    clients: int = 20,
    requests_per_client: int = 3,
    timeout_s: float = 300.0,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run the swarm; returns ``(report, timing)``.

    ``report`` is the deterministic document (see module docstring);
    ``timing`` carries the host-time measurements.
    """
    with ServiceClient(socket_path, timeout_s=timeout_s) as client:
        client.ping()
        before = client.metrics()["counters"]

        plan = swarm_plan(seed, clients, requests_per_client)
        with ThreadPoolExecutor(max_workers=clients) as pool:
            per_client = list(pool.map(
                lambda reqs: _client_worker(client, reqs, timeout_s),
                plan,
            ))

        after_full = client.metrics()
    after = after_full["counters"]
    outcomes = [o for client_out in per_client for o in client_out]

    # the request mix and key set are pure functions of the seed; keys
    # come back from the server but are content-addressed, so they are
    # deterministic too
    mix: Dict[str, int] = {}
    for client_plan in plan:
        for request in client_plan:
            label = (f"{request['kernel']}/np={request['nprocs']}"
                     f"/{request['connection']}/seed={request['seed']}")
            mix[label] = mix.get(label, 0) + 1
    unique_keys = sorted({o["id"] for o in outcomes if "id" in o})
    states: Dict[str, int] = {}
    for o in outcomes:
        states[o["state"]] = states.get(o["state"], 0) + 1
    requests_total = clients * requests_per_client
    executions = after["service.executions"] - before["service.executions"]

    report = {
        "swarm_schema": 1,
        "seed": seed,
        "clients": clients,
        "requests_per_client": requests_per_client,
        "requests": requests_total,
        "mix": dict(sorted(mix.items())),
        "unique_keys": len(unique_keys),
        "keys": unique_keys,
        "executions": executions,
        "states": dict(sorted(states.items())),
        # duplicates never execute: served by single-flight join or cache
        "dedup_or_cache_served": requests_total - executions,
    }

    hists = after_full["histograms"]
    wait = hists.get("service.queue_wait_ms", {"edges": [], "counts": []})
    run = hists.get("service.run_ms", {"edges": [], "counts": []})
    timing = {
        "busy_rejections": (after["service.rejected_busy"]
                            - before["service.rejected_busy"]),
        "retries": sum(o.get("retries", 0) for o in outcomes),
        "queue_wait_ms_p50": histogram_percentile(
            wait["edges"], wait["counts"], 0.50),
        "queue_wait_ms_p99": histogram_percentile(
            wait["edges"], wait["counts"], 0.99),
        "run_ms_p50": histogram_percentile(run["edges"], run["counts"], 0.50),
        "run_ms_p99": histogram_percentile(run["edges"], run["counts"], 0.99),
    }
    return report, timing


def render_timing(timing: Dict[str, Any]) -> str:
    """One human line for the nondeterministic half of the story."""
    return (
        f"[swarm timing: {timing['busy_rejections']} busy rejections, "
        f"{timing['retries']} retries, queue wait p50/p99 = "
        f"{timing['queue_wait_ms_p50']:.0f}/"
        f"{timing['queue_wait_ms_p99']:.0f} ms, run p50/p99 = "
        f"{timing['run_ms_p50']:.0f}/{timing['run_ms_p99']:.0f} ms]"
    )
