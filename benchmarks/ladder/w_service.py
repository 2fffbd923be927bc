"""``service_mix`` — the job service, its cache and its protocol.

A ``python -m repro.service serve --workers 1`` subprocess with a fresh
cache directory, and one load generator, closed loop.  Four ops per
cycle, each a few requests and 5 to 40 ms:

* *cold*: three unique ``ring`` np=4 keys, one after another, each
  executed by the worker;
* *cached*: twenty re-submissions of keys the cold ops left in the
  cache, one after another, served without execution;
* *joined*: two concurrent submissions (two client threads) of one
  fresh ``alltoall`` np=8 key — the later one joins the running job;
* *probe*: pings, and the result-cache and fingerprint calls the server
  makes, called directly.

Completion is observed through ``ServiceClient.subscribe``, never
through ``wait()``: ``wait()`` sleeps 50 ms between polls, so timing it
measures the client's sleep, not the service.  The simulator is
deliberately tiny here: a simulator speed-up should not move this
workload and a protocol or cache change should.

Server, pool worker and client are three processes on two cores, and
the probe (``harness.probe``) sees only the client's: this workload's
times are the least steady of the eight.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.bench.cache import ResultCache, config_fingerprint
from repro.bench.runner import cell_params, compute_cell
from repro.service import ServiceClient, ServiceError
from repro.service.jobs import kernel_request_cell
from repro.service.metrics import histogram_percentile

from .harness import Op, Outcome, Sample, Workload, check, clock, digest, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
#: requests per op; artifacts checked against ``compute_cell`` per run
SIZES = {"cold": 3, "cached": 20, "joined": 1, "probes": 10, "verify": 8}
JOINED_NPROCS = 8
#: cold keys kept for the cached op to re-submit
KNOWN_KEYS = 64
#: host-time fields of a cell result; everything else is simulated and exact
HOST_FIELDS = ("wall_s", "events_per_sec")
READY_TIMEOUT_S = 60.0
PHASES = ("cold", "cached", "joined")


def ring_request(seed: int) -> Dict[str, Any]:
    return {"type": "kernel", "kernel": "ring", "nprocs": 4, "nodes": 4, "ppn": 1,
            "connection": "ondemand", "seed": seed}


def alltoall_request(seed: int, nprocs: int) -> Dict[str, Any]:
    return {"type": "kernel", "kernel": "alltoall", "nprocs": nprocs, "nodes": nprocs // 2,
            "ppn": 2, "connection": "ondemand", "seed": seed}


def simulated(result: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in result.items() if k not in HOST_FIELDS}


class ServiceMix(Workload):
    name = "service_mix"
    rate_ops = ("cold", "joined")

    def __init__(self, seed, scale, spans):
        super().__init__(seed, scale, spans)
        self.sizes = SIZES
        self.joined_nprocs = JOINED_NPROCS
        self.rng = random.Random(seed)
        #: the request plan: which simulation seeds the keys carry, and
        #: in which order they are submitted and re-submitted
        self.key_base = self.rng.randrange(1, 1 << 20) << 10
        self.cycle = -1
        self.cold_artifacts: Dict[int, Tuple[str, str]] = {}
        self.first_cycle: List[Tuple[Dict[str, Any], str]] = []
        self.server = None
        self.pool = None
        # per-run socket and cache directories live under the benchmark's
        # own directory, named relative to the cwd: a unix socket path
        # must stay under ~100 bytes however deep the checkout is
        self.tmp_root = os.path.relpath(HERE / ".tmp")
        os.makedirs(self.tmp_root, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="svc-", dir=self.tmp_root)
        try:
            self._start_server()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------ server --

    def _start_server(self) -> None:
        sock = os.path.join(self.tmp, "s.sock")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve", "--socket", sock,
             "--workers", "1", "--cache-dir", os.path.join(self.tmp, "cache")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.client = ServiceClient(sock, timeout_s=60.0)
        self.pool = ThreadPoolExecutor(max_workers=2)
        deadline = clock() + READY_TIMEOUT_S
        while True:
            try:
                self.client.ping()
                return
            except (OSError, ServiceError):
                if self.server.poll() is not None or clock() > deadline:
                    raise RuntimeError("repro.service did not come up")
                time.sleep(0.002)

    def close(self) -> None:
        """Graceful shutdown, then kill on timeout; temp dirs removed."""
        if self.pool is not None:
            self.pool.shutdown(wait=True)
        if self.server is not None:
            if self.server.poll() is None:
                try:
                    self.client.shutdown()
                    self.server.wait(timeout=10.0)
                except (OSError, ServiceError, subprocess.TimeoutExpired):
                    self.server.kill()
            self.server.wait()
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(self.tmp_root)
        except OSError:
            pass  # another run still has its directory there

    def peak_rss_extra_mb(self) -> float:
        """Peak RSS (VmHWM) of the server plus its pool worker, MiB."""
        total_kib = 0
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/status") as fh:
                    status = fh.read()
            except OSError:
                continue  # the process ended while we were looking
            if int(entry) == self.server.pid or f"\nPPid:\t{self.server.pid}\n" in status:
                total_kib += int(status.split("VmHWM:")[1].split()[0])
        return total_kib / 1024.0

    # ---------------------------------------------------------- requests --

    def _complete(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One closed-loop request: submit, watch to the terminal event
        through ``subscribe``, fetch.  Returns timings and the artifact."""
        client = self.client
        t0 = clock()
        resp = client.submit(request)
        t1 = clock()
        state = resp["state"]
        if state not in ("done", "failed"):
            for event in client.subscribe(resp["id"]):
                state = event.get("state", state)
        t2 = clock()
        artifact = client.fetch(resp["id"])
        t3 = clock()
        self.spans.add("service.submit", t0, t1)
        self.spans.add("service.fetch", t2, t3)
        return {"id": resp["id"], "submit_state": resp["state"], "state": state,
                "artifact": artifact, "terminal_s": t2 - t0, "fetched_s": t3 - t0}

    def _served(self, seed: int) -> Any:
        """One ring request to completion; a request that raises is a
        failed operation, returned as its exception."""
        try:
            return self._complete(ring_request(seed))
        except (OSError, ServiceError, KeyError, ValueError) as exc:
            return exc

    def warm_up(self) -> None:
        """One request of each kind: starts the pool worker and imports
        both kernels in it."""
        self._complete(ring_request(self.key_base - 1))
        self._complete(alltoall_request(self.key_base - 1, self.joined_nprocs))

    # --------------------------------------------------------------- ops --

    def ops(self) -> List[Op]:
        return [
            Op("cold", self.cold, repeatable=False),
            Op("cached", self.cached, repeatable=False),
            Op("joined", self.joined, repeatable=False),
            Op("probe", self.probe),
        ]

    def cold(self) -> Outcome:
        self.cycle += 1
        n = self.sizes["cold"]
        seeds = [self.key_base + self.cycle * n + i for i in range(n)]
        self.rng.shuffle(seeds)
        before = self.client.metrics()
        done = [(seed, self._served(seed)) for seed in seeds]
        after = self.client.metrics()
        # the plan itself is part of the digest: same seed, same plan
        out = Outcome(attempted=n, sim={"plan": digest(seeds)})
        latencies, events = [], 0
        for seed, res in done:
            if isinstance(res, Exception) or res["state"] != "done":
                out.misses.append(f"service: cold request failed: {res!r:.80}")
                continue
            doc = json.loads(res["artifact"])
            if doc["key"] != res["id"]:
                out.misses.append("service: cold artifact carries the wrong key")
                continue
            self.cold_artifacts[seed] = (res["id"], res["artifact"])
            latencies.append(res["terminal_s"])
            events += doc["result"]["events"]
            if self.cycle == 0:
                self.first_cycle.append((ring_request(seed), res["artifact"]))
        for stale in list(self.cold_artifacts)[:-KNOWN_KEYS]:
            del self.cold_artifacts[stale]
        out.events = events
        out.host["latency_s"] = latencies
        self._server_deltas(out, before, after)
        check(out, out.counts["service.executions"] == n,
              "service: cold executions != unique keys")
        return out

    def cached(self) -> Outcome:
        seeds = sorted(self.cold_artifacts)
        n = self.sizes["cached"]
        plan = [self.rng.choice(seeds) for _ in range(n)] if seeds else []
        before = self.client.metrics()
        started = clock()
        done = [(seed, self._served(seed)) for seed in plan]
        elapsed = clock() - started
        after = self.client.metrics()
        out = Outcome(attempted=n)
        latencies = []
        for seed, res in done:
            if isinstance(res, Exception) or res["submit_state"] != "done":
                out.misses.append(f"service: cached request not served from cache: {res!r:.80}")
            elif res["artifact"] != self.cold_artifacts[seed][1]:
                out.misses.append("service: cached artifact differs from the cold one")
            else:
                latencies.append(res["fetched_s"])
        for _ in range(n - len(done)):
            out.misses.append("service: cached phase had no keys to re-submit")
        out.host["latency_s"] = latencies
        out.host["req_per_s"] = len(latencies) / elapsed
        self._server_deltas(out, before, after)
        check(out, out.counts["service.executions"] == 0 and
              out.counts["service.cache_hits"] == n,
              "service: cached phase executed or missed")
        return out

    def joined(self) -> Outcome:
        rounds = self.sizes["joined"]
        before = self.client.metrics()
        out = Outcome(attempted=2 * rounds)
        latencies, events = [], 0
        for r in range(rounds):
            request = alltoall_request(self.key_base + self.cycle * rounds + r,
                                       self.joined_nprocs)
            first_in = threading.Event()

            def leader():
                try:
                    resp = self.client.submit(request)
                finally:
                    first_in.set()
                for _event in self.client.subscribe(resp["id"]):
                    pass
                return resp["id"]

            def follower():
                first_in.wait(timeout=60.0)
                return self._complete(request)

            lead = self.pool.submit(leader)
            follow = self.pool.submit(follower)
            try:
                job_id = lead.result()
                res = follow.result()
            except (OSError, ServiceError, KeyError, ValueError) as exc:
                first_in.set()
                out.misses.append(f"service: joined round failed: {exc!r:.80}")
                continue
            if res["id"] != job_id or res["state"] != "done" or res["submit_state"] == "done":
                out.misses.append("service: duplicate did not join the running job")
                continue
            latencies.append(res["terminal_s"])
            events += json.loads(res["artifact"])["result"]["events"]
            if self.cycle == 0:
                self.first_cycle.append((request, res["artifact"]))
        after = self.client.metrics()
        out.events = events
        out.host["latency_s"] = latencies
        self._server_deltas(out, before, after)
        check(out, out.counts["service.dedup_joined"] == rounds and
              out.counts["service.executions"] == rounds,
              "service: joined phase dedup_joined/executions != rounds")
        return out

    def probe(self) -> Outcome:
        """The floors under the phases: a ping (protocol round trip),
        and the result cache and fingerprint calls the server makes."""
        n = self.sizes["probes"]
        for _ in range(n):
            with self.spans.span("service.ping"):
                self.client.ping()
        cache = ResultCache(os.path.join(self.tmp, "probe-cache"))
        result = {"events": 1234, "sim_time_us": 5678.9, "total_connections": 8}
        keys = []
        for i in range(n):
            with self.spans.span("bench.fingerprint"):
                keys.append(config_fingerprint({"probe": i}, seed=self.seed))
        for key in keys:
            with self.spans.span("bench.cache_put"):
                cache.put(key, result)
        hits = 0
        for key in keys:
            with self.spans.span("bench.cache_get"):
                hits += cache.get(key) == result
        out = Outcome(sim={"keys": keys[:2]})
        check(out, hits == n and len(set(keys)) == n, "bench: cache probe lost an entry")
        return out

    def _server_deltas(self, out: Outcome, before, after) -> None:
        for name in ("executions", "cache_hits", "dedup_joined", "rejected_busy", "submits"):
            key = f"service.{name}"
            out.counts[key] = after["counters"][key] - before["counters"][key]
        for name in ("queue_wait_ms", "run_ms"):
            b = before["histograms"][f"service.{name}"]
            a = after["histograms"][f"service.{name}"]
            out.host[name] = (a["edges"], [x - y for x, y in zip(a["counts"], b["counts"])])

    # --------------------------------------------------------- reductions --

    def cycle_checks(self, samples):
        """Artifacts against ``compute_cell`` run directly for the same
        key (simulated fields; host wall time differs by nature): a
        seeded sample of the first cycle's cold keys and joined keys."""
        picked = self.rng.sample(self.first_cycle,
                                 min(self.sizes["verify"], len(self.first_cycle)))
        misses = []
        for request, artifact in picked:
            with self.spans.span("bench.compute_cell"):
                key, result = compute_cell(cell_params(kernel_request_cell(request)))
            doc = json.loads(artifact)
            if doc["key"] != key or simulated(doc["result"]) != simulated(result):
                misses.append(f"service: artifact differs from direct compute_cell "
                              f"({request['kernel']} seed {request['seed']})")
        if not picked:
            misses.append("service: no artifact to verify")
        return max(1, len(picked)), misses

    def _latencies(self, samples, phase: str) -> List[float]:
        return [x for s in samples[phase] for x in s.outcome.host.get("latency_s", [])]

    def extras(self, samples):
        ms = {phase: [1e3 * x for x in self._latencies(samples, phase)] for phase in PHASES}
        return {
            "cold_p50_ms": (statistics.median(ms["cold"]), "ms"),
            "cached_p50_ms": (statistics.median(ms["cached"]), "ms"),
            "joined_p50_ms": (statistics.median(ms["joined"]), "ms"),
            "req_per_s": (max(s.outcome.host["req_per_s"] for s in samples["cached"]), "1/s"),
        }

    def layer_metrics(self, samples: Dict[str, List[Sample]]) -> Dict[str, float]:
        span_median = self.spans.median

        def server_p50(name: str) -> float:
            edges, counts = samples["cold"][0].outcome.host[name]
            for s in samples["cold"][1:]:
                counts = [a + b for a, b in zip(counts, s.outcome.host[name][1])]
            return histogram_percentile(edges, counts, 0.5)

        counts = {
            key: sum(samples[p][0].outcome.counts[key] for p in PHASES)
            for key in ("service.cache_hits", "service.submits")
        }
        return {
            "service.cold_p95_ms": 1e3 * percentile(self._latencies(samples, "cold"), 95),
            "service.cached_p99_ms": 1e3 * percentile(self._latencies(samples, "cached"), 99),
            "service.ping_ms": span_median("service.ping", 1e3),
            "service.submit_ms": span_median("service.submit", 1e3),
            "service.fetch_ms": span_median("service.fetch", 1e3),
            "service.queue_wait_ms_p50": server_p50("queue_wait_ms"),
            "service.run_ms_p50": server_p50("run_ms"),
            "service.cache_hit_ratio": counts["service.cache_hits"] / counts["service.submits"],
            "bench.cache_get_us": span_median("bench.cache_get", 1e6),
            "bench.cache_put_us": span_median("bench.cache_put", 1e6),
            "bench.fingerprint_us": span_median("bench.fingerprint", 1e6),
            "bench.compute_cell_s": span_median("bench.compute_cell", 1.0),
        }
