"""``mpi_pt2pt`` — ``run_job`` point-to-point on a fully pre-connected cLAN.

Static peer-to-peer setup on 2 (ping-pong) or 4 (neighbour exchange)
ranks keeps the connection managers idle after ``MPI_Init`` (1 and 6
connections), so ``mpi.adi``/``channel``/``matching``/``request``
dominate.  Eager (≤ ``eager_threshold`` = 5000 B) and rendezvous sizes
are separate ops, so a gain in one protocol paid for by the other shows.
Each op is one short job: 100 to 200 messages, 10 to 15 ms.
"""

from __future__ import annotations

import random
from typing import Dict, List

import numpy as np

from repro.cluster import ClusterSpec, run_job
from repro.mpi import MpiConfig

from .harness import Op, Outcome, Sample, Workload, best_wall, check

EAGER_SIZES = (4, 16, 64, 256, 1024, 4096)
RNDV_SIZES = (16 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024)
EXCHANGE_BYTES = 1024
EXCHANGE_WINDOW = 4
EXCHANGE_RANKS = 4
#: round trips per eager size, per rendezvous size, exchange iterations
ITERS = {"eager": 10, "rndv": 3, "exchange": 6}


def pingpong(sizes, payloads, iterations):
    """Rank 0 sends, rank 1 echoes; both check every received byte."""

    def prog(mpi):
        other = 1 - mpi.rank
        intact = True
        for size in sizes:
            data = payloads[size]
            buf = np.empty(size, dtype=np.uint8)
            for _ in range(iterations):
                if mpi.rank == 0:
                    yield from mpi.send(data, other, tag=1)
                    yield from mpi.recv(buf, source=other, tag=2)
                else:
                    yield from mpi.recv(buf, source=other, tag=1)
                    yield from mpi.send(data, other, tag=2)
                intact = intact and np.array_equal(buf, data)
                buf[:1] ^= 0xFF  # a stale buffer cannot pass the next check
        return intact

    return prog


def neighbour_exchange(payloads, iterations):
    """Windowed isend/irecv/waitall with both ring neighbours."""

    def prog(mpi):
        left = (mpi.rank - 1) % mpi.size
        right = (mpi.rank + 1) % mpi.size
        bufs = [np.empty(EXCHANGE_BYTES, dtype=np.uint8)
                for _ in range(2 * EXCHANGE_WINDOW)]
        intact = True
        for _ in range(iterations):
            reqs = []
            for w in range(EXCHANGE_WINDOW):
                reqs.append(mpi.irecv(bufs[2 * w], source=left, tag=10 + w))
                reqs.append(mpi.irecv(bufs[2 * w + 1], source=right, tag=20 + w))
            for w in range(EXCHANGE_WINDOW):
                reqs.append(mpi.isend(payloads[mpi.rank], right, tag=10 + w))
                reqs.append(mpi.isend(payloads[mpi.rank], left, tag=20 + w))
            yield from mpi.waitall(reqs)
            for w in range(EXCHANGE_WINDOW):
                intact = (intact and np.array_equal(bufs[2 * w], payloads[left])
                          and np.array_equal(bufs[2 * w + 1], payloads[right]))
                bufs[2 * w][:1] ^= 0xFF
                bufs[2 * w + 1][:1] ^= 0xFF
        return intact

    return prog


class MpiPt2pt(Workload):
    name = "mpi_pt2pt"

    def __init__(self, seed, scale, spans):
        super().__init__(seed, scale, spans)
        self.iters = ITERS
        rng = random.Random(seed)
        #: the seed fixes the sweep order and the bytes on the wire
        self.eager_sizes = list(EAGER_SIZES)
        self.rndv_sizes = list(RNDV_SIZES)
        rng.shuffle(self.eager_sizes)
        rng.shuffle(self.rndv_sizes)
        noise = np.random.default_rng(seed)
        self.payloads = {
            size: noise.integers(0, 256, size=size, dtype=np.uint8)
            for size in EAGER_SIZES + RNDV_SIZES
        }
        self.rank_payloads = [
            noise.integers(0, 256, size=EXCHANGE_BYTES, dtype=np.uint8)
            for _ in range(EXCHANGE_RANKS)
        ]
        self.config = MpiConfig(connection="static-p2p")

    def ops(self) -> List[Op]:
        return [
            Op("pingpong.eager", lambda: self.pingpong("eager", self.eager_sizes)),
            Op("pingpong.rndv", lambda: self.pingpong("rndv", self.rndv_sizes)),
            Op("exchange4", self.exchange),
        ]

    def warm_up(self) -> None:
        run_job(ClusterSpec(nodes=2, ppn=1, seed=self.seed), 2,
                pingpong((64, RNDV_SIZES[0]), self.payloads, 2), self.config)

    def _job(self, nprocs: int, program, messages: int, what: str) -> Outcome:
        spec = ClusterSpec(nodes=nprocs, ppn=1, seed=self.seed)
        with self.spans.span("cluster.run_job"):
            res = run_job(spec, nprocs, program, self.config)
        out = Outcome(
            events=res.events_processed,
            sim={
                "sim_time_us": res.total_time_us,
                "connections": res.resources.total_connections,
                "vis": res.resources.avg_vis,
            },
            counts={
                "mpi.msgs": messages,
                "mpi.sim_time_us": res.total_time_us,
                "mpi.init_us": res.avg_init_time_us,
                "memory.pinned_peak_bytes": res.resources.total_pinned_peak_bytes,
            },
        )
        check(out, all(res.returns), f"mpi: {what} payloads did not arrive intact")
        check(out, res.dropped_messages == 0, f"mpi: {what} dropped messages")
        return out

    def pingpong(self, kind: str, sizes) -> Outcome:
        iterations = self.iters[kind]
        return self._job(
            2, pingpong(sizes, self.payloads, iterations),
            2 * iterations * len(sizes), f"{kind} ping-pong")

    def exchange(self) -> Outcome:
        iterations = self.iters["exchange"]
        return self._job(
            EXCHANGE_RANKS, neighbour_exchange(self.rank_payloads, iterations),
            EXCHANGE_RANKS * 2 * EXCHANGE_WINDOW * iterations, "neighbour exchange")

    def _rate(self, samples, name: str) -> float:
        taken = samples[name]
        return taken[0].outcome.counts["mpi.msgs"] / best_wall(taken)

    def extras(self, samples):
        return {
            "eager_msgs_per_s": (self._rate(samples, "pingpong.eager"), "1/s"),
            "rndv_msgs_per_s": (self._rate(samples, "pingpong.rndv"), "1/s"),
        }

    def layer_metrics(self, samples: Dict[str, List[Sample]]) -> Dict[str, float]:
        return {
            "mpi.host_us_per_msg_eager": 1e6 / self._rate(samples, "pingpong.eager"),
            "mpi.host_us_per_msg_rndv": 1e6 / self._rate(samples, "pingpong.rndv"),
        }
