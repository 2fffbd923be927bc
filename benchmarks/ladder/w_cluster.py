"""``cluster_mix`` — many short jobs through the cluster scheduler.

``run_cluster`` with a per-NIC VI quota, EASY backfill and spread
placement: a seeded stream of small jobs, once under on-demand and once
under static peer-to-peer setup.  Admission, backfill and per-job stack
build/teardown dominate — set-up-heavy where ``npb_cells`` computes.

When timed, the stream is the five kernels on 4 ranks each, arriving on
4×2 nodes (three jobs ask for more ranks than there are, so one waits),
cut into two ``run_cluster`` calls of three and two jobs — 10 to 20 ms
each.  At the paper's scale it is 240 arrivals of 4 and 8 ranks on 8×2
nodes in one call.

The stream is generated here, not by ``run_cluster_cell``: that draws
the job mix itself from the seed, so the amount of work would change
with the seed (±10 % wall).  Here every (kernel, size) combination
arrives equally often and the seed decides only order and arrival
times — the work is the same at every seed, the schedule is not.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import random

from repro.cluster import ClusterSpec, JobSpec, build_cluster, run_cluster, with_connection
from repro.cluster.build import make_engine
from repro.via import profile_by_name

from .harness import Op, Outcome, Sample, Workload, check, cycle_wall, digest

PPN, PROFILE, VI_QUOTA = 2, "clan", 16
KERNELS = ("ring", "allreduce", "alltoall", "masterworker", "pipeline")
MEAN_INTERARRIVAL_US = 600.0
MECHANISMS = ("ondemand", "static-p2p")
#: timed: nodes, rank counts, jobs per ``run_cluster`` call
NODES, NPROCS, CHUNK = 4, (4,), 3
#: paper scale: nodes, rank counts, arrivals per (kernel, size) combination
PAPER_NODES, PAPER_NPROCS = 8, (4, 8)
PAPER_REPEATS = {"full": 24, "smoke": 1}
BUILDS = 40


def spec_for(nodes: int, seed: int) -> ClusterSpec:
    return ClusterSpec(nodes=nodes, ppn=PPN, profile=profile_by_name(PROFILE),
                       seed=seed, vi_quota=VI_QUOTA)


def arrival_stream(rng: random.Random, nprocs: Sequence[int], repeats: int) -> List[JobSpec]:
    """Every (kernel, size) combination ``repeats`` times, in seeded
    order at seeded (exponential) arrival times."""
    mix = [(k, n) for k in KERNELS for n in nprocs] * repeats
    rng.shuffle(mix)
    jobs, now = [], 0.0
    for job_id, (kernel, ranks) in enumerate(mix):
        now += rng.expovariate(1.0 / MEAN_INTERARRIVAL_US)
        jobs.append(JobSpec(job_id, round(now, 3), kernel, ranks))
    return jobs


class ClusterMix(Workload):
    name = "cluster_mix"

    def __init__(self, seed, scale, spans):
        super().__init__(seed, scale, spans)
        rng = random.Random(seed)
        self.spec = spec_for(NODES, seed)
        jobs = arrival_stream(rng, NPROCS, 1)
        self.chunks = [jobs[i:i + CHUNK] for i in range(0, len(jobs), CHUNK)]
        self.paper_spec = spec_for(PAPER_NODES, seed)
        self.paper_jobs = arrival_stream(rng, PAPER_NPROCS, PAPER_REPEATS[scale])
        self.cell_ops = [f"{conn}.{i}" for conn in MECHANISMS for i in range(len(self.chunks))]
        self.rate_ops = tuple(self.cell_ops)

    def ops(self) -> List[Op]:
        return [Op(f"{conn}.{i}", lambda conn=conn, chunk=chunk: self.cell(self.spec, conn, chunk))
                for conn in MECHANISMS for i, chunk in enumerate(self.chunks)] + [
            Op("build", self.build)]

    def paper_ops(self) -> List[Op]:
        return [Op(f"{conn}.0", lambda conn=conn: self.cell(self.paper_spec, conn, self.paper_jobs))
                for conn in MECHANISMS]

    def warm_up(self) -> None:
        self._report(self.spec, "ondemand", self.chunks[-1])

    def _report(self, spec: ClusterSpec, connection: str, jobs) -> Dict:
        result = run_cluster(spec, with_connection(jobs, connection),
                             policy="easy", placement="spread", engine=make_engine())
        return result.report().to_dict()

    def cell(self, spec: ClusterSpec, connection: str, arrivals: List[JobSpec]) -> Outcome:
        report = self._report(spec, connection, arrivals)
        jobs = report["jobs"]
        completed = sum(1 for job in jobs if job["finish_us"] >= job["start_us"] >= 0)
        out = Outcome(
            events=report["events_processed"],
            sim={
                "makespan_us": report["makespan_us"],
                "connections": sum(job["connections"] for job in jobs),
                "vi_high_water": report["nic_vi_high_water"],
                # the arrival stream itself: what the seed generated
                "arrivals": digest([(j["arrival_us"], j["kernel"], j["nprocs"]) for j in jobs]),
            },
            counts={
                "cluster.jobs_completed": completed,
                "cluster.makespan_us": report["makespan_us"],
                "mpi.conn.connections": sum(job["connections"] for job in jobs),
            },
            attempted=len(arrivals),
        )
        for _ in range(len(arrivals) - completed):
            out.misses.append(f"cluster: a job did not complete under {connection}")
        check(out, max(report["nic_vi_high_water"].values()) <= VI_QUOTA,
              "cluster: VI quota exceeded")
        return out

    def build(self) -> Outcome:
        """The stack every cell builds once: engine, fabric, NICs, agents."""
        nics = 0
        for _ in range(BUILDS):
            with self.spans.span("cluster.build"):
                stack = build_cluster(make_engine(), self.spec)
            nics += len(stack.nics)
        out = Outcome(counts={"cluster.builds": BUILDS})
        check(out, nics == NODES * BUILDS, "cluster: build_cluster lost a NIC")
        return out

    def cycle_checks(self, samples):
        """Per stream: on-demand opens fewer connections than static,
        and both mechanisms faced the same arrivals."""
        misses = []
        streams = sorted({name.split(".")[1] for name in samples if "." in name})
        for i in streams:
            od = samples[f"ondemand.{i}"][0].outcome.sim
            p2p = samples[f"static-p2p.{i}"][0].outcome.sim
            if not od.get("connections", 0) < p2p.get("connections", 0):
                misses.append("cluster: on-demand connections not below static")
            if od.get("arrivals") != p2p.get("arrivals"):
                misses.append("cluster: mechanisms faced different arrival streams")
        return 2 * len(streams), misses

    def paper_checks(self, samples):
        return self.cycle_checks(samples)

    def paper_metrics(self, samples: Dict[str, List[Sample]]) -> Dict[str, float]:
        return {
            "paper.connections_static":
                samples["static-p2p.0"][0].outcome.counts["mpi.conn.connections"],
            "paper.connections_ondemand":
                samples["ondemand.0"][0].outcome.counts["mpi.conn.connections"],
        }

    def layer_metrics(self, samples: Dict[str, List[Sample]]) -> Dict[str, float]:
        jobs = len(MECHANISMS) * sum(len(chunk) for chunk in self.chunks)
        return {"cluster.host_ms_per_job": 1e3 * cycle_wall(samples, self.cell_ops) / jobs}
