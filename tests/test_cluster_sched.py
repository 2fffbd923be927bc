"""Multi-job cluster scheduler: determinism, admission, contention.

The acceptance bar for the subsystem: under a per-NIC VI quota below
N-1, on-demand jobs co-schedule where static jobs must serialize —
strictly lower makespan (and higher peak concurrency) on the identical
arrival trace, with no NIC ever past its quota.
"""

from collections import deque

import pytest

from repro.analysis.lint import lint_source
from repro.bench.cache import canonical_json
from repro.cluster import (
    ClusterSpec,
    JobSpec,
    SchedulerError,
    WorkloadSpec,
    run_cluster,
    run_cluster_cell,
    with_connection,
)
from repro.cluster import build as build_module
from repro.cluster.sched import ClusterScheduler
from repro.sim import Signal
from repro.telemetry import TelemetryConfig
from repro.via.agent import ConnectionAgent
from repro.via.constants import ViaProtocolError
from repro.via.messages import DisconnectReply
from repro.via.provider import ViaProvider

from tests.counting import record_instances


def ring_jobs(n, nprocs=4, connection="ondemand", gap_us=100.0,
              est_us=30_000.0):
    return [
        JobSpec(job_id=i, arrival_us=gap_us * i, kernel="ring",
                nprocs=nprocs, connection=connection, est_runtime_us=est_us)
        for i in range(n)
    ]


class TestWorkloadGeneration:
    def test_same_seed_same_trace(self):
        a = WorkloadSpec(njobs=6, seed=11).generate()
        b = WorkloadSpec(njobs=6, seed=11).generate()
        assert a == b

    def test_different_seed_different_trace(self):
        a = WorkloadSpec(njobs=6, seed=11).generate()
        b = WorkloadSpec(njobs=6, seed=12).generate()
        assert a != b

    def test_arrivals_monotonic(self):
        jobs = WorkloadSpec(njobs=10, seed=3).generate()
        arrivals = [j.arrival_us for j in jobs]
        assert arrivals == sorted(arrivals)
        assert all(t >= 0 for t in arrivals)

    def test_with_connection_keeps_trace(self):
        base = WorkloadSpec(njobs=5, seed=4).generate()
        forced = with_connection(base, "static-p2p")
        assert [j.arrival_us for j in forced] == [j.arrival_us for j in base]
        assert [j.kernel for j in forced] == [j.kernel for j in base]
        assert all(j.connection == "static-p2p" for j in forced)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown cluster kernel"):
            JobSpec(job_id=0, arrival_us=0.0, kernel="mystery", nprocs=4)
        with pytest.raises(ValueError, match="processes"):
            JobSpec(job_id=0, arrival_us=0.0, kernel="ring", nprocs=1)
        with pytest.raises(ValueError, match="njobs"):
            WorkloadSpec(njobs=0)

    def test_static_demand_exceeds_ondemand(self):
        od = JobSpec(job_id=0, arrival_us=0.0, kernel="ring", nprocs=8,
                     connection="ondemand")
        st = JobSpec(job_id=1, arrival_us=0.0, kernel="ring", nprocs=8,
                     connection="static-p2p")
        assert od.vi_reserve_per_proc == 2  # ring talks to two neighbours
        assert st.vi_reserve_per_proc == 7  # MPI_Init connects all peers


class TestDeterminism:
    def test_report_json_byte_identical(self):
        spec = ClusterSpec(nodes=4, ppn=2, seed=5, vi_quota=4)
        jobs = with_connection(
            WorkloadSpec(njobs=5, mean_interarrival_us=2000.0,
                         kernels=("ring", "allreduce"),
                         nprocs_choices=(2, 4), seed=5).generate(),
            "ondemand")
        a = run_cluster(spec, jobs, policy="fcfs", placement="spread")
        b = run_cluster(spec, jobs, policy="fcfs", placement="spread")
        assert canonical_json(a.report().to_dict()) == \
            canonical_json(b.report().to_dict())

    def test_cell_worker_reproducible(self):
        kwargs = dict(nodes=4, ppn=2, profile="clan", vi_quota=4,
                      policy="easy", placement="spread",
                      connection="ondemand", njobs=4,
                      mean_interarrival_us=1500.0, kernels=("ring",),
                      nprocs_choices=(4,), seed=9)
        assert canonical_json(run_cluster_cell(**kwargs)) == \
            canonical_json(run_cluster_cell(**kwargs))


class TestAdmissionControl:
    def test_quota_delays_static_job(self):
        # 4 nodes x 2 slots, quota 4 VIs/NIC.  Two 4-proc jobs spread
        # one proc per node: static reserves 3 VIs/proc (3+3 > 4, the
        # second must wait); on-demand ring reserves 2 (2+2 <= 4, both
        # run at once).
        spec = ClusterSpec(nodes=4, ppn=2, seed=0, vi_quota=4)
        static = run_cluster(spec, ring_jobs(2, connection="static-p2p"),
                             placement="spread")
        ondemand = run_cluster(spec, ring_jobs(2, connection="ondemand"),
                               placement="spread")
        assert static.records[1].wait_us > 0.0
        assert ondemand.records[1].wait_us == 0.0
        assert static.peak_concurrent_jobs == 1
        assert ondemand.peak_concurrent_jobs == 2

    def test_infeasible_job_rejected_up_front(self):
        spec = ClusterSpec(nodes=4, ppn=2, seed=0, vi_quota=2)
        with pytest.raises(SchedulerError, match="cannot fit"):
            run_cluster(spec, ring_jobs(1, connection="static-p2p"),
                        placement="spread")

    def test_high_water_never_exceeds_quota(self):
        spec = ClusterSpec(nodes=4, ppn=2, seed=2, vi_quota=4)
        for conn in ("ondemand", "static-p2p"):
            res = run_cluster(spec, ring_jobs(3, connection=conn),
                              placement="spread")
            assert all(hw <= 4 for hw in res.nic_vi_high_water.values()), conn

    def test_nic_enforces_quota_as_backstop(self):
        from repro.cluster.build import build_cluster
        from repro.sim.engine import Engine

        spec = ClusterSpec(nodes=1, ppn=1, vi_quota=1)
        stack = build_cluster(Engine(), spec)
        nic = stack.nics[0]
        assert nic.vi_quota == 1

        class FakeVi:
            vi_id = 0
            state = None
            nic = None

        nic.attach_vi(FakeVi(), owner=None)
        second = FakeVi()
        second.vi_id = 1
        with pytest.raises(ViaProtocolError, match="quota"):
            nic.attach_vi(second, owner=None)


class TestContentionAcceptance:
    def test_ondemand_beats_static_under_quota(self):
        # the ISSUE acceptance criterion, verbatim: quota below N-1,
        # identical arrival trace, strictly lower makespan (and higher
        # peak concurrency) for on-demand, high-water within quota
        spec = ClusterSpec(nodes=4, ppn=2, seed=0, vi_quota=4)
        trace = ring_jobs(3)  # nprocs=4 -> static needs N-1 = 3 > cap
        static = run_cluster(
            spec, with_connection(trace, "static-p2p"), placement="spread")
        ondemand = run_cluster(
            spec, with_connection(trace, "ondemand"), placement="spread")
        assert ondemand.makespan_us < static.makespan_us
        assert ondemand.peak_concurrent_jobs > static.peak_concurrent_jobs
        for res in (static, ondemand):
            assert all(hw <= 4 for hw in res.nic_vi_high_water.values())


class TestPolicies:
    def _backfill_scenario(self, policy):
        # j0 holds half the cluster with a huge runtime estimate; j1
        # (the head) needs everything and must wait for j0; j2 is small
        # and short -- EASY may slot it into the idle half, FCFS may not
        jobs = [
            JobSpec(job_id=0, arrival_us=0.0, kernel="ring", nprocs=4,
                    connection="ondemand", est_runtime_us=1e6),
            JobSpec(job_id=1, arrival_us=10.0, kernel="ring", nprocs=8,
                    connection="ondemand", est_runtime_us=50_000.0),
            JobSpec(job_id=2, arrival_us=20.0, kernel="ring", nprocs=4,
                    connection="ondemand", est_runtime_us=10_000.0),
        ]
        spec = ClusterSpec(nodes=4, ppn=2, seed=0)
        return run_cluster(spec, jobs, policy=policy, placement="packed")

    def test_easy_backfills_fcfs_does_not(self):
        fcfs = self._backfill_scenario("fcfs")
        easy = self._backfill_scenario("easy")
        # FCFS: j2 is stuck behind the blocked head
        assert fcfs.records[2].start_us > fcfs.records[1].start_us - 1e-9
        # EASY: j2 starts immediately in the idle half of the cluster
        # and completes entirely inside the head's wait window (the
        # reservation guarantee is w.r.t. estimates; shared-fabric
        # contention may still perturb actual finishes slightly)
        assert easy.records[2].start_us == easy.records[2].arrival_us
        assert easy.records[2].start_us < easy.records[1].start_us
        assert easy.records[2].finish_us <= easy.records[1].start_us
        assert easy.records[2].finish_us < fcfs.records[2].finish_us

    def test_unknown_policy_and_placement(self):
        spec = ClusterSpec(nodes=2, ppn=2)
        with pytest.raises(ValueError, match="policy"):
            run_cluster(spec, ring_jobs(1, nprocs=2), policy="sjf")
        with pytest.raises(ValueError, match="placement"):
            run_cluster(spec, ring_jobs(1, nprocs=2), placement="random")
        with pytest.raises(ValueError, match="unique"):
            run_cluster(spec, ring_jobs(1, nprocs=2) * 2)


class TestPlacementShapes:
    def test_packed_minimizes_nodes(self):
        spec = ClusterSpec(nodes=4, ppn=4, seed=0)
        res = run_cluster(spec, ring_jobs(1, nprocs=4), placement="packed")
        assert len(set(res.records[0].nodes)) == 1

    def test_spread_maximizes_nodes(self):
        spec = ClusterSpec(nodes=4, ppn=4, seed=0)
        res = run_cluster(spec, ring_jobs(1, nprocs=4), placement="spread")
        assert len(set(res.records[0].nodes)) == 4


class TestCoResidency:
    def test_static_cs_jobs_share_nodes(self):
        # two client/server jobs with overlapping ranks on the same
        # nodes: listen queues and disconnects must route by job id
        jobs = [
            JobSpec(job_id=i, arrival_us=0.0, kernel="pingpong", nprocs=2,
                    connection="static-cs", est_runtime_us=20_000.0)
            for i in range(2)
        ]
        spec = ClusterSpec(nodes=2, ppn=2, seed=0)
        res = run_cluster(spec, jobs, placement="spread")
        assert res.peak_concurrent_jobs == 2
        assert all(r.finish_us > r.start_us >= 0.0 for r in res.records)

    def test_mixed_mechanisms_concurrently(self):
        jobs = [
            JobSpec(job_id=0, arrival_us=0.0, kernel="ring", nprocs=4,
                    connection="ondemand", est_runtime_us=30_000.0),
            JobSpec(job_id=1, arrival_us=50.0, kernel="allreduce", nprocs=4,
                    connection="static-p2p", est_runtime_us=30_000.0),
        ]
        spec = ClusterSpec(nodes=4, ppn=2, seed=1)
        res = run_cluster(spec, jobs, placement="spread")
        assert res.peak_concurrent_jobs == 2
        assert len(res.records) == 2


class TestReporting:
    def _result(self, telemetry=None):
        spec = ClusterSpec(nodes=4, ppn=2, seed=0, vi_quota=4)
        return run_cluster(spec, ring_jobs(2), placement="spread",
                           telemetry=telemetry)

    def test_report_fields(self):
        rep = self._result().report()
        doc = rep.to_dict()
        assert doc["schema"] == 1
        assert len(doc["jobs"]) == 2
        assert doc["makespan_us"] > 0
        assert set(doc["nic_vi_high_water"]) == {"0", "1", "2", "3"}
        for job in doc["jobs"]:
            assert job["turnaround_us"] >= job["wait_us"] >= 0.0
            assert job["finish_us"] > job["start_us"]

    def test_utilization_bounded(self):
        res = self._result()
        assert all(0.0 <= u <= 1.0 for u in res.node_utilization.values())
        assert any(u > 0.0 for u in res.node_utilization.values())

    def test_telemetry_one_track_per_job(self):
        res = self._result(telemetry=TelemetryConfig())
        tel = res.telemetry
        assert tel is not None
        for jid in (0, 1):
            names = {i.name for i in tel.instants if i.track == ("job", jid)}
            assert {"job.arrive", "job.start", "job.finish"} <= names
        # cluster runs emit the same NIC gauge names as single-job runs
        assert tel.metrics.gauge("nic.n0.vi_high_water").value <= 4
        assert tel.metrics.gauge("sched.makespan_us").value > 0


class TestLintCoverage:
    def test_repro002_catches_unseeded_arrivals(self):
        # the satellite requirement: an unseeded arrival sampler in the
        # scheduler package must trip the seeded-RNG rule
        source = (
            "import numpy as np\n"
            "def arrivals(n, mean):\n"
            "    rng = np.random.default_rng()\n"
            "    return rng.exponential(mean, n)\n"
        )
        violations, _, _ = lint_source(
            source, path="src/repro/cluster/workload.py",
            rel_posix="src/repro/cluster/workload.py")
        assert any(v.rule_id == "REPRO002" for v in violations)

    def test_shipped_scheduler_package_is_clean(self):
        from repro.analysis.lint import lint_paths

        report = lint_paths(["src/repro/cluster"])
        assert report.violations == []


def test_agents_hold_only_live_jobs(monkeypatch):
    """Fifty jobs through one scheduler: each node's agent holds the
    providers, grants, client/server queues and signals of live jobs
    only, and a disconnect that reaches a torn-down job is counted and
    dropped."""
    agents = record_instances(monkeypatch, build_module, ConnectionAgent)
    finish = ClusterScheduler._finish
    strays = []

    def held_jobs(agent):
        return ({job for job, _rank in agent._providers}
                | {disc[0] for disc, _rank in agent._grants_sent}
                | {job for job, _rank in agent._cs_queues})

    def held_signals(agent):
        """Every signal the agent's own tables reach, a provider's by its
        activity signal."""
        found, todo = [], [value for name, value in vars(agent).items()
                           if name not in ("engine", "nic")]
        while todo:
            item = todo.pop()
            if isinstance(item, ViaProvider):
                found.append(item.activity)
            elif isinstance(item, Signal):
                found.append(item)
            elif isinstance(item, dict):
                todo.extend(item.values())
            elif isinstance(item, (list, tuple, set, deque)):
                todo.extend(item)
        return found

    def checked(self, running):
        finish(self, running)
        for agent in agents:
            strays.extend(held_jobs(agent) - set(self._running))
            live = {provider.activity for provider in agent._providers.values()}
            strays.extend(signal.name for signal in held_signals(agent)
                          if signal not in live)

    monkeypatch.setattr(ClusterScheduler, "_finish", checked)
    mechanisms = ("ondemand", "static-p2p", "static-cs")
    jobs = [JobSpec(job_id=i, arrival_us=400.0 * i, kernel="ring", nprocs=4,
                    connection=mechanisms[i % 3]) for i in range(50)]
    result = run_cluster(ClusterSpec(nodes=4, ppn=2, seed=5), jobs)
    assert len(result.records) == 50 and len(agents) == 4
    assert strays == []
    for agent in agents:
        assert held_jobs(agent) == set()
        # no torn-down process's signal stays
        assert held_signals(agent) == []
    late = DisconnectReply((7, 0, 1), src_rank=1, dst_rank=0)
    agents[0].on_control(late)
    agents[0].engine.run()
    assert agents[0].late_disconnects == 1
