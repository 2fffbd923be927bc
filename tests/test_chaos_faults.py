"""Fault-injection tests: jobs survive chaos with correct numerics.

Fast cases run in the default suite; the heavier loss x manager x
workload soaks are opt-in via ``pytest -m chaos``.
"""

import numpy as np
import pytest

from repro.apps.npb import KERNELS
from repro.chaos import FaultPlan, LinkOutage
from repro.cluster import ClusterSpec, run_job
from repro.cluster.job import JobError
from repro.mpi import ConnectionFailed, MpiConfig
from repro.mpi.conn import ConnectionManager
from repro.via.profiles import BERKELEY

from tests.mpi_rig import run

BVIA8 = ClusterSpec(nodes=8, ppn=1, profile=BERKELEY, seed=3)


# ------------------------------------------------------------- rank programs --
def barrier_loop(iters=5):
    def prog(mpi):
        sums = []
        for it in range(iters):
            yield from mpi.barrier()
            out = np.empty(64)
            yield from mpi.allreduce(
                np.full(64, float(mpi.rank + it)), out)
            sums.append(float(out[0]))
        return sums

    return prog


def ring(iters=3, nbytes=2048):
    """Pass a payload around the ring; mixes isend/recv both ways."""

    def prog(mpi):
        n = mpi.size
        right, left = (mpi.rank + 1) % n, (mpi.rank - 1) % n
        acc = 0.0
        for it in range(iters):
            payload = np.full(nbytes // 8, float(mpi.rank * 100 + it))
            req = mpi.isend(payload, right, tag=it)
            buf = np.empty(nbytes // 8)
            yield from mpi.recv(buf, source=left, tag=it)
            yield from mpi.wait(req)
            acc += float(buf[0])
        return acc

    return prog


def allreduce_loop(iters=4):
    def prog(mpi):
        got = []
        for it in range(iters):
            out = np.empty(256)
            yield from mpi.allreduce(
                np.full(256, float(mpi.rank + 1) * (it + 1)), out)
            got.append(float(out[0]))
        return got

    return prog


WORKLOADS = {
    "ring": ring,
    "barrier": barrier_loop,
    "allreduce": allreduce_loop,
}


# ------------------------------------------------------- acceptance criteria --
class TestAcceptance:
    """FaultPlan(loss=0.05) on the Berkeley VIA profile, 8 ranks."""

    def test_barrier_loop_under_loss_ondemand(self):
        cfg = MpiConfig(connection="ondemand")
        clean = run_job(BVIA8, 8, barrier_loop(), cfg)
        res = run_job(BVIA8, 8, barrier_loop(), cfg,
                      fault_plan=FaultPlan(loss=0.05))
        assert res.returns == clean.returns
        # the retries are visible in the metrics report
        assert res.chaos is not None
        assert res.chaos.fabric_dropped > 0
        assert res.chaos.retransmissions > 0
        assert res.chaos.rtx_exhausted == 0
        assert res.finished_at_us > clean.finished_at_us

    def test_cg_under_loss_ondemand(self):
        cfg = MpiConfig(connection="ondemand")
        clean = run_job(BVIA8, 8, KERNELS["cg"]("S"), cfg)
        res = run_job(BVIA8, 8, KERNELS["cg"]("S"), cfg,
                      fault_plan=FaultPlan(loss=0.05))
        assert res.returns[0].verified
        assert (res.returns[0].verification
                == clean.returns[0].verification)
        assert res.chaos.retransmissions > 0


# --------------------------------------------------------------- fault kinds --
class TestFaultKinds:
    def test_duplicate_and_reorder(self):
        plan = FaultPlan(duplicate=0.08, reorder=0.10)
        clean = run(barrier_loop(), nprocs=8)
        res = run(barrier_loop(), nprocs=8, fault_plan=plan)
        assert res.returns == clean.returns
        assert res.chaos.fabric_duplicated > 0
        assert res.chaos.fabric_reordered > 0
        assert res.chaos.rtx_dup_dropped > 0

    def test_latency_spikes_change_timing_not_results(self):
        plan = FaultPlan(spike=0.2, spike_us=300.0)
        clean = run(allreduce_loop(), nprocs=8)
        res = run(allreduce_loop(), nprocs=8, fault_plan=plan)
        assert res.returns == clean.returns
        assert res.chaos.fabric_spiked > 0
        assert res.finished_at_us > clean.finished_at_us

    def test_transient_link_outage_recovers(self):
        plan = FaultPlan(
            link_down=(LinkOutage(node=1, start_us=0.0, end_us=2500.0),))
        clean = run(barrier_loop(), nprocs=8,
                    connect_timeout_us=400.0)
        res = run(barrier_loop(), nprocs=8,
                  connect_timeout_us=400.0, fault_plan=plan)
        assert res.returns == clean.returns
        assert res.chaos.link_down_drops > 0
        # connects into the dead node had to be retried after backoff
        assert res.chaos.connect_retries > 0

    def test_inactive_plan_reports_no_chaos(self):
        res = run(barrier_loop(), nprocs=4, fault_plan=FaultPlan())
        assert res.chaos is None


# ------------------------------------------------------------ failure paths --
class TestConnectionFailed:
    def test_permanent_outage_fails_cleanly(self):
        """Exhausted connect retries surface as a typed error, not a
        hang: the job raises with ConnectionFailed as the cause."""
        plan = FaultPlan(
            link_down=(LinkOutage(node=1, start_us=0.0, end_us=1e12),))
        with pytest.raises(JobError) as exc_info:
            run(barrier_loop(), nprocs=8, connect_timeout_us=200.0,
                connect_retry_limit=2, fault_plan=plan)
        assert isinstance(exc_info.value.__cause__, ConnectionFailed)
        assert "failed after" in str(exc_info.value.__cause__)

    def test_static_p2p_permanent_outage_fails_in_init(self):
        plan = FaultPlan(
            link_down=(LinkOutage(node=2, start_us=0.0, end_us=1e12),))
        with pytest.raises(JobError) as exc_info:
            run(barrier_loop(), nprocs=8, connection="static-p2p",
                connect_timeout_us=200.0, connect_retry_limit=2,
                fault_plan=plan)
        assert isinstance(exc_info.value.__cause__, ConnectionFailed)

    def test_static_cs_requires_protect_control(self):
        with pytest.raises(JobError, match="protect_control"):
            run(barrier_loop(), nprocs=8, connection="static-cs",
                fault_plan=FaultPlan(loss=0.05))

    def test_vi_cache_requires_protect_control(self):
        with pytest.raises(JobError, match="protect_control"):
            run(barrier_loop(), nprocs=8, vi_cache_limit=2,
                fault_plan=FaultPlan(loss=0.05))

    def test_static_cs_with_protected_control(self):
        plan = FaultPlan(loss=0.04, protect_control=True)
        clean = run(barrier_loop(), nprocs=8, connection="static-cs")
        res = run(barrier_loop(), nprocs=8, connection="static-cs",
                  fault_plan=plan)
        assert res.returns == clean.returns


# ------------------------------------------------ retries without a fault plan --
def test_retry_jitter_differs_between_ranks_without_a_fault_plan(monkeypatch):
    """A connect timeout shorter than a handshake forces retries on a
    clean fabric; each rank's backoff jitter comes from its own stream,
    so no two ranks retry in lockstep."""
    windows = {}
    arm = ConnectionManager._arm_connect_deadline

    def recording(self, ch):
        arm(self, ch)
        if ch.connect_attempts == 2:  # the first retry: jittered
            windows.setdefault(self.adi.rank, []).append(
                ch.connect_deadline - self.adi.engine.now)

    monkeypatch.setattr(ConnectionManager, "_arm_connect_deadline", recording)
    clean = run(barrier_loop(), nprocs=4)
    res = run(barrier_loop(), nprocs=4, connect_timeout_us=5.0)
    assert res.returns == clean.returns
    assert res.chaos is None
    firsts = {rank: got[0] for rank, got in windows.items()}
    assert len(firsts) >= 2
    # the same base window (second attempt) everywhere, jittered apart
    assert len(set(firsts.values())) == len(firsts)
    assert all(10.0 <= w < 10.0 * 1.1 for w in firsts.values())


# -------------------------------------------------------------- plan/injector --
class TestPlanValidation:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(loss=1.5)
        with pytest.raises(ValueError):
            FaultPlan(loss=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(rto_us=0.0)

    def test_outage_window_validated(self):
        with pytest.raises(ValueError):
            LinkOutage(node=0, start_us=10.0, end_us=5.0)

    def test_active_flag(self):
        assert not FaultPlan().active
        assert FaultPlan(loss=0.01).active
        assert FaultPlan(
            link_down=(LinkOutage(node=0, start_us=0, end_us=1),)).active


# ------------------------------------------------------------------- soaks --
@pytest.mark.chaos
@pytest.mark.parametrize("loss", [0.01, 0.05, 0.10])
@pytest.mark.parametrize("connection", ["ondemand", "static-p2p"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_chaos_soak_8(workload, connection, loss):
    """8 ranks, 1-10% loss: every workload matches its lossless run."""
    prog = WORKLOADS[workload]()
    clean = run(prog, nprocs=8, connection=connection)
    res = run(prog, nprocs=8, connection=connection,
              fault_plan=FaultPlan(loss=loss))
    assert res.returns == clean.returns
    assert res.chaos.rtx_exhausted == 0


@pytest.mark.chaos
@pytest.mark.parametrize("connection", ["ondemand", "static-p2p"])
def test_chaos_soak_16_mixed(connection):
    """16 ranks under a mixed drop/duplicate/reorder plan."""
    plan = FaultPlan(loss=0.03, duplicate=0.03, reorder=0.05)
    prog = barrier_loop(iters=8)
    clean = run(prog, nprocs=16, nodes=8, ppn=2, connection=connection)
    res = run(prog, nprocs=16, nodes=8, ppn=2, connection=connection,
              fault_plan=plan)
    assert res.returns == clean.returns


@pytest.mark.chaos
@pytest.mark.parametrize("loss", [0.02, 0.05])
def test_chaos_soak_cg_16(loss):
    spec = ClusterSpec(nodes=8, ppn=2, seed=4)
    cfg = MpiConfig(connection="ondemand")
    clean = run_job(spec, 16, KERNELS["cg"]("S"), cfg)
    res = run_job(spec, 16, KERNELS["cg"]("S"), cfg,
                  fault_plan=FaultPlan(loss=loss))
    assert res.returns[0].verification == clean.returns[0].verification
