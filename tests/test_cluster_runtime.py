"""Tests for ClusterSpec, OobBoard, JobResult plumbing and placement."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, OobBoard, rank_to_node, run_job
from repro.cluster.job import JobError
from repro.mpi import MpiConfig
from repro.sim import Engine
from repro.via.profiles import BERKELEY


class TestPlacement:
    def test_cyclic(self):
        assert [rank_to_node(r, 4, 2, "cyclic") for r in range(8)] == \
            [0, 1, 2, 3, 0, 1, 2, 3]

    def test_block(self):
        assert [rank_to_node(r, 4, 2, "block") for r in range(8)] == \
            [0, 0, 1, 1, 2, 2, 3, 3]

    def test_unknown_placement(self):
        with pytest.raises(ValueError):
            rank_to_node(0, 4, 2, "random")
        with pytest.raises(ValueError):
            ClusterSpec(placement="striped")

    def test_block_placement_end_to_end(self):
        def prog(mpi):
            yield from mpi.barrier()

        spec = ClusterSpec(nodes=4, ppn=2, placement="block")
        res = run_job(spec, 8, prog, MpiConfig())
        assert res.nprocs == 8


class TestSpecValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            ClusterSpec(nodes=0)
        with pytest.raises(ValueError):
            ClusterSpec(ppn=0)

    def test_max_procs(self):
        spec = ClusterSpec(nodes=8, ppn=4)
        assert spec.max_procs == 32
        spec.validate_nprocs(32)
        with pytest.raises(ValueError):
            spec.validate_nprocs(33)
        with pytest.raises(ValueError):
            spec.validate_nprocs(0)

    def test_berkeley_one_proc_per_node(self):
        spec = ClusterSpec(nodes=4, ppn=4, profile=BERKELEY)
        spec.validate_nprocs(4)
        with pytest.raises(ValueError, match="one process per node"):
            spec.validate_nprocs(5)


class TestOob:
    def test_barrier_releases_all(self):
        eng = Engine()
        board = OobBoard(eng, 3)
        done = []

        def proc(i):
            yield eng.timeout(10.0 * i)
            yield from board.barrier("sync")
            done.append((i, eng.now))

        for i in range(3):
            eng.process(proc(i))
        eng.run()
        release = max(t for _i, t in done)
        assert all(t == release for _i, t in done)
        assert sorted(i for i, _t in done) == [0, 1, 2]

    def test_named_barriers_independent(self):
        eng = Engine()
        board = OobBoard(eng, 2)

        crossed = []

        def proc(i):
            yield from board.barrier("a")
            crossed.append(("a", eng.now))
            yield from board.barrier("b")
            crossed.append(("b", eng.now))

        p = [eng.process(proc(i)) for i in range(2)]
        eng.run()
        assert all(x.ok for x in p)
        cost = OobBoard.BARRIER_COST_US
        assert crossed == [("a", cost)] * 2 + [("b", 2 * cost)] * 2

    def test_barrier_has_cost(self):
        eng = Engine()
        board = OobBoard(eng, 1)
        eng.process(board.barrier("solo"))
        eng.run()
        assert eng.now == OobBoard.BARRIER_COST_US


class TestJobResult:
    def _run(self, **kw):
        def prog(mpi, bonus=0):
            yield from mpi.barrier()
            return mpi.rank + bonus

        return run_job(ClusterSpec(nodes=4, ppn=2), 4, prog, MpiConfig(), **kw)

    def test_returns_in_rank_order(self):
        res = self._run()
        assert res.returns == [0, 1, 2, 3]

    def test_program_args_broadcast(self):
        res = self._run(program_args=(100,))
        assert res.returns == [100, 101, 102, 103]

    def test_per_rank_args(self):
        res = self._run(per_rank_args=[(10,), (20,), (30,), (40,)])
        assert res.returns == [10, 21, 32, 43]

    def test_timing_fields_consistent(self):
        res = self._run()
        assert 0 <= res.finished_at_us <= res.total_time_us
        assert res.avg_init_time_us <= res.max_init_time_us
        assert res.events_processed > 0

    def test_program_exception_surfaces(self):
        def bad(mpi):
            yield from mpi.barrier()
            raise RuntimeError("application bug")

        with pytest.raises(JobError, match="application bug"):
            run_job(ClusterSpec(nodes=2, ppn=1), 2, bad, MpiConfig())

    def test_deadlock_detected_and_reported(self):
        def stuck(mpi):
            if mpi.rank == 0:
                buf = np.empty(1)
                yield from mpi.recv(buf, source=1, tag=9)  # never sent
            else:
                yield from mpi.compute(1.0)

        with pytest.raises(JobError, match="deadlock"):
            run_job(ClusterSpec(nodes=2, ppn=1), 2, stuck, MpiConfig())

    def test_summary_digest(self):
        res = self._run()
        text = res.summary()
        assert "4 ranks (ondemand)" in text
        assert f"sim time {res.total_time_us:.1f}us" in text
        assert f"{res.resources.total_connections} connections" in text
        # no chaos layer attached -> zeros, not crashes
        assert "0 faults | 0 drops" in text
        assert "0 connect retries" in text
        assert "\n" not in text

    def test_oversubscription_rejected(self):
        def prog(mpi):
            yield from mpi.barrier()

        with pytest.raises(ValueError, match="do not fit"):
            run_job(ClusterSpec(nodes=2, ppn=2), 5, prog, MpiConfig())

    def test_per_rank_args_length_checked(self):
        def prog(mpi, x):
            yield from mpi.barrier()
            return x

        with pytest.raises(ValueError, match="per_rank_args"):
            run_job(ClusterSpec(nodes=2, ppn=1), 2, prog, MpiConfig(),
                    per_rank_args=[(1,)])

    def test_kernel_cell_rejects_unknown_kernel(self):
        from repro.cluster.job import run_kernel_cell

        with pytest.raises(ValueError, match="unknown kernel"):
            run_kernel_cell(kernel="nope", npb_class="S", nprocs=2,
                            nodes=2, ppn=1, profile="clan",
                            connection="ondemand", seed=0)

    def test_single_process_job(self):
        def prog(mpi):
            out = np.empty(1)
            yield from mpi.allreduce(np.array([4.0]), out)
            yield from mpi.barrier()
            return float(out[0])

        res = run_job(ClusterSpec(nodes=1, ppn=1), 1, prog, MpiConfig())
        assert res.returns == [4.0]
        assert res.resources.avg_vis == 0.0
