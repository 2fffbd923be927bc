"""Sweep-runner tests: matrix expansion, caching, determinism, perf floor."""

import json
import os
import signal
import socket
import threading
import time
from types import SimpleNamespace

import pytest

import repro.bench.runner as runner
from repro.bench.cache import ResultCache
from repro.bench.flags import run_resumable
from repro.bench.runner import (
    MATRICES,
    SweepCell,
    SweepMatrix,
    SweepRunner,
    WorkerDied,
    bench_artifact,
    fan_out,
    write_bench_json,
)
from repro.cluster.job import run_kernel_cell

#: tiny matrix: EP cells finish in ~10ms each
TINY = SweepMatrix(
    name="tiny", kernels=("ep",), nprocs=(2, 4),
    connections=("ondemand", "static-p2p"), nodes=4,
)


class TestMatrixExpansion:
    def test_cells_are_deterministic_and_complete(self):
        cells = TINY.cells()
        assert len(cells) == 4
        assert cells == TINY.cells()
        assert all(isinstance(c, SweepCell) for c in cells)

    def test_invalid_combinations_are_skipped(self):
        m = SweepMatrix(
            name="bvia", kernels=("ep",), nprocs=(4, 16),
            connections=("ondemand", "static-cs"), nodes=8, ppn=2,
            profile="berkeley",
        )
        cells = m.cells()
        # berkeley: no client/server, and at most one process per node
        assert all(c.connection != "static-cs" for c in cells)
        assert all(c.nprocs <= m.nodes for c in cells)
        assert len(cells) == 1

    def test_oversubscribed_nprocs_skipped(self):
        m = SweepMatrix(name="x", kernels=("ep",), nprocs=(4, 64),
                        connections=("ondemand",), nodes=4, ppn=1)
        assert [c.nprocs for c in m.cells()] == [4]

    def test_builtin_matrices_expand_nonempty(self):
        for name, matrix in MATRICES.items():
            assert matrix.cells(), name

    def test_cell_keys_differ_across_axes(self):
        keys = {c.key() for c in MATRICES["paper"].cells()}
        assert len(keys) == len(MATRICES["paper"].cells())


class TestRunnerCaching:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        out1 = SweepRunner(TINY, workers=1, cache=cache).run()
        assert out1.computed == 4 and out1.cached == 0
        out2 = SweepRunner(TINY, workers=1, cache=cache).run()
        assert out2.computed == 0 and out2.cached == 4
        assert bench_artifact(out1) == bench_artifact(out2)

    def test_partial_cache_resumes(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        SweepRunner(TINY, workers=1, cache=cache).run()
        # drop one entry: only that cell recomputes
        victim = TINY.cells()[0].key()
        cache.path_for(victim).unlink()
        out = SweepRunner(TINY, workers=1, cache=cache).run()
        assert out.computed == 1 and out.cached == 3

    def test_no_cache_recomputes_everything(self):
        out = SweepRunner(TINY, workers=1, cache=None).run()
        assert out.computed == 4 and out.cached == 0

    def test_json_artifact_byte_identical_across_runs(self, tmp_path):
        """The fast determinism check of the acceptance criteria: two
        invocations sharing a cache write identical BENCH bytes."""
        cache = ResultCache(tmp_path / "c")
        p1 = write_bench_json(
            SweepRunner(TINY, workers=1, cache=cache).run(), tmp_path / "a")
        p2 = write_bench_json(
            SweepRunner(TINY, workers=1, cache=cache).run(), tmp_path / "b")
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1 == b2
        doc = json.loads(b1)
        assert doc["bench"] == "tiny" and len(doc["cells"]) == 4
        for cell in doc["cells"]:
            for field in ("sim_time_us", "events", "events_per_sec",
                          "wall_s", "total_connections", "avg_vis"):
                assert field in cell["result"], field

    def test_deterministic_metrics_independent_of_cache(self, tmp_path):
        """Everything except host wall-time is run-to-run identical even
        across *cold* runs (separate caches)."""
        outs = [
            SweepRunner(TINY, workers=1,
                        cache=ResultCache(tmp_path / f"c{i}")).run()
            for i in range(2)
        ]
        for (cell_a, ra), (cell_b, rb) in zip(outs[0].results, outs[1].results):
            assert cell_a == cell_b
            for field in ("sim_time_us", "finished_at_us", "events",
                          "total_connections", "avg_vis", "pinned_peak_bytes"):
                assert ra[field] == rb[field], field


class TestParallelWorkers:
    def test_pool_path_matches_serial_results(self, tmp_path):
        serial = SweepRunner(TINY, workers=1, cache=None).run()
        parallel = SweepRunner(TINY, workers=2, cache=None).run()
        for (cell_s, rs), (cell_p, rp) in zip(serial.results, parallel.results):
            assert cell_s == cell_p
            assert rs["sim_time_us"] == rp["sim_time_us"]
            assert rs["events"] == rp["events"]

    def test_worker_entry_is_picklable(self):
        import pickle

        from repro.bench.runner import compute_cell

        assert pickle.loads(pickle.dumps(compute_cell)) is compute_cell

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(TINY, workers=0)

    def test_workers_take_default_signals(self):
        """Forked workers do not inherit the parent's SIGTERM handler
        (``run_resumable``'s) or its signal wakeup fd (asyncio's): a
        SIGTERM kills a worker instead of reaching the parent."""
        reader, writer = socket.socketpair()
        writer.setblocking(False)
        previous_fd = signal.set_wakeup_fd(writer.fileno())
        try:
            results, computed = run_resumable("test", None, lambda: fan_out(
                _signal_state, _cells(2), 2, None, lambda _msg: None))
        finally:
            signal.set_wakeup_fd(previous_fd)
            reader.close()
            writer.close()
        assert computed == 2
        for result in results.values():
            assert result["sigterm"] == result["sigint"] == "SIG_DFL"
            assert result["wakeup_fd"] == -1

    def test_worker_that_will_not_exit_is_killed_typed(self, monkeypatch):
        """Every result is read and cached, but a worker outlives the
        pool's shutdown (SIGTERM ignored, a thread still asleep): the
        fan-out kills it at the join deadline and fails typed."""
        monkeypatch.setattr(runner, "JOIN_DEADLINE_S", 1.0)
        store = {}
        cache = SimpleNamespace(get=store.get, put=store.__setitem__)
        started = time.monotonic()
        with pytest.raises(WorkerDied, match="join deadline"):
            fan_out(_ignore_sigterm_and_linger, _cells(2), 2, cache,
                    lambda _msg: None)
        assert time.monotonic() - started < 10.0
        assert sorted(store) == ["cell-0", "cell-1"]
        for result in store.values():
            with pytest.raises(ProcessLookupError):
                os.kill(result["pid"], 0)

    def test_worker_death_is_typed(self):
        with pytest.raises(WorkerDied, match="BrokenProcessPool"):
            fan_out(_die, _cells(2), 2, None, lambda _msg: None)


def _cells(n):
    return [(f"cell {i}", {"key": f"cell-{i}"}) for i in range(n)]


def _signal_state(params):
    """Pool entry: the worker's SIGTERM/SIGINT handlers and wakeup fd."""
    names = {signal.SIG_DFL: "SIG_DFL", signal.SIG_IGN: "SIG_IGN"}
    fd = signal.set_wakeup_fd(-1)
    return params["key"], {
        "sigterm": names.get(signal.getsignal(signal.SIGTERM), "handler"),
        "sigint": names.get(signal.getsignal(signal.SIGINT), "handler"),
        "wakeup_fd": fd, "wall_s": 0.0,
    }


def _ignore_sigterm_and_linger(params):
    """Pool entry: return at once, but leave the worker unable to exit
    for 30 s (a non-daemon thread) and deaf to SIGTERM."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    threading.Thread(target=time.sleep, args=(30.0,)).start()
    return params["key"], {"pid": os.getpid(), "wall_s": 0.0}


def _die(params):
    """Pool entry: the worker dies under its cell."""
    os._exit(1)


class TestWorkerEntry:
    def test_unknown_kernel_is_a_typed_error(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            run_kernel_cell(
                kernel="nope", npb_class="S", nprocs=2, nodes=2, ppn=1,
                profile="clan", connection="ondemand", seed=0,
            )

    def test_metrics_are_plain_json(self):
        metrics = run_kernel_cell(
            kernel="ep", npb_class="S", nprocs=2, nodes=2, ppn=1,
            profile="clan", connection="ondemand", seed=0,
        )
        json.dumps(metrics)  # no numpy scalars, no objects
        assert metrics["events"] > 0
        assert "fingerprint" not in metrics

    def test_fingerprint_opt_in(self):
        metrics = run_kernel_cell(
            kernel="ep", npb_class="S", nprocs=2, nodes=2, ppn=1,
            profile="clan", connection="ondemand", seed=0,
            record_fingerprint=True,
        )
        assert len(metrics["fingerprint"]) == 64


@pytest.mark.slow
class TestPerfSmoke:
    def test_cg_cell_events_per_sec_floor(self):
        """Budget assertion: one CG cell must sustain a conservative
        events/sec floor.  The floor is ~5x below what this codebase
        does on a developer machine (>25k ev/s), so it only trips on a
        real hot-path regression, not on a slow CI box."""
        started = time.perf_counter()
        metrics = run_kernel_cell(
            kernel="cg", npb_class="S", nprocs=4, nodes=4, ppn=1,
            profile="clan", connection="ondemand", seed=0,
        )
        wall = time.perf_counter() - started
        assert metrics["events"] > 20_000  # CG.S np=4 is a real workload
        assert metrics["events"] / wall > 5_000, (
            f"DES hot path regressed: {metrics['events'] / wall:.0f} ev/s "
            f"({metrics['events']} events in {wall:.2f}s)"
        )
