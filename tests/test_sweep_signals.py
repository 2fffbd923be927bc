"""Graceful-interrupt behavior of the cached fan-out commands (SIGINT/
SIGTERM handling + the cache hit/miss line in sweep output).

The kill-and-resume test drives ``python -m repro.bench sweep`` and
``python -m repro.bench cluster`` as real subprocesses, signals each
mid-run, and proves the contract printed by the interrupt message:
completed cells survive in the cache, the process exits 130, and
re-running the same command resumes and produces a byte-identical
artifact.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.bench import sweep_cmd

REPO = Path(__file__).parent.parent

SWEEP_ARGS = [
    "--matrix", "mini", "--kernels", "cg", "--np", "4",
    "--seeds", "0,1", "--connections", "ondemand,static-cs",
    "--workers", "1",
]
#: three mechanism cells of about a second each, so the signal lands
#: between the first cached cell and the last
CLUSTER_ARGS = [
    "--jobs", "300", "--nodes", "4", "--ppn", "2", "--quota", "4",
    "--np", "4", "--kernels", "ring,alltoall", "--name", "resume",
    "--workers", "1",
]
#: command -> (its arguments, the artifact it writes, cells it computes)
COMMANDS = {
    "sweep": (SWEEP_ARGS, "BENCH_mini.json", 4),
    "cluster": (CLUSTER_ARGS, "CLUSTER_resume.json", 3),
}


def _run_inprocess(argv):
    return sweep_cmd.main(argv)


def test_sweep_output_surfaces_cache_counters(tmp_path, capsys):
    """Satellite: the sweep prints the ResultCache's own hit/miss
    counters — 0 hits cold, 100% hit rate warm."""
    argv = ["--kernels", "pingpong", "--np", "2", "--seeds", "0",
            "--connections", "ondemand,static-p2p", "--nodes", "2",
            "--ppn", "1", "--cache-dir", str(tmp_path / "cache"),
            "--out-dir", str(tmp_path)]
    assert _run_inprocess(argv) == 0
    cold = capsys.readouterr().out
    assert "[cache: 0 hits / 2 misses (0% hit rate)]" in cold

    assert _run_inprocess(argv) == 0
    warm = capsys.readouterr().out
    assert "[cache: 2 hits / 0 misses (100% hit rate)]" in warm


def test_render_cache_stats_reports_corrupt_recoveries(tmp_path):
    from repro.bench.cache import ResultCache

    cache = ResultCache(str(tmp_path))
    cache.put("k" * 64, {"v": 1})
    assert cache.get("k" * 64) == {"v": 1}
    line = sweep_cmd.render_cache_stats(cache)
    assert "1 hits / 0 misses" in line
    # corrupt an entry on disk; the recovery shows up in the line
    victim = next(Path(str(tmp_path)).glob("*/*.json"))
    victim.write_text("{ truncated garbage")
    assert cache.get("k" * 64) is None
    assert "corrupt entries recovered" in sweep_cmd.render_cache_stats(cache)


def _spawn(command, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.bench", command, *COMMANDS[command][0],
         "--cache-dir", str(tmp_path / "cache"),
         "--out-dir", str(tmp_path)],
        cwd=str(tmp_path), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


@pytest.mark.parametrize("command, signum", [
    pytest.param("sweep", signal.SIGINT, id="2"),
    pytest.param("sweep", signal.SIGTERM, id="15"),
    pytest.param("cluster", signal.SIGINT, id="cluster-2"),
    pytest.param("cluster", signal.SIGTERM, id="cluster-15"),
])
def test_kill_and_resume_produces_byte_identical_artifact(
        tmp_path, command, signum):
    """Kill a fan-out mid-run; completed cells stay cached, the exit is
    130, and the resumed run's artifact is byte-identical to a rerun
    over the same cache."""
    _args, artifact_name, ncells = COMMANDS[command]
    cache_dir = tmp_path / "cache"
    proc = _spawn(command, tmp_path)
    # wait until at least one cell has landed in the cache, then signal
    deadline = time.monotonic() + 120
    while not list(cache_dir.glob("*/*.json")):
        if proc.poll() is not None or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    if proc.poll() is None:
        proc.send_signal(signum)
        _out, err = proc.communicate(timeout=120)
        assert proc.returncode == 130, err.decode()
        assert f"{command} interrupted".encode() in err
        assert b"re-run the same command to resume" in err
        # interrupted mid-run: some cells cached, not all of them
        cached = list(cache_dir.glob("*/*.json"))
        assert cached, "no completed cell survived the interrupt"
        assert len(cached) < ncells
    else:
        proc.communicate()  # raced to completion: resume still valid

    # resume: same command runs to completion over the surviving cache
    resumed = _spawn(command, tmp_path)
    _out, err = resumed.communicate(timeout=300)
    assert resumed.returncode == 0, err.decode()
    artifact = tmp_path / artifact_name
    first_bytes = artifact.read_bytes()
    assert len(list(cache_dir.glob("*/*.json"))) == ncells

    # a rerun over the same cache must reproduce the artifact exactly
    rerun = _spawn(command, tmp_path)
    out, err = rerun.communicate(timeout=300)
    assert rerun.returncode == 0, err.decode()
    assert artifact.read_bytes() == first_bytes
    if command == "sweep":
        assert b"[cache: 4 hits / 0 misses (100% hit rate)]" in out
