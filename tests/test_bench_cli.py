"""The ``python -m repro.bench`` contract, pinned byte for byte.

Each scenario runs bench subcommands in-process (``repro.bench.cli.main``)
in a fresh working directory at CI sizes and records, after every
command: its exit code, the sha256 of its stdout with ``[… wall]`` lines
masked, and the sha256 of every file in the directory (cache entries
included, so sweep and cluster cache keys are pinned as well).  Host
time is the one input that differs between runs, so the clock that
``repro.bench.clock.now_s`` reads is replaced by a counter that advances
one second per read: a cell's recorded ``wall_s`` is then 1.0 on any
machine.  Only that clock: ``time.perf_counter`` itself, which threads
and ``Thread.join`` deadlines read, keeps real time.

``tests/golden/cli_digests.json`` was generated before the bench entry
points were collapsed onto one job builder and one cached fan-out.
Regenerate it only for an intended contract change, and name every
digest that moves::

    PYTHONPATH=src python -m tests.test_bench_cli
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import sys
import tempfile
import threading
import time
import types
from pathlib import Path
from typing import Any, Dict, List
from unittest import mock

import pytest

GOLDEN = Path(__file__).parent / "golden" / "cli_digests.json"

CLUSTER_CI = ["cluster", "--jobs", "3", "--nodes", "4", "--ppn", "2",
              "--quota", "4", "--np", "4", "--kernels", "ring",
              "--policy", "fcfs", "--placement", "spread",
              "--cache-dir", ".bench-cache", "--name", "smoke",
              "--out-dir", "."]
SWEEP_CI = ["sweep", "--matrix", "smoke", "--workers", "2",
            "--cache-dir", ".bench-cache", "--out-dir", "."]

#: scenario -> the commands it runs, in order, in one working directory
SCENARIOS: Dict[str, List[List[str]]] = {
    "trace": [["trace", "cg", "--np", "4", "--nodes", "4",
               "--out", "trace.json", "--jsonl", "trace.jsonl"]],
    "flow": [["flow", "cg", "--np", "8", "--nodes", "4",
              "--jsonl", "flow.jsonl", "--out", "flow.trace.json"]],
    "sanitize": [["sanitize", "cg", "--np", "4", "--json", "sanitize.json"]],
    "capture": [
        ["capture", "cg", "--np", "4"],
        ["capture", "--replay", "cg.trace.jsonl", "--report", "replay.json"],
        ["capture", "--replay", "cg.trace.jsonl", "--connection",
         "static-p2p", "--report", "replay-static.json"],
    ],
    "sweep": [SWEEP_CI, SWEEP_CI],
    "cluster": [CLUSTER_CI + ["--workers", "3"], CLUSTER_CI],
    "golden": [["golden", "--check"]],
    "chaos": [["chaos"]],
}

WALL = re.compile(r"\[[^\]\n]*\bwall\b[^\]\n]*\]")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree(root: Path) -> Dict[str, str]:
    return {
        path.relative_to(root).as_posix(): _sha(path.read_bytes())
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def _main(argv: List[str]) -> int:
    from repro.bench.cli import main

    try:
        return main(argv)
    except SystemExit as stop:
        return stop.code if isinstance(stop.code, int) else 1


def ticking_bench_clock():
    """Make ``repro.bench.clock.now_s`` read 0, 1, 2, ... seconds, and
    leave every other clock alone."""
    from repro.bench import clock

    ticks = itertools.count()
    return mock.patch.object(clock, "time", types.SimpleNamespace(
        perf_counter=lambda: float(next(ticks))))


def run_scenario(name: str, workdir: Path) -> List[Dict[str, Any]]:
    """Run one scenario in ``workdir``; one digest record per command."""
    records = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with ticking_bench_clock(), mock.patch.dict(os.environ):
            os.environ.pop("REPRO_BENCH_CACHE", None)
            for argv in SCENARIOS[name]:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = _main(list(argv))
                records.append({
                    "argv": " ".join(argv),
                    "exit": code,
                    "stdout": _sha(WALL.sub("[… wall]", out.getvalue())
                                   .encode("utf-8")),
                    "files": _tree(workdir),
                })
    finally:
        os.chdir(cwd)
    return records


def test_the_ticking_clock_is_the_bench_clock_alone():
    from repro.bench.clock import now_s

    def gap(out):
        first = time.perf_counter()
        out.append(time.perf_counter() - first)

    with ticking_bench_clock():
        assert [now_s() for _ in range(3)] == [0.0, 1.0, 2.0]
        # real time for everything else, in this thread and in another
        gaps = []
        gap(gaps)
        worker = threading.Thread(target=gap, args=(gaps,))
        worker.start()
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert len(gaps) == 2 and all(0.0 <= g < 0.5 for g in gaps), gaps


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_bench_command_output_is_pinned(name, tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert run_scenario(name, tmp_path) == want


#: argv -> (exit code, a word the error message names); every job a
#: command describes is checked the same way, whichever command runs it
JOB_INPUT = {
    "sweep-workers-0": (["sweep", "--workers", "0"], 2, "--workers"),
    "sweep-unknown-connection": (
        ["sweep", "--connections", "bogus"], 2, "bogus"),
    "sweep-unknown-kernel": (
        ["sweep", "--matrix", "smoke", "--kernels", "cg,nope", "--np", "2"],
        2, "nope"),
    "cluster-predicted": (
        CLUSTER_CI + ["--connections", "predicted"], 0, None),
    "trace-non-npb": (
        ["trace", "pingpong", "--np", "2", "--nodes", "2"], 0, None),
    "trace-predicted": (["trace", "cg", "--connection", "predicted"], 0, None),
    "sanitize-non-npb": (
        ["sanitize", "pingpong", "--np", "2", "--nodes", "2"], 0, None),
    "sanitize-predicted": (
        ["sanitize", "cg", "--connection", "predicted"], 0, None),
}


@pytest.mark.parametrize("case", sorted(JOB_INPUT))
def test_job_input_is_checked_before_any_cell_runs(case, tmp_path,
                                                   monkeypatch):
    """A bad job exits 2 with a message and leaves no cache entry; a
    job any command can describe runs under every command."""
    argv, code, named = JOB_INPUT[case]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPRO_BENCH_CACHE", raising=False)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        assert _main(argv) == code, err.getvalue()
    if named is not None:
        assert named in err.getvalue()
        assert not list(tmp_path.rglob("*.json"))


if __name__ == "__main__":  # pragma: no cover - regenerates the golden
    doc = {}
    for scenario in sorted(SCENARIOS):
        with tempfile.TemporaryDirectory() as tmp:
            doc[scenario] = run_scenario(scenario, Path(tmp))
        print(f"{scenario}: {len(doc[scenario])} commands", file=sys.stderr)
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
