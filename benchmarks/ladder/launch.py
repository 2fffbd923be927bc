"""Start worker subprocesses under the run discipline.

Every repetition is a fresh ``python -m benchmarks.ladder.worker``
process, run one at a time (the host has two cores; the service
workload alone needs both), single-threaded numerics, fixed hash seed.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from .harness import calibrated_best, clock

ROOT = Path(__file__).resolve().parent.parent.parent
#: set-up is repeated in this many extra processes per run
SETUP_REPEATS = 7
WORKER_TIMEOUT_S = 170.0


class WorkerFailed(RuntimeError):
    """The worker process died or printed no result."""


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def run_worker(workload: str, seed: int, *, seconds: float = 0.0, trace: int = 0,
               scale: str = "full", setup_only: bool = False,
               spans_out: Optional[str] = None) -> Dict[str, Any]:
    """One worker process to completion; returns its JSON document."""
    cmd = [sys.executable, "-m", "benchmarks.ladder.worker", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--scale", scale, "--launched-at", repr(clock())]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", os.path.abspath(spans_out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{workload}: worker exceeded {WORKER_TIMEOUT_S:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload}: worker exited {proc.returncode} without a result")
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise WorkerFailed(f"{workload}: worker's last line is not JSON") from exc


def measure(workload: str, seed: int, seconds: float, trace: int, scale: str = "full",
            spans_out: Optional[str] = None) -> Dict[str, Any]:
    """One repetition.  Untraced, ``setup_s`` is the fastest set-up, in
    calibrated seconds (``harness.calibrated_best``), of the measuring
    process and ``SETUP_REPEATS`` set-up-only processes."""
    setups: List[Dict[str, Any]] = []
    if not trace:
        setups = [run_worker(workload, seed, scale=scale, setup_only=True)
                  for _ in range(SETUP_REPEATS)]
    doc = run_worker(workload, seed, seconds=seconds, trace=trace, scale=scale,
                     spans_out=spans_out)
    if not trace and "setup_s" in doc.get("metrics", {}):
        readings = [(d["setup_s"], d["setup_probe_s"]) for d in setups + [doc]]
        doc["setup_readings_s"] = readings
        doc["metrics"]["setup_s"]["value"] = calibrated_best(readings)
    return doc


def host_facts() -> Dict[str, Any]:
    """Recorded with every result: what the host times were taken on."""
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_at_start": list(os.getloadavg()),
    }
