"""Chaos sweep: loss rate x connection manager under fault injection.

``python -m repro.bench chaos`` runs a barrier loop and NPB CG on the
Berkeley VIA profile while the fabric drops/duplicates/reorders
packets, and reports recovery work (retransmissions, connect retries)
plus whether the numerics still match the lossless baseline.  This is
the observability end of the fault-injection acceptance criteria: the
same jobs that complete bit-correct under loss also show their
retries in the metrics.

``--smoke`` shrinks the sweep to seconds for CI.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.apps.npb import KERNELS
from repro.bench.clock import now_s
from repro.bench.report import Experiment
from repro.chaos import FaultPlan
from repro.cluster import ClusterSpec, run_job
from repro.mpi import MpiConfig
from repro.via.profiles import BERKELEY

MANAGERS = ("ondemand", "static-p2p")


def barrier_loop(iters: int):
    """Barrier+allreduce loop: stresses many small control messages."""

    def prog(mpi):
        checks = []
        for it in range(iters):
            yield from mpi.barrier()
            data = np.full(256, float(mpi.rank + it), dtype=np.float64)
            out = np.empty_like(data)
            yield from mpi.allreduce(data, out)
            checks.append(float(out[0]))
        return checks

    return prog


def _workloads(smoke: bool):
    iters = 4 if smoke else 10
    return [
        ("barrier", barrier_loop(iters), lambda r: r.returns),
        ("cg.S", KERNELS["cg"]("S"),
         lambda r: [x.verification for x in r.returns]),
    ]


def chaos_sweep(smoke: bool = True) -> Experiment:
    """Loss-rate x manager sweep; every row checks numerics vs loss=0."""
    losses = (0.0, 0.02, 0.05) if smoke else (0.0, 0.01, 0.02, 0.05, 0.10)
    nprocs = 8 if smoke else 16
    spec = ClusterSpec(nodes=nprocs, ppn=1, profile=BERKELEY, seed=7)
    exp = Experiment(
        "chaos",
        f"fault injection on {spec.profile.name}, {nprocs} procs: "
        "loss rate x connection manager",
        ["workload", "conn", "loss", "time_ms", "rtx", "drops",
         "conn_retries", "avg_vis", "numerics_ok"],
        notes=("numerics_ok compares per-rank results against the "
               "lossless run of the same manager; rtx/conn_retries are "
               "the recovery work the faults forced."),
    )
    for wl_name, program, extract in _workloads(smoke):
        for conn in MANAGERS:
            config = MpiConfig(connection=conn)
            baseline = None
            for loss in losses:
                plan = FaultPlan(loss=loss) if loss else None
                res = run_job(spec, nprocs, program, config,
                              fault_plan=plan)
                values = extract(res)
                if baseline is None:
                    baseline = values
                ok = values == baseline
                chaos = res.chaos
                exp.add(
                    f"{wl_name}/{conn}/loss={loss:.2f}",
                    workload=wl_name, conn=conn, loss=loss,
                    time_ms=res.finished_at_us / 1e3,
                    rtx=0 if chaos is None else chaos.retransmissions,
                    drops=0 if chaos is None else chaos.fabric_dropped,
                    conn_retries=(0 if chaos is None
                                  else chaos.connect_retries),
                    avg_vis=res.resources.avg_vis,
                    numerics_ok=ok,
                )
    return exp


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench chaos",
        description="Fault-injection sweep: loss x connection manager.",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sweep (8 procs, 3 loss rates) for CI",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="full sweep (16 procs, 5 loss rates)",
    )
    args = parser.parse_args(argv)
    start = now_s()
    exp = chaos_sweep(smoke=not args.full)
    print(exp.render())
    print(f"[chaos took {now_s() - start:.1f}s wall]")
    bad = [r.label for r in exp.rows if not r.get("numerics_ok")]
    if bad:
        print(f"NUMERICS MISMATCH under faults: {bad}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
