"""Table runners: Tables 1–3 of the paper (plus the §1 memory argument)."""

from __future__ import annotations

import math

from repro.apps import micro
from repro.apps.npb import KERNELS
from repro.apps.patterns import PATTERNS
from repro.bench.figures import (
    BVIA_MODES,
    BVIA_NPB_COMBOS,
    CLAN_NPB_COMBOS,
    MODES,
    npb_time_us,
)
from repro.bench.report import Experiment
from repro.cluster import ClusterSpec, run_job
from repro.mpi import MpiConfig

# ---------------------------------------------------------------- Table 1 --
#: the paper's 64-process column (from Vetter & Mueller)
TABLE1_PAPER_64 = {
    "sPPM": 5.5, "SMG2000": 41.88, "Sphot": 0.98,
    "Sweep3D": 3.5, "SAMRAI": 4.94, "CG": 6.36,
}


def table1() -> Experiment:
    """Average distinct destinations per process (paper Table 1)."""
    exp = Experiment(
        "Table 1", "Average distinct destinations per process",
        ["measured@64", "paper@64"],
        notes="Pattern generators per the published characterizations.",
    )
    spec64 = ClusterSpec(nodes=16, ppn=4)
    # CG appears in Table 1 too (its NPB pattern)
    for name, make in {**PATTERNS, "CG": lambda: KERNELS["cg"]("S")}.items():
        res = run_job(spec64, 64, make(), MpiConfig())
        exp.add(name, **{"measured@64": res.resources.avg_distinct_destinations,
                         "paper@64": TABLE1_PAPER_64[name]})
    return exp


# ---------------------------------------------------------------- Table 2 --
#: paper's Table 2: workload -> {nprocs: (static_vis, ondemand_vis)}
TABLE2_PAPER = {
    "Ring": {16: (15, 2), 32: (31, 2)},
    "Barrier": {16: (15, 4), 32: (31, 5)},
    "Allreduce": {16: (15, 4), 32: (31, 5)},
    "Alltoall": {16: (15, 15), 32: (31, 31)},
    "Allgather": {16: (15, 5), 32: (31, 6)},
    "Bcast": {16: (15, 4), 32: (31, 5)},
    "CG": {16: (15, 4.75), 32: (31, 5.78)},
    "MG": {16: (15, 15), 32: (31, 15)},
    "IS": {16: (15, 15), 32: (31, 31)},
    "SP": {16: (15, 8), 36: (35, 9.83)},
    "BT": {16: (15, 8), 36: (35, 9.83)},
    "EP": {16: (15, 4), 32: (31, 4.75)},
}


#: Table 2's rows: workload -> program factory
TABLE2_WORKLOADS = {
    "Ring": lambda: micro.ring(),
    "Barrier": lambda: micro.barrier_latency(iterations=20),
    "Allreduce": lambda: micro.allreduce_latency(iterations=10),
    "Alltoall": lambda: micro.alltoall_loop(iterations=5),
    "Allgather": lambda: micro.allgather_loop(iterations=10),
    "Bcast": lambda: micro.bcast_loop(iterations=20),
    **{name.upper(): (lambda name=name: KERNELS[name]("S"))
       for name in ("cg", "mg", "is", "sp", "bt", "ep")},
}


def table2() -> Experiment:
    """Average VIs per process and resource utilization (paper Table 2)."""
    exp = Experiment(
        "Table 2", "Average VIs per process & utilization",
        ["nprocs", "static_vis", "ondemand_vis", "static_util",
         "ondemand_util", "paper_static", "paper_ondemand"],
        notes=("SP/BT run at 16 and 36 (square counts); everything else "
               "at 16 and 32, like the paper."),
    )
    for name, make in TABLE2_WORKLOADS.items():
        sizes = (16, 36) if name in ("SP", "BT") else (16, 32)
        for nprocs in sizes:
            spec = ClusterSpec(nodes=9 if nprocs == 36 else 8,
                               ppn=4)
            row = {"nprocs": nprocs}
            for conn, prefix in (("static-p2p", "static"),
                                 ("ondemand", "ondemand")):
                res = run_job(spec, nprocs, make(),
                              MpiConfig(connection=conn))
                row[f"{prefix}_vis"] = res.resources.avg_vis
                row[f"{prefix}_util"] = res.resources.utilization
            paper = TABLE2_PAPER[name][nprocs]
            row["paper_static"], row["paper_ondemand"] = paper
            exp.add(f"{name}.{nprocs}", **row)
    return exp


def table2_memory() -> Experiment:
    """The §1 pinned-memory argument: unused pre-posted buffers under the
    static mechanism for a CG-patterned job (the paper's "119 GB at
    1024 nodes" computation, done from a measured CG connection set)."""
    # measure CG's used-connection count at a feasible scale, then apply
    # the paper's own extrapolation (used connections stay ~log-scale)
    nprocs = 1024
    spec = ClusterSpec(nodes=32, ppn=4)
    res = run_job(spec, 128, KERNELS["cg"]("B"), MpiConfig())
    used = res.resources.avg_vis_used
    per_vi = res.resources.per_process[0].pinned_per_vi_bytes
    used_at_n = used + math.log2(nprocs / 128)  # log-scale growth
    unused_bytes = (nprocs - 1 - used_at_n) * per_vi * nprocs
    exp = Experiment(
        "Table 2 (memory)", "Unused pinned memory under static management",
        ["value"],
        notes=("Paper §1: 'the total amount of unused memory for CG on a "
               "1024-node cluster is 119 GB'."),
    )
    exp.add("measured used VIs per process (CG, P=128)", value=used)
    exp.add(f"extrapolated used VIs at P={nprocs}", value=used_at_n)
    exp.add("pinned bytes per VI", value=per_vi)
    exp.add(f"unused pinned memory at P={nprocs} (GB)",
            value=unused_bytes / 2 ** 30)
    return exp


# ---------------------------------------------------------------- Table 3 --
#: paper Table 3 reference times (seconds), cLAN section
TABLE3_PAPER_CLAN = {
    "CG.A.16": (4.58, 4.56, 4.47), "CG.B.16": (155.37, 152.95, 152.64),
    "CG.A.32": (3.97, 3.10, 2.87), "CG.B.32": (132.49, 128.97, 125.50),
    "CG.C.32": (290.01, 287.55, 289.25),
    "MG.A.16": (4.62, 4.57, 4.70), "MG.B.16": (21.81, 21.23, 21.69),
    "MG.A.32": (3.91, 3.82, 3.94), "MG.B.32": (18.40, 17.37, 18.48),
    "MG.C.32": (154.70, 153.66, 153.90),
    "IS.A.16": (1.50, 1.51, 1.50), "IS.B.16": (6.71, 6.70, 6.57),
    "IS.A.32": (1.31, 1.29, 1.26), "IS.B.32": (5.70, 5.68, 5.52),
    "IS.C.32": (25.23, 25.06, 25.06),
    "SP.A.16": (100.46, 100.61, 100.47), "SP.B.16": (531.51, 528.24, 525.62),
    "BT.A.16": (183.17, 183.46, 183.04), "BT.B.16": (826.64, 824.06, 820.92),
}
TABLE3_PAPER_BVIA = {
    "IS.A.8": (1.98, 1.99), "IS.B.8": (8.29, 8.29),
    "CG.A.8": (6.36, 6.44), "CG.B.8": (203.24, 205.01),
    "CG.A.4": (10.76, 10.96), "IS.A.4": (3.70, 3.69),
    "BT.A.4": (552.13, 552.10), "SP.A.4": (419.45, 420.14),
}


def table3() -> Experiment:
    """Actual NPB CPU times (paper Table 3).

    Our absolute times are simulated µs on scaled problem classes, so
    only relative comparisons (mode vs. mode per row) are meaningful;
    the paper's seconds are shown as the ratio reference.  The cells are
    those of Figures 6 and 7, read from the same runs.
    """
    exp = Experiment(
        "Table 3", "NPB CPU time (simulated ms) per completion/conn mode",
        ["spinwait_ms", "ondemand_ms", "polling_ms",
         "od/poll", "paper od/poll"],
        notes="cLAN rows then Berkeley VIA rows (spinwait n/a on BVIA).",
    )
    for fabric, combos, modes, paper_times in (
            ("clan", CLAN_NPB_COMBOS, MODES, TABLE3_PAPER_CLAN),
            ("bvia", BVIA_NPB_COMBOS, BVIA_MODES, TABLE3_PAPER_BVIA)):
        for name, cls, nprocs in combos:
            times = {mode: npb_time_us(name, cls, nprocs, fabric, mode)
                     for mode in modes}
            key = f"{name.upper()}.{cls}.{nprocs}"
            # the paper's last two columns are on-demand, then polling
            paper = paper_times.get(key)
            spin = times.get("static-spinwait")
            exp.add(
                f"{fabric} {key}",
                spinwait_ms=None if spin is None else spin / 1e3,
                ondemand_ms=times["on-demand"] / 1e3,
                polling_ms=times["static-polling"] / 1e3,
                **{"od/poll": times["on-demand"] / times["static-polling"],
                   "paper od/poll": paper[-2] / paper[-1] if paper else None},
            )
    return exp


ALL_TABLES = {
    "table1": table1,
    "table2": table2,
    "table2mem": table2_memory,
    "table3": table3,
}
