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
from repro.bench.report import Claims, Experiment, Record
from repro.cluster import ClusterSpec, run_job
from repro.mpi import MpiConfig

# ---------------------------------------------------------------- Table 1 --
#: the paper's 64-process column (from Vetter & Mueller)
TABLE1_PAPER_64 = {
    "sPPM": 5.5, "SMG2000": 41.88, "Sphot": 0.98,
    "Sweep3D": 3.5, "SAMRAI": 4.94, "CG": 6.36,
}
#: how far each measured row may stray from it: the generators are
#: statistical models of published characterizations, not traces
TABLE1_TOLERANCE = {
    "sPPM": 0.8, "SMG2000": 0.5, "Sphot": 0.02,
    "Sweep3D": 0.01, "SAMRAI": 1.0, "CG": 1.5,
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


def _table1_shape(claim: Claims) -> None:
    for row in claim.exp.rows:
        paper, tolerance = claim.paper[row.label], TABLE1_TOLERANCE[row.label]
        claim(abs(row.get("measured@64") - paper) <= tolerance, row.label,
              f"within {tolerance:g} of the paper's {paper:g} destinations")
    # the spread the paper's argument needs: most apps talk to a handful
    # of peers; only SMG2000 approaches dozens
    claim(max(row.get("measured@64") for row in claim.exp.rows
              if row.label != "SMG2000") < 8.0, "all but SMG2000",
          "fewer than 8 destinations")
    claim(claim.exp.row("SMG2000").get("measured@64") > 35.0, "SMG2000",
          "more than 35 destinations")


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
#: the rows whose on-demand count is checked against the paper's, and by
#: how many VIs it may differ: none where the pattern pins the count
#: (log2 P for barrier-like codes), 2 where it grows log-scale
TABLE2_ONDEMAND_SLACK = {
    **dict.fromkeys(("Ring.16", "Ring.32", "Barrier.16", "Barrier.32",
                     "Allreduce.16", "Allreduce.32", "Alltoall.16",
                     "Alltoall.32", "IS.16", "IS.32", "SP.16", "BT.16",
                     "EP.16"), 0),
    **dict.fromkeys(("CG.16", "CG.32", "EP.32", "Allgather.16",
                     "Allgather.32", "Bcast.16", "Bcast.32"), 2.0),
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


def _table2_shape(claim: Claims) -> None:
    for row in claim.exp.rows:
        static, od = row.get("static_vis"), row.get("ondemand_vis")
        claim(static == row.get("nprocs") - 1, row.label,
              "static creates the full mesh")
        claim(od <= static + 1e-9, row.label, "on-demand never exceeds static")
        claim(abs(row.get("ondemand_util") - 1.0) <= 1e-6, row.label,
              "on-demand uses every VI it creates")
        claim(row.get("static_util") <= 1.0, row.label,
              "static utilization is at most 1")
    for label, slack in TABLE2_ONDEMAND_SLACK.items():
        name, nprocs = label.split(".")
        paper = claim.paper[name][int(nprocs)][1]
        claim(abs(claim.exp.row(label).get("ondemand_vis") - paper) <= slack,
              label, f"on-demand VIs within {slack:g} of the paper's {paper:g}")


#: the paper's §1 figure: unused pinned memory for CG at 1024 nodes (GB)
TABLE2_MEMORY_PAPER_GB = 119


def table2_memory() -> Experiment:
    """The §1 pinned-memory argument: unused pre-posted buffers under the
    static mechanism for a CG-patterned job (the paper's 1024-node
    computation, done from a measured CG connection set)."""
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
               f"1024-node cluster is {TABLE2_MEMORY_PAPER_GB} GB'."),
    )
    exp.add("measured used VIs per process (CG, P=128)", value=used)
    exp.add(f"extrapolated used VIs at P={nprocs}", value=used_at_n)
    exp.add("pinned bytes per VI", value=per_vi)
    exp.add(f"unused pinned memory at P={nprocs} (GB)",
            value=unused_bytes / 2 ** 30)
    return exp


def _table2_memory_shape(claim: Claims) -> None:
    label = "unused pinned memory at P=1024 (GB)"
    claim(100.0 < claim.exp.row(label).get("value") < 125.0, label,
          f"near the paper's {claim.paper} GB")


# ---------------------------------------------------------------- Table 3 --
#: paper Table 3 reference times (seconds) per fabric; the last two of
#: each row are on-demand, then polling
TABLE3_PAPER = {"clan": {
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
}, "bvia": {
    "IS.A.8": (1.98, 1.99), "IS.B.8": (8.29, 8.29),
    "CG.A.8": (6.36, 6.44), "CG.B.8": (203.24, 205.01),
    "CG.A.4": (10.76, 10.96), "IS.A.4": (3.70, 3.69),
    "BT.A.4": (552.13, 552.10), "SP.A.4": (419.45, 420.14),
}}


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
    for fabric, combos, modes in (("clan", CLAN_NPB_COMBOS, MODES),
                                  ("bvia", BVIA_NPB_COMBOS, BVIA_MODES)):
        for name, cls, nprocs in combos:
            times = {mode: npb_time_us(name, cls, nprocs, fabric, mode)
                     for mode in modes}
            key = f"{name.upper()}.{cls}.{nprocs}"
            paper = TABLE3_PAPER[fabric].get(key)
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


def _table3_shape(claim: Claims) -> None:
    # scaled classes: on-demand within 5 % of polling on cLAN, at or
    # below parity on Berkeley VIA
    for row in claim.exp.rows:
        ratio = row.get("od/poll")
        if row.label.startswith("clan"):
            claim(0.95 <= ratio <= 1.05, row.label,
                  "on-demand within 5 % of polling")
            claim(row.get("spinwait_ms") >= row.get("polling_ms") * 0.99,
                  row.label, "spinwait never beats polling")
        else:
            claim(ratio <= 1.02, row.label, "on-demand at or below parity (2 %)")
    claim(any(row.get("od/poll") < 0.98 for row in claim.exp.rows
              if row.label.startswith("bvia CG")), "bvia CG",
          "on-demand clearly wins for CG on BVIA, as in the paper")


ALL_TABLES = {
    "table1": Record(table1, _table1_shape, paper=TABLE1_PAPER_64),
    "table2": Record(table2, _table2_shape, paper=TABLE2_PAPER),
    "table2mem": Record(table2_memory, _table2_memory_shape,
                        paper=TABLE2_MEMORY_PAPER_GB),
    "table3": Record(table3, _table3_shape, paper=TABLE3_PAPER),
}
