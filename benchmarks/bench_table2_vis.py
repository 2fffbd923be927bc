"""Table 2: average VIs per process and resource utilization."""

import pytest

from repro.bench import tables

from benchmarks.conftest import run_once


def test_table2(benchmark):
    exp = run_once(benchmark, tables.table2)
    print("\n" + exp.render())

    for row in exp.rows:
        nprocs = row.get("nprocs")
        static = row.get("static_vis")
        od = row.get("ondemand_vis")
        # static always creates the full mesh
        assert static == nprocs - 1, row.label
        # on-demand never exceeds it, and its utilization is always 1.0
        assert od <= static + 1e-9
        assert row.get("ondemand_util") == pytest.approx(1.0)
        # static utilization equals used/created
        assert row.get("static_util") <= 1.0

    # the paper's exact on-demand counts where the algorithm pins them
    assert exp.row("Ring.16").get("ondemand_vis") == 2
    assert exp.row("Ring.32").get("ondemand_vis") == 2
    assert exp.row("Barrier.16").get("ondemand_vis") == 4   # log2(16)
    assert exp.row("Barrier.32").get("ondemand_vis") == 5   # log2(32)
    assert exp.row("Allreduce.16").get("ondemand_vis") == 4
    assert exp.row("Allreduce.32").get("ondemand_vis") == 5
    assert exp.row("Alltoall.16").get("ondemand_vis") == 15
    assert exp.row("Alltoall.32").get("ondemand_vis") == 31
    assert exp.row("IS.16").get("ondemand_vis") == 15
    assert exp.row("IS.32").get("ondemand_vis") == 31
    assert exp.row("SP.16").get("ondemand_vis") == 8        # paper: exactly 8
    assert exp.row("BT.16").get("ondemand_vis") == 8
    assert exp.row("EP.16").get("ondemand_vis") == 4
    # log-scale rows: paper values within ~1.5 VIs
    for label, paper in (("CG.16", 4.75), ("CG.32", 5.78), ("EP.32", 4.75),
                         ("Allgather.16", 5.0), ("Allgather.32", 6.0),
                         ("Bcast.16", 4.0), ("Bcast.32", 5.0)):
        measured = exp.row(label).get("ondemand_vis")
        assert abs(measured - paper) <= 2.0, (label, measured, paper)


def test_table2_memory_argument(benchmark):
    exp = run_once(benchmark, tables.table2_memory)
    print("\n" + exp.render())
    gb = exp.row(
        "unused pinned memory at P=1024 (GB)").get("value")
    # the paper computes 119 GB for CG at 1024 nodes with 120 kB/VI
    assert 100.0 < gb < 125.0
