"""Table 3: NPB CPU times per mode; on-demand/polling ratios vs. paper."""

from repro.bench import tables

from benchmarks.conftest import run_once


def test_table3(benchmark):
    exp = run_once(benchmark, tables.table3)
    print("\n" + exp.render())

    for row in exp.rows:
        ratio = row.get("od/poll")
        # paper: on-demand within ~2% of static polling on cLAN, and at
        # or below parity on Berkeley VIA; we allow 5% on scaled classes
        if row.label.startswith("clan"):
            assert 0.95 <= ratio <= 1.05, (row.label, ratio)
            spin = row.get("spinwait_ms")
            assert spin >= row.get("polling_ms") * 0.99
        else:
            assert ratio <= 1.02, (row.label, ratio)

    # where the paper reports a clearly-better on-demand ratio, ours
    # agrees in direction (CG on BVIA)
    bvia_cg = [r for r in exp.rows
               if r.label.startswith("bvia CG")]
    assert any(r.get("od/poll") < 0.98 for r in bvia_cg)
