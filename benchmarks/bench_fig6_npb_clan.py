"""Figure 6: NPB normalized CPU time on cLAN under the three modes."""

from repro.bench import figures

from benchmarks.conftest import run_once


def test_figure6(benchmark):
    exp = run_once(benchmark, figures.figure6)
    print("\n" + exp.render())

    for row in exp.rows:
        od = row.get("on-demand")
        spin = row.get("static-spinwait")
        # paper: on-demand within ~2% of static-polling, sometimes better
        assert 0.95 < od < 1.05, f"{row.label}: on-demand ratio {od}"
        # spinwait never beats polling
        assert spin >= 0.99, f"{row.label}: spinwait ratio {spin}"

    # spinwait hurts the collective-heavy codes (CG, MG) more than the
    # sweep-based SP/BT — the paper's Figure 6 ordering
    by_bench = {}
    for row in exp.rows:
        name = row.label.split(".")[0]
        by_bench.setdefault(name, []).append(row.get("static-spinwait"))
    worst_collective = max(max(by_bench["CG"]), max(by_bench["MG"]))
    sweepers = max(max(by_bench["SP"]), max(by_bench["BT"]))
    assert worst_collective > sweepers
