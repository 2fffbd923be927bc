"""Figure 5: allreduce latency vs. process count (llcbench style)."""

from repro.bench import figures

from benchmarks.conftest import run_once


def test_figure5(benchmark):
    exp = run_once(benchmark, figures.figure5)
    print("\n" + exp.render())

    n = exp.column("nprocs")
    poll = dict(zip(n, exp.column("clan/static-polling")))
    spin = dict(zip(n, exp.column("clan/static-spinwait")))
    od = dict(zip(n, exp.column("clan/on-demand")))
    bvia = dict(zip(n, exp.column("bvia/static-polling")))
    bvia_od = dict(zip(n, exp.column("bvia/on-demand")))

    # grows with P; on-demand tracks polling with negligible degradation
    assert poll[16] > poll[4] > poll[2]
    for k in poll:
        assert abs(od[k] - poll[k]) / poll[k] < 0.03
    # spinwait is the worst mode at scale (paper §5.4)
    assert spin[16] > 2.0 * poll[16]
    # BVIA benefits from the on-demand VI reduction
    assert bvia_od[8] < bvia[8]
    # allreduce costs a bit more than barrier (it moves data)
    fig4 = figures.figure4()
    barrier16 = fig4.row("P=16").get("clan/static-polling")
    assert poll[16] > barrier16
