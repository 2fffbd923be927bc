"""Figure 4: barrier latency vs. process count, modes and fabrics."""


from repro.bench import figures

from benchmarks.conftest import run_once


def test_figure4(benchmark):
    exp = run_once(benchmark, figures.figure4)
    print("\n" + exp.render())

    n = exp.column("nprocs")
    poll = dict(zip(n, exp.column("clan/static-polling")))
    spin = dict(zip(n, exp.column("clan/static-spinwait")))
    od = dict(zip(n, exp.column("clan/on-demand")))
    bvia = dict(zip(n, exp.column("bvia/static-polling")))
    bvia_od = dict(zip(n, exp.column("bvia/on-demand")))

    # latency grows with process count (log-ish)
    assert poll[16] > poll[8] > poll[4] > poll[2]
    # non-power-of-two fluctuation: the fold/unfold steps cost extra
    assert poll[3] > poll[4]
    assert poll[6] > poll[8]
    # on-demand == static-polling on cLAN (paper's headline result)
    for k in poll:
        assert abs(od[k] - poll[k]) / poll[k] < 0.03
    # spinwait never wins, and it blows up at larger counts
    assert all(spin[k] >= poll[k] * 0.99 for k in poll)
    assert spin[16] > 2.0 * poll[16]
    # BVIA: on-demand beats static (fewer VIs scanned); calibrated to the
    # paper's 8-node anchor: 161 µs vs 196 µs
    assert bvia_od[8] < bvia[8]
    assert 120 < bvia_od[8] < 200
    assert 150 < bvia[8] < 240
