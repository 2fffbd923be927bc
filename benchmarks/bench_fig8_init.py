"""Figure 8: MPI_Init time per connection manager."""

from repro.bench import figures

from benchmarks.conftest import run_once


def test_figure8(benchmark):
    exp = run_once(benchmark, figures.figure8)
    print("\n" + exp.render())

    n = exp.column("nprocs")
    cs = dict(zip(n, exp.column("clan/client-server")))
    p2p = dict(zip(n, exp.column("clan/peer-to-peer")))
    od = dict(zip(n, exp.column("clan/on-demand")))

    # the paper's ordering at every size: client-server >> peer-to-peer
    # >> on-demand (which creates nothing at init)
    for k in (4, 8, 16):
        assert cs[k] > p2p[k] > od[k]
        assert od[k] < 10.0
    # the serialized client/server dialog grows superlinearly
    assert cs[16] / cs[4] > 16 / 4
    # static peer-to-peer grows with P as well
    assert p2p[16] > p2p[8] > p2p[4]
    # BVIA shows the same static-vs-on-demand gap
    bvia_p2p = dict(zip(n, exp.column("bvia/peer-to-peer")))
    bvia_od = dict(zip(n, exp.column("bvia/on-demand")))
    assert bvia_p2p[8] > bvia_od[8]
