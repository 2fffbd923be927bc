"""Figure 3: bandwidth vs. size and the eager→rendezvous dip at 5000 B."""


from repro.bench import figures

from benchmarks.conftest import run_once


def test_figure3(benchmark):
    exp = run_once(benchmark, figures.figure3)
    print("\n" + exp.render())

    sizes = exp.column("size")
    clan = dict(zip(sizes, exp.column("clan/static-polling")))
    clan_od = dict(zip(sizes, exp.column("clan/on-demand")))
    bvia = dict(zip(sizes, exp.column("bvia/static-polling")))

    # bandwidth grows through the eager range
    assert clan[4096] > clan[1024]
    # the paper's jump at the 5000-byte protocol switch
    assert clan[5002] < clan[4999]
    assert bvia[5002] < bvia[4999]
    # rendezvous recovers and exceeds the dip for large messages
    assert clan[65536] > clan[5002]
    # on-demand == static once connected
    for s in sizes:
        assert abs(clan_od[s] - clan[s]) / clan[s] < 0.02
    # cLAN peak lands near its ~110 MB/s hardware envelope
    assert 90.0 < clan[65536] < 125.0
    # Myrinet/BVIA peaks lower, like the paper's fabric
    assert bvia[65536] < clan[65536]
