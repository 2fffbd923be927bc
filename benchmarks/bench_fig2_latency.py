"""Figure 2: small-message latency — the three modes coincide per fabric."""

import numpy as np

from repro.bench import figures

from benchmarks.conftest import run_once


def test_figure2(benchmark):
    exp = run_once(benchmark, figures.figure2)
    print("\n" + exp.render())

    polling = np.array(exp.column("clan/static-polling"), dtype=float)
    spinwait = np.array(exp.column("clan/static-spinwait"), dtype=float)
    ondemand = np.array(exp.column("clan/on-demand"), dtype=float)
    bvia = np.array(exp.column("bvia/static-polling"), dtype=float)
    bvia_od = np.array(exp.column("bvia/on-demand"), dtype=float)

    # paper: the three cLAN curves coincide for small messages
    assert np.allclose(polling, spinwait, rtol=0.02)
    assert np.allclose(polling, ondemand, rtol=0.02)
    # latency increases with size
    assert np.all(np.diff(polling) > 0)
    # BVIA is uniformly slower than cLAN, and mode-independent
    assert np.all(bvia > polling)
    assert np.allclose(bvia, bvia_od, rtol=0.02)
    # cLAN MVICH small-message latency landed around 10-15 µs
    assert 5.0 < polling[0] < 20.0
