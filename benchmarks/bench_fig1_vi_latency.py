"""Figure 1: Berkeley VIA latency grows with the number of active VIs."""

import numpy as np

from repro.bench import figures

from benchmarks.conftest import run_once


def test_figure1(benchmark):
    exp = run_once(benchmark, figures.figure1)
    print("\n" + exp.render())

    vis = np.array(exp.column("active_vis"), dtype=float)
    bvia = np.array(exp.column("bvia_latency_us"), dtype=float)
    clan = np.array(exp.column("clan_latency_us"), dtype=float)

    # BVIA latency grows with VI count ...
    assert np.all(np.diff(bvia) > 0)
    # ... roughly linearly (correlation of latency vs count ~ 1)
    corr = np.corrcoef(vis, bvia)[0, 1]
    assert corr > 0.99
    # ... while the hardware-VIA cLAN datapath is flat
    assert clan.max() - clan.min() < 0.5
    # the slope matches the profile's doorbell-scan cost (x2: both NICs)
    from repro.via.profiles import BERKELEY

    slope = (bvia[-1] - bvia[0]) / (vis[-1] - vis[0])
    assert abs(slope - 2 * BERKELEY.nic_per_vi_us) < 0.5
