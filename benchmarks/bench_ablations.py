"""Ablation benches: the design-choice sweeps DESIGN.md calls out."""

from repro.bench import ablations

from benchmarks.conftest import run_once


def test_ablation_spincount(benchmark):
    exp = run_once(benchmark, ablations.ablation_spincount)
    print("\n" + exp.render())
    spin = {row.get("spincount"): row.get("spinwait_us") for row in exp.rows}
    polling = exp.rows[0].get("polling_us")
    # short spin windows blow the barrier up; long ones converge to polling
    assert spin[20] > 2.0 * polling
    assert abs(spin[400] - polling) / polling < 0.05
    blocks = {row.get("spincount"): row.get("blocking_waits")
              for row in exp.rows}
    assert blocks[20] > blocks[400]


def test_ablation_dynamic_flow_control(benchmark):
    exp = run_once(benchmark, ablations.ablation_dynamic)
    print("\n" + exp.render())
    static_row = exp.row("static window")
    small = exp.row("I=2")
    # the extension's trade: much less pinned memory ...
    assert small.get("pinned_MB") < 0.7 * static_row.get("pinned_MB")
    # ... for a modest slowdown while the window ramps
    assert small.get("time_ms") < 1.3 * static_row.get("time_ms")


def test_ablation_threshold(benchmark):
    exp = run_once(benchmark, ablations.ablation_threshold)
    print("\n" + exp.render())
    # a 4 KiB message does better when it stays eager (threshold 5000)
    # than when forced through rendezvous (threshold 2000)
    low = exp.row("T=2000").get("4096B")
    mid = exp.row("T=5000").get("4096B")
    assert mid > low


def test_ablation_credits(benchmark):
    exp = run_once(benchmark, ablations.ablation_credits)
    print("\n" + exp.render())
    times = {row.get("credits"): row.get("time_us") for row in exp.rows}
    # starved flow control throttles the stream
    assert times[2] > times[15]
    # memory grows with the credit count
    mem = {row.get("credits"): row.get("pinned_per_vi_kB") for row in exp.rows}
    assert mem[15] > mem[2]


def test_ablation_rndv_window(benchmark):
    exp = run_once(benchmark, ablations.ablation_rndv_window)
    print("\n" + exp.render())
    bw = {row.get("window"): row.get("bandwidth") for row in exp.rows}
    # serialized handshakes (window 1) lose to pipelined rendezvous
    assert bw[4] > bw[1]


def test_ablation_placement(benchmark):
    exp = run_once(benchmark, ablations.ablation_placement)
    print("\n" + exp.render())
    times = [row.get("time_ms") for row in exp.rows]
    # both placements complete, in the same ballpark
    assert max(times) < 2.0 * min(times)
