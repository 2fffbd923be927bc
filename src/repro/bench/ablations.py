"""Ablation studies over the library's design knobs.

Not part of the paper's evaluation, but each sweep isolates one design
choice the reproduction (and MVICH itself) bakes in:

* ``ablation_threshold`` — where should eager end and rendezvous begin?
  (the paper observes "a threshold greater than 5000 is expected to
  deliver better performance", §5.3)
* ``ablation_credits`` — how many pre-posted buffers does a one-way
  stream need before flow control stops throttling it?
* ``ablation_rndv_window`` — how many concurrent rendezvous transfers
  until large-message bandwidth saturates?
* ``ablation_spincount`` — the spin window's tipping point between
  "spinwait == polling" and the barrier blow-up of Figure 4.
* ``ablation_dynamic`` — the §6 extension's trade: pinned memory vs.
  time as the initial window shrinks.
* ``ablation_placement`` — block vs. cyclic rank placement for an NPB
  kernel (loopback traffic vs. wire traffic).
"""

from __future__ import annotations

from repro.apps import micro
from repro.apps.npb import KERNELS
from repro.bench.report import Claims, Experiment, Record
from repro.cluster import ClusterSpec, run_job
from repro.mpi import MpiConfig
from repro.via.profiles import CLAN


def _two_nodes() -> ClusterSpec:
    return ClusterSpec(nodes=2, ppn=1, profile=CLAN)


def ablation_threshold() -> Experiment:
    """Bandwidth at fixed sizes as the eager/rendezvous threshold moves."""
    probe_sizes = [4096, 8192, 16384]
    exp = Experiment(
        "Ablation: eager threshold",
        "Bandwidth (MB/s) by protocol threshold",
        ["threshold"] + [f"{s}B" for s in probe_sizes],
        notes=("§5.3: the paper expects thresholds above 5000 B to help — "
               "mid-size messages avoid the rendezvous handshake."),
    )
    for threshold in (2000, 5000, 10000):
        res = run_job(_two_nodes(), 2, micro.bandwidth(probe_sizes),
                      MpiConfig(eager_threshold=threshold))
        row = {f"{s}B": bw for (s, bw) in res.returns[0]}
        exp.add(f"T={threshold}", threshold=threshold, **row)
    return exp


def _threshold_shape(claim: Claims) -> None:
    claim(claim.exp.row("T=5000").get("4096B")
          > claim.exp.row("T=2000").get("4096B"), "T=5000",
          "a 4 KiB message does better eager than forced through rendezvous")


def ablation_credits() -> Experiment:
    """One-way small-message stream throughput vs. credit count."""
    n = 150

    def one_way(mpi):
        import numpy as np

        if mpi.rank == 0:
            reqs = [mpi.isend(np.zeros(512, dtype=np.uint8), 1, tag=0)
                    for _ in range(n)]
            yield from mpi.waitall(reqs)
            return mpi.wtime()
        buf = np.empty(512, dtype=np.uint8)
        for _ in range(n):
            yield from mpi.recv(buf, source=0, tag=0)
        return mpi.wtime()

    exp = Experiment(
        "Ablation: eager credits",
        "One-way stream completion time (µs) vs. per-VI credits",
        ["credits", "time_us", "pinned_per_vi_kB"],
        notes="Fewer credits throttle the stream; more pin more memory.",
    )
    for credits in (2, 6, 15):
        cfg = MpiConfig(data_credits=credits)
        res = run_job(_two_nodes(), 2, one_way, cfg)
        per_vi = (cfg.prepost_count + cfg.send_pool_count) * cfg.eager_threshold
        exp.add(f"C={credits}", credits=credits,
                time_us=max(res.returns),
                pinned_per_vi_kB=per_vi / 1000.0)
    return exp


def _credits_shape(claim: Claims) -> None:
    times = claim.by("credits", "time_us")
    pinned = claim.by("credits", "pinned_per_vi_kB")
    claim(times[2] > times[15], "C=2", "starved flow control throttles the stream")
    claim(pinned[15] > pinned[2], "C=15", "memory grows with the credit count")


def ablation_rndv_window() -> Experiment:
    """Large-message bandwidth vs. outstanding-rendezvous window."""
    exp = Experiment(
        "Ablation: rendezvous window",
        "64 KiB-message bandwidth (MB/s) vs. RTS window",
        ["window", "bandwidth"],
        notes="Window 1 serializes handshakes; a few in flight pipeline.",
    )
    for window in (1, 4):
        res = run_job(_two_nodes(), 2,
                      micro.bandwidth([65536], window=8, iterations=4),
                      MpiConfig(rndv_window=window))
        exp.add(f"W={window}", window=window, bandwidth=res.returns[0][0][1])
    return exp


def _rndv_window_shape(claim: Claims) -> None:
    bw = claim.by("window", "bandwidth")
    claim(bw[4] > bw[1], "W=4", "pipelined rendezvous beats serialized handshakes")


def ablation_spincount() -> Experiment:
    """Barrier latency vs. spincount: where spinwait tips over."""
    nprocs = 16
    exp = Experiment(
        "Ablation: spincount",
        f"{nprocs}-process barrier latency (µs) vs. spincount",
        ["spincount", "spinwait_us", "polling_us", "blocking_waits"],
        notes=("Below the tipping point every wait overruns the spin "
               "window and pays wakeups; above it spinwait == polling."),
    )
    spec = ClusterSpec(nodes=8, ppn=2)
    polling = run_job(spec, nprocs, micro.barrier_latency(iterations=50),
                      MpiConfig(completion="polling"))
    for spincount in (20, 100, 400):
        res = run_job(spec, nprocs, micro.barrier_latency(iterations=50),
                      MpiConfig(completion="spinwait", spincount=spincount))
        blocks = sum(p.blocking_waits for p in res.resources.per_process)
        exp.add(f"S={spincount}", spincount=spincount,
                spinwait_us=res.returns[0], polling_us=polling.returns[0],
                blocking_waits=blocks)
    return exp


def _spincount_shape(claim: Claims) -> None:
    spin = claim.by("spincount", "spinwait_us")
    blocks = claim.by("spincount", "blocking_waits")
    polling = claim.exp.rows[0].get("polling_us")
    claim(spin[20] > 2.0 * polling, "S=20",
          "a short spin window blows the barrier up (> 2x polling)")
    claim(abs(spin[400] - polling) / polling < 0.05, "S=400",
          "a long spin window converges to polling (5 %)")
    claim(blocks[20] > blocks[400], "S=20", "a short spin window blocks more")


def ablation_dynamic() -> Experiment:
    """§6 extension: initial window size vs. memory and runtime."""
    nprocs = 16
    exp = Experiment(
        "Ablation: dynamic flow control",
        "CG.S.16: pinned memory and time vs. initial credit window",
        ["initial", "pinned_MB", "time_ms"],
        notes=("Small initial windows pin far less memory; growth grants "
               "recover most of the throughput."),
    )
    spec = ClusterSpec(nodes=8, ppn=2)
    base = run_job(spec, nprocs, KERNELS["cg"]("S"), MpiConfig())
    exp.add("static window", initial=MpiConfig().data_credits,
            pinned_MB=base.resources.total_pinned_peak_bytes / 1e6,
            time_ms=base.returns[0].time_us / 1e3)
    for initial in (2, 8):
        cfg = MpiConfig(dynamic_buffers=True, initial_credits=initial)
        res = run_job(spec, nprocs, KERNELS["cg"]("S"), cfg)
        exp.add(f"I={initial}", initial=initial,
                pinned_MB=res.resources.total_pinned_peak_bytes / 1e6,
                time_ms=res.returns[0].time_us / 1e3)
    return exp


def _dynamic_shape(claim: Claims) -> None:
    static, small = claim.exp.row("static window"), claim.exp.row("I=2")
    claim(small.get("pinned_MB") < 0.7 * static.get("pinned_MB"), "I=2",
          "a small initial window pins much less memory (< 70 %)")
    claim(small.get("time_ms") < 1.3 * static.get("time_ms"), "I=2",
          "for a modest slowdown while the window ramps (< 130 %)")


def ablation_placement() -> Experiment:
    """Block vs. cyclic rank placement for CG (loopback locality)."""
    exp = Experiment(
        "Ablation: rank placement",
        "CG time (ms) under block vs. cyclic placement",
        ["placement", "time_ms"],
        notes=("Placement changes which partners are NIC-loopback; the "
               "effect is small on cLAN but nonzero."),
    )
    for placement in ("cyclic", "block"):
        spec = ClusterSpec(nodes=8, ppn=2, placement=placement)
        res = run_job(spec, 16, KERNELS["cg"]("S"), MpiConfig())
        exp.add(placement, placement=placement,
                time_ms=res.returns[0].time_us / 1e3)
    return exp


def _placement_shape(claim: Claims) -> None:
    times = claim.exp.column("time_ms")
    claim(max(times) < 2.0 * min(times), "every row",
          "both placements land in the same ballpark (< 2x)")


ALL_ABLATIONS = {
    "abl-threshold": Record(ablation_threshold, _threshold_shape),
    "abl-credits": Record(ablation_credits, _credits_shape),
    "abl-rndv": Record(ablation_rndv_window, _rndv_window_shape),
    "abl-spin": Record(ablation_spincount, _spincount_shape),
    "abl-dynamic": Record(ablation_dynamic, _dynamic_shape),
    "abl-placement": Record(ablation_placement, _placement_shape),
}
