"""Unit tests for the fabric model: latency, bandwidth, serialization."""

import random

import numpy as np
import pytest

from repro.apps.npb import KERNELS
from repro.chaos import FaultInjector, FaultPlan
from repro.cluster import ClusterSpec, run_job
from repro.fabric import LinkParams, Network, Packet
from repro.mpi import MpiConfig
from repro.sim import Engine
from repro.telemetry import Telemetry, TelemetryConfig


def make_net(engine, nodes=4, latency=5.0, bw=100.0, overhead=0.0, loopback=1.0):
    params = LinkParams(
        wire_latency_us=latency,
        loopback_latency_us=loopback,
        bandwidth_bytes_per_us=bw,
        per_packet_overhead_us=overhead,
    )
    net = Network(engine, params)
    inboxes = {n: [] for n in range(nodes)}
    for n in range(nodes):
        net.attach(n, lambda pkt, n=n: inboxes[n].append(pkt))
    return net, inboxes


class TestLinkParams:
    def test_tx_time(self):
        # serialization: the per-packet overhead plus the bytes at line
        # rate, paid on the sender's egress port
        net, _ = make_net(Engine(), bw=100.0, overhead=2.0)
        net.send(Packet(src=0, dst=1, wire_bytes=1000, payload=None))
        assert net.port(0).egress_busy_until == pytest.approx(2.0 + 10.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            LinkParams(5.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            LinkParams(-1.0, 1.0, 10.0)


class TestDelivery:
    def test_single_packet_latency(self):
        eng = Engine()
        net, inboxes = make_net(eng, latency=5.0, bw=100.0)
        pkt = Packet(src=0, dst=1, wire_bytes=1000, payload="hello")
        net.send(pkt)
        eng.run()
        # store-and-forward: 2 * (1000/100) + 5
        assert eng.now == pytest.approx(25.0)
        assert inboxes[1] == [pkt]
        assert pkt.latency == pytest.approx(25.0)
        assert pkt.delivered_at == eng.now

    def test_one_way_time_matches_measurement(self):
        eng = Engine()
        net, _ = make_net(eng, latency=5.0, bw=100.0)
        # store and forward: serialized out of the sender's port and into
        # the receiver's, plus the wire
        predicted = 2 * (1000 / 100.0) + 5.0
        net.send(Packet(src=0, dst=1, wire_bytes=1000, payload=None))
        eng.run()
        assert eng.now == pytest.approx(predicted)

    def test_loopback_uses_loopback_latency(self):
        eng = Engine()
        net, inboxes = make_net(eng, latency=5.0, loopback=0.5, bw=100.0)
        net.send(Packet(src=2, dst=2, wire_bytes=100, payload="self"))
        eng.run()
        assert eng.now == pytest.approx(2 * 1.0 + 0.5)
        assert len(inboxes[2]) == 1

    def test_zero_byte_packet_costs_latency_plus_overheads(self):
        eng = Engine()
        net, _ = make_net(eng, latency=5.0, bw=100.0, overhead=1.0)
        net.send(Packet(src=0, dst=1, wire_bytes=0, payload=None))
        eng.run()
        assert eng.now == pytest.approx(2 * 1.0 + 5.0)

    def test_unattached_node_rejected(self):
        eng = Engine()
        net, _ = make_net(eng, nodes=2)
        with pytest.raises(KeyError):
            net.send(Packet(src=0, dst=9, wire_bytes=1, payload=None))

    def test_double_attach_rejected(self):
        eng = Engine()
        net, _ = make_net(eng, nodes=2)
        with pytest.raises(ValueError):
            net.attach(0, lambda p: None)


class TestSerialization:
    def test_egress_serializes_back_to_back_sends(self):
        eng = Engine()
        net, inboxes = make_net(eng, latency=5.0, bw=100.0)
        # two 1000-byte packets injected at t=0 from the same source
        net.send(Packet(src=0, dst=1, wire_bytes=1000, payload=1))
        net.send(Packet(src=0, dst=2, wire_bytes=1000, payload=2))
        eng.run()
        # second egress starts at 10, arrives 10+10+5, rx done +10 = 35
        assert inboxes[1][0].delivered_at == pytest.approx(25.0)
        assert inboxes[2][0].delivered_at == pytest.approx(35.0)

    def test_ingress_serializes_incast(self):
        eng = Engine()
        net, inboxes = make_net(eng, latency=5.0, bw=100.0)
        net.send(Packet(src=0, dst=3, wire_bytes=1000, payload=1))
        net.send(Packet(src=1, dst=3, wire_bytes=1000, payload=2))
        net.send(Packet(src=2, dst=3, wire_bytes=1000, payload=3))
        eng.run()
        times = sorted(p.delivered_at for p in inboxes[3])
        # first arrives at 25; the rest serialize on ingress every 10 µs
        assert times == pytest.approx([25.0, 35.0, 45.0])

    def test_stream_achieves_line_rate(self):
        eng = Engine()
        net, inboxes = make_net(eng, latency=5.0, bw=100.0)
        n, size = 50, 2000
        for _ in range(n):
            net.send(Packet(src=0, dst=1, wire_bytes=size, payload=None))
        eng.run()
        total_bytes = n * size
        # steady state: one packet per tx time; amortized bandwidth -> line rate
        elapsed = eng.now
        achieved = total_bytes / elapsed
        assert achieved > 0.9 * 100.0

    def test_disjoint_pairs_do_not_contend(self):
        eng = Engine()
        net, inboxes = make_net(eng, latency=5.0, bw=100.0)
        net.send(Packet(src=0, dst=1, wire_bytes=1000, payload=None))
        net.send(Packet(src=2, dst=3, wire_bytes=1000, payload=None))
        eng.run()
        assert inboxes[1][0].delivered_at == pytest.approx(25.0)
        assert inboxes[3][0].delivered_at == pytest.approx(25.0)


class TestAccounting:
    def test_port_and_network_counters(self):
        eng = Engine()
        net, _ = make_net(eng)
        net.send(Packet(src=0, dst=1, wire_bytes=100, payload=None))
        net.send(Packet(src=0, dst=1, wire_bytes=200, payload=None))
        eng.run()
        assert net.packets_delivered == 2
        assert net.bytes_delivered == 300
        assert net.port(0).packets_sent == 2
        assert net.port(0).bytes_sent == 300
        assert net.port(1).packets_received == 2
        assert net.port(1).bytes_received == 300

    def test_negative_wire_bytes_rejected(self):
        with pytest.raises(ValueError):
            Packet(src=0, dst=1, wire_bytes=-1, payload=None)

    def test_packet_latency_before_delivery_raises(self):
        pkt = Packet(src=0, dst=1, wire_bytes=1, payload=None)
        with pytest.raises(RuntimeError):
            _ = pkt.latency


def _hop_durations(tel):
    """``(remote, loopback)`` durations of every recorded ``fabric.hop``
    span (the span's track is ``("link", src)``)."""
    remote, loopback = [], []
    for span in tel.spans:
        if span.name == "fabric.hop":
            same_node = span.attrs["dst"] == span.track[1]
            (loopback if same_node else remote).append(
                span.end_us - span.start_us)
    return remote, loopback


class TestLookaheadBound:
    """No cross-node delivery lands sooner than ``wire_latency_us`` after
    the send that caused it: egress starts no earlier than the send, the
    hop adds the wire latency, and ingress occupancy and chaos verdicts
    only add delay."""

    def test_random_traffic_under_every_chaos_verdict(self):
        eng = Engine()
        net, _ = make_net(eng, latency=5.0, loopback=0.5, bw=100.0, overhead=0.3)
        net.telemetry = Telemetry(eng)
        net.injector = FaultInjector(
            eng, FaultPlan(loss=0.1, duplicate=0.2, reorder=0.3, spike=0.1),
            np.random.default_rng(11))
        rng = random.Random(5)

        def traffic():
            for _ in range(400):
                net.send(Packet(src=rng.randrange(4), dst=rng.randrange(4),
                                wire_bytes=rng.randrange(2000), payload=None))
                yield eng.timeout(rng.uniform(0.0, 40.0))

        eng.process(traffic())
        eng.run()
        stats = net.injector.stats
        assert min(stats.dropped, stats.duplicated,
                   stats.reordered, stats.spiked) > 0
        remote, loopback = _hop_durations(net.telemetry)
        bound = net.params.wire_latency_us
        # the bound holds and is not vacuous: small uncontended
        # packets land within a factor of two of it
        assert len(remote) > 200 and bound <= min(remote) < 2 * bound
        # loopback hops are outside the claim, and genuinely under it
        assert loopback and min(loopback) < bound

    @pytest.mark.parametrize("plan", [
        None,
        FaultPlan(loss=0.02, duplicate=0.05, reorder=0.1, spike=0.05),
    ], ids=["plain", "chaos"])
    def test_whole_stack_cg_on_8_ranks(self, plan):
        spec = ClusterSpec(nodes=4, ppn=2, seed=0)
        res = run_job(spec, 8, KERNELS["cg"]("S"), MpiConfig(),
                      telemetry=TelemetryConfig(), fault_plan=plan)
        remote, loopback = _hop_durations(res.telemetry)
        assert len(remote) > 1000 and loopback
        assert min(remote) >= spec.profile.link.wire_latency_us
