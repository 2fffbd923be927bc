"""``via_stream`` — the VIA layer below MPI, driven descriptor by descriptor.

Eight nodes, four sender→receiver pairs.  Each op builds a fresh rig,
peer-connects the pairs, and streams one message size: post a window of
eager sends, run the engine, poll the receive CQ, check and repost each
buffer, poll the send CQ and release each bounce buffer.  ``via.nic``,
``fabric`` and ``memory`` do the work; ``mpi`` does none.  The Berkeley
ops repeat the 64 B stream with 1 and with 32 connected VIs per node
(the paper's Figure 1).  Every op is a few hundred descriptors, 5 to
20 ms of host time.
"""

from __future__ import annotations

import random
from typing import Dict, List

import numpy as np

from repro.via import BERKELEY, CLAN, DescriptorStatus, ViaProfile

from .harness import (
    Op, Outcome, Sample, Workload, best_host, check, clock, cycle_count, cycle_wall,
)
from .via_rig import make_rig

NODES = 8
PAIRS = [(0, 1), (2, 3), (4, 5), (6, 7)]
#: sends in flight per pair: within the 8 bounce buffers and the 16
#: pre-posted receive descriptors of a default VI
WINDOW = 8
RDMA_WINDOW = 4
RDMA_BYTES = 64 * 1024
EAGER_SIZES = (0, 64, 1024, 4096)
#: windows per op
BATCHES = {"eager": 12, "rdma": 12, "vis": 6}
#: connected VIs per node in the ``vis_many`` ops (the paper's Figure 1
#: goes to 32; 16 keeps the 128 connects of the op under 15 ms)
MANY_VIS = 16


class ViaStream(Workload):
    name = "via_stream"

    def __init__(self, seed, scale, spans):
        super().__init__(seed, scale, spans)
        rng = random.Random(seed)
        self.batches = BATCHES
        self.many = MANY_VIS
        #: the seed fixes the order sizes are streamed in and the bytes sent
        self.size_order = list(EAGER_SIZES)
        rng.shuffle(self.size_order)
        noise = np.random.default_rng(seed)
        self.payloads = {
            size: noise.integers(0, 256, size=size, dtype=np.uint8)
            for size in EAGER_SIZES
        }
        self.rdma_payload = noise.integers(0, 256, size=RDMA_BYTES, dtype=np.uint8)

    def ops(self) -> List[Op]:
        b = self.batches
        ops = [
            Op(f"clan.eager.{size}B", lambda size=size: self.eager(CLAN, 1, size, b["eager"]))
            for size in self.size_order
        ]
        ops.append(Op("clan.rdma.64KiB", self.rdma))
        ops.append(Op("clan.vis_many.64B", lambda: self.eager(CLAN, self.many, 64, b["vis"])))
        ops.append(Op("bvia.vis1.64B", lambda: self.eager(BERKELEY, 1, 64, b["vis"])))
        ops.append(Op("bvia.vis_many.64B",
                      lambda: self.eager(BERKELEY, self.many, 64, b["vis"])))
        return ops

    def warm_up(self) -> None:
        self.eager(CLAN, 1, 64, 2)

    # ------------------------------------------------------------- ops --

    def _connected_rig(self, profile: ViaProfile, vis_per_pair: int, out: Outcome):
        """A rig whose pairs each hold ``vis_per_pair`` connected VIs;
        the last round's VIs carry the traffic, the others stay open."""
        start = clock()
        rig = make_rig(NODES, profile)
        for _ in range(vis_per_pair):
            vis = rig.connect_pairs(PAIRS)
        out.host["connect_s"] = clock() - start
        connections = sum(p.connections_established for p in rig.providers)
        out.counts["via.connections"] = connections
        check(out, connections == 2 * len(PAIRS) * vis_per_pair,
              "via: a peer connection was not established")
        return rig, vis

    def eager(self, profile: ViaProfile, vis_per_pair: int, size: int, batches: int) -> Outcome:
        out = Outcome()
        rig, vis = self._connected_rig(profile, vis_per_pair, out)
        engine, providers = rig.engine, rig.providers
        payload = self.payloads[size]
        body = payload if size else None

        # one message alone: its simulated one-way latency
        sent_at = engine.now
        providers[0].post_send(vis[0][0], header=-1, payload=body)
        engine.run()
        probe = providers[1].poll_recv_cq()
        latency_us = probe.completed_at - sent_at
        providers[1].repost_recv(vis[0][1], probe.buffer)
        providers[0].release_send_buffer(providers[0].poll_send_cq())

        intact = True
        delivered = 0
        start = clock()
        for batch in range(batches):
            for (a, _b), (vi_a, _vi_b) in zip(PAIRS, vis):
                post = providers[a].post_send
                for k in range(WINDOW):
                    post(vi_a, header=batch * WINDOW + k, payload=body)
            engine.run()
            for (a, b), (vi_a, vi_b) in zip(PAIRS, vis):
                pa, pb = providers[a], providers[b]
                expect = batch * WINDOW
                while (desc := pb.poll_recv_cq()) is not None:
                    if (desc.status is not DescriptorStatus.SUCCESS
                            or desc.header != expect or desc.length != size
                            or not np.array_equal(desc.buffer.view()[:size], payload)):
                        intact = False
                    expect += 1
                    delivered += 1
                    pb.repost_recv(vi_b, desc.buffer)
                while (desc := pa.poll_send_cq()) is not None:
                    pa.release_send_buffer(desc)
        out.host["stream_s"] = clock() - start
        posted = batches * WINDOW * len(PAIRS)
        check(out, delivered == posted and intact, f"via: eager {size}B payloads not intact")
        drops = sum(n.dropped_no_recv_descriptor + n.dropped_bad_vi for n in rig.nics)
        check(out, drops == 0, "via: NIC dropped a message")
        out.events = engine.events_processed
        out.sim = {
            "end_us": engine.now, "latency_us": round(latency_us, 6),
            "packets": rig.network.packets_delivered, "bytes": rig.network.bytes_delivered,
        }
        out.counts.update({
            "via.descs": posted,
            "fabric.packets": rig.network.packets_delivered,
            "fabric.bytes": rig.network.bytes_delivered,
            "memory.pinned_peak_bytes": sum(
                p.registry.stats.peak_pinned_bytes for p in providers),
        })
        return out

    def rdma(self) -> Outcome:
        out = Outcome()
        rig, vis = self._connected_rig(CLAN, 1, out)
        engine, providers = rig.engine, rig.providers
        src = np.ascontiguousarray(self.rdma_payload)
        targets = []
        for (_a, b), (_vi_a, vi_b) in zip(PAIRS, vis):
            backing = np.zeros(RDMA_WINDOW * RDMA_BYTES, dtype=np.uint8)
            region, _cost = providers[b].registry.register(
                backing.nbytes, protection_tag=vi_b.protection_tag, backing=backing)
            targets.append((backing, region))
        completed = 0
        start = clock()
        for _batch in range(self.batches["rdma"]):
            for (a, _b), (vi_a, _vi_b), (_backing, region) in zip(PAIRS, vis, targets):
                for k in range(RDMA_WINDOW):
                    providers[a].post_rdma_write(vi_a, src, region.handle, k * RDMA_BYTES)
            engine.run()
            for a, _b in PAIRS:
                while (desc := providers[a].poll_send_cq()) is not None:
                    completed += desc.status is DescriptorStatus.SUCCESS
        out.host["stream_s"] = clock() - start
        posted = self.batches["rdma"] * RDMA_WINDOW * len(PAIRS)
        intact = all(
            np.array_equal(backing[k * RDMA_BYTES:(k + 1) * RDMA_BYTES], src)
            for backing, _region in targets for k in range(RDMA_WINDOW)
        )
        check(out, completed == posted and intact, "via: RDMA writes not intact")
        out.events = engine.events_processed
        out.sim = {
            "end_us": engine.now,
            "packets": rig.network.packets_delivered, "bytes": rig.network.bytes_delivered,
            "rdma_received": sum(n.rdma_writes_received for n in rig.nics),
        }
        out.counts.update({
            "via.rdma_writes": posted,
            "fabric.packets": rig.network.packets_delivered,
            "fabric.bytes": rig.network.bytes_delivered,
        })
        return out

    # --------------------------------------------------------- reductions --

    def cycle_checks(self, samples):
        lat = {name: taken[0].outcome.sim.get("latency_us") for name, taken in samples.items()}
        misses = []
        if None in (lat["bvia.vis1.64B"], lat["bvia.vis_many.64B"]) or not (
                lat["bvia.vis_many.64B"] > lat["bvia.vis1.64B"]):
            misses.append("via: Berkeley latency does not grow with active VIs (Fig. 1)")
        if lat["clan.vis_many.64B"] != lat["clan.eager.64B"]:
            misses.append("via: cLAN latency depends on active VIs")
        return 2, misses

    def layer_metrics(self, samples: Dict[str, List[Sample]]) -> Dict[str, float]:
        def host(name: str, key: str) -> float:
            return best_host(samples[name], key)

        eager = [f"clan.eager.{size}B" for size in EAGER_SIZES]
        descs = sum(samples[n][0].outcome.counts["via.descs"] for n in eager)
        stream_s = sum(host(n, "stream_s") for n in eager)
        rdma = samples["clan.rdma.64KiB"][0].outcome.counts["via.rdma_writes"]
        many = samples["bvia.vis_many.64B"]
        sim = {n: samples[n][0].outcome.sim for n in samples}
        return {
            "via.host_us_per_desc_eager": 1e6 * stream_s / descs,
            "via.host_us_per_rdma_write": 1e6 * host("clan.rdma.64KiB", "stream_s") / rdma,
            "via.host_us_per_connect": 1e6 * host("bvia.vis_many.64B", "connect_s")
            / many[0].outcome.counts["via.connections"],
            "via.bvia_vi_slowdown": sim["bvia.vis_many.64B"]["latency_us"]
            / sim["bvia.vis1.64B"]["latency_us"],
            "fabric.host_us_per_packet": 1e6 * cycle_wall(samples)
            / cycle_count(samples, "fabric.packets"),
        }
