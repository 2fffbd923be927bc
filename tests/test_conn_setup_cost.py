"""Host cost of a connection, by count (deterministic, no timing).

Establishing and polling a connection must cost the host O(1): no
backing allocation once arenas have been recycled, no per-poll scan of
connecting or credit-owing channels, no descriptor built before a
message needs it.  Each test counts calls through the one function the
work would have to go through.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster import job as job_module
from repro.cluster.job import run_kernel_cell
from repro.memory import arena
from repro.memory.registry import MemoryRegistry
from repro.mpi.adi import AbstractDevice
from repro.mpi.channel import Channel
from repro.via.descriptor import Descriptor
from repro.via.provider import ViaProvider

from tests.counting import count_calls, record_instances


def barrier(nprocs, nodes, ppn, connection="static-p2p", seed=3):
    return run_kernel_cell(
        "barrier", "S", nprocs, nodes, ppn, "clan", connection, seed)


def test_second_cell_allocates_no_backing(monkeypatch):
    registries = record_instances(monkeypatch, job_module, MemoryRegistry)
    carves = count_calls(monkeypatch, arena.ArenaCache, "_carve")

    def stats():
        out = sorted(
            (reg.label, dataclasses.astuple(reg.stats)) for reg in registries)
        registries.clear()
        return out

    first = barrier(8, 4, 2)
    first_stats = stats()
    assert carves[0] > 0 or arena.ARENAS.cached_bytes > 0
    carves[0] = 0
    second = barrier(8, 4, 2)
    assert carves[0] == 0, "a warmed-up cell carved fresh backing"
    assert stats() == first_stats
    assert second == first
    assert first["pinned_peak_bytes"] == 8 * 7 * 24 * 5000


def test_static_init_checks_per_connection_not_per_poll(monkeypatch):
    devices = record_instances(monkeypatch, job_module, AbstractDevice)
    done_checks = count_calls(monkeypatch, ViaProvider, "connect_peer_done")

    class CountingChannels(dict):
        walks = 0

        def values(self):
            CountingChannels.walks += 1
            return super().values()

        def __iter__(self):
            CountingChannels.walks += 1
            return super().__iter__()

        def items(self):
            CountingChannels.walks += 1
            return super().items()

    original_init = AbstractDevice.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.channels = CountingChannels()

    monkeypatch.setattr(AbstractDevice, "__init__", init)
    cell = barrier(32, 8, 4)
    connections = 32 * 31
    assert cell["total_connections"] == connections
    assert done_checks[0] <= 4 * connections
    polls = sum(adi.device_checks for adi in devices)
    assert polls > 10 * 32
    # settled()/has_pending_outbound() walk no channel table: what is
    # left is a fixed handful of walks per rank (setup verdict, resource
    # snapshot, finalize), however often the rank polled
    assert CountingChannels.walks <= 8 * 32


def test_explicit_credit_predicate_runs_per_due_channel(monkeypatch):
    evaluations = count_calls(
        monkeypatch, Channel, "should_send_explicit_credits")
    devices = record_instances(monkeypatch, job_module, AbstractDevice)
    run_kernel_cell("cg", "S", 16, 8, 2, "clan", "ondemand", 1)
    received = sum(
        ch.messages_received for adi in devices for ch in adi.channels.values())
    polls = sum(adi.device_checks for adi in devices)
    assert received > 0 and polls > received
    assert evaluations[0] <= received


def test_descriptors_are_built_when_needed(monkeypatch):
    built = count_calls(monkeypatch, Descriptor, "__init__")
    providers = record_instances(monkeypatch, job_module, ViaProvider)
    barrier(64, 16, 4)
    vis = sum(p.vis_created for p in providers)
    assert vis == 64 * 63
    nics = {id(p.nic): p.nic for p in providers}.values()
    consumed = sum(n.messages_received for n in nics)
    posted = sum(n.messages_sent for n in nics)
    prepost = providers[0].config.prepost_count
    per_vi = 2
    assert per_vi < prepost
    assert built[0] <= consumed + posted + per_vi * vis
    # far from one per pre-posted buffer
    assert built[0] < vis * prepost // 4


@pytest.mark.parametrize("connection", ["static-p2p", "ondemand"])
def test_pending_outbound_matches_channel_scan(monkeypatch, connection):
    """The O(1) ``has_pending_outbound`` agrees with the per-channel
    scan it replaced at every poll of a whole job."""
    original = AbstractDevice.progress_pass
    checked = [0]

    def progress_pass(self):
        result = original(self)
        scan = bool(self._awaiting_cts or self._awaiting_ack) or any(
            ch.pending_count for ch in self.channels.values())
        assert self.has_pending_outbound() == scan
        checked[0] += 1
        return result

    # the pass every poll goes through, whether wait_until or the
    # device_check generator entered it
    monkeypatch.setattr(AbstractDevice, "progress_pass", progress_pass)
    run_kernel_cell("is", "S", 4, 4, 1, "clan", connection, 0)
    assert checked[0] > 100
