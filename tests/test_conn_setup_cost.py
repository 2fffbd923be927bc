"""Host cost of a connection and of a rank, by count (deterministic,
no timing).

Establishing and polling a connection must cost the host O(1): no
backing allocation once arenas have been recycled, no per-poll scan of
connecting or credit-owing channels, no descriptor built before a
message needs it, and the same frames per connection at any job size.
A rank builds only what it uses: no random stream it never draws from,
no private copy of the world group.  Each test counts calls through the
one function the work would have to go through, or frames.
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import sys
import weakref
from fractions import Fraction

import numpy as np
import pytest

from repro.cluster import job as job_module
from repro.cluster.job import run_kernel_cell
from repro.memory import arena
from repro.memory import registry as registry_module
from repro.memory.buffer_pool import BufferPool
from repro.memory.registry import MemoryRegistry
from repro.mpi import facade as facade_module
from repro.mpi.adi import AbstractDevice
from repro.mpi.channel import Channel
from repro.mpi.facade import MpiProcess
from repro.sim import process as process_module
from repro.sim.process import Process
from repro.via import provider as provider_module
from repro.via.descriptor import Descriptor
from repro.via.provider import ViaProvider

from tests import mpi_rig
from tests.counting import count_calls, count_frames, record_instances


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


# -- what a connection and a rank cost the host, by count ------------------

def idle(mpi):
    """A rank program that does nothing: the job is MPI_Init and
    MPI_Finalize alone."""
    return None
    yield


def static_mesh(nprocs):
    """Frames entered under ``repro/`` (by package) and events of an
    idle static-p2p job on ``nprocs`` ranks, one per node, counted on
    its second run: the arena cache of its own that the first run
    filled then serves every registration the same way."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(registry_module, "ARENAS", arena.ArenaCache())
        mpi_rig.run(idle, nprocs=nprocs, nodes=nprocs, ppn=1,
                    connection="static-p2p")
        with count_frames("/repro/") as seen:
            result = mpi_rig.run(idle, nprocs=nprocs, nodes=nprocs, ppn=1,
                                 connection="static-p2p")
    counts = dict(seen.by_layer, events=result.events_processed)
    return {key: Fraction(value) for key, value in counts.items()}


@pytest.fixture(scope="module")
def meshes():
    return {n: static_mesh(n) for n in (4, 8, 16, 32)}


def per_connection(meshes, n):
    """Each count per connection (one VI: ``N(N-1)`` in an ``N``-rank
    mesh) over the step from ``n`` to ``2n`` ranks.  A count is
    ``a + b N + c N(N-1)``; the step from ``n/2`` to ``n`` takes the
    per-rank share ``b`` out, which leaves ``c``."""
    def step(m):
        return {key: meshes[2 * m].get(key, 0) - meshes[m].get(key, 0)
                for key in meshes[2 * m]}

    wide, narrow = step(n), step(n // 2)
    return {key: 2 * (wide[key] - 2 * narrow.get(key, 0)) / (3 * n * n)
            for key in wide}


#: frames one static-p2p connection enters, by package (107 in all
#: before the agent queued bound handlers instead of closures and the
#: VI-state property, pages_for and per-VI cost-sum frames went)
CONNECTION_FRAMES = {"via": 40, "memory": 18, "mpi": 9, "sim": 7,
                     "fabric": 6}


@pytest.mark.parametrize("n", [8, 16], ids=["8-16", "16-32"])
def test_static_connection_frames_are_flat_in_n(meshes, n):
    cost = per_connection(meshes, n)
    assert cost["events"] == 6
    frames = {layer: cost.get(layer, 0) for layer in CONNECTION_FRAMES}
    assert frames == CONNECTION_FRAMES
    assert sum(cost[key] for key in cost if key != "events") == 80
    # the same count at either step: no per-connection cost grows with N
    assert cost == per_connection(meshes, 8)


def test_barrier_cell_makes_no_generator(monkeypatch):
    made = count_calls(monkeypatch, np.random, "default_rng")
    barrier(8, 4, 2, connection="ondemand")
    barrier(8, 4, 2)
    assert made[0] == 0


def test_computing_cell_makes_one_jitter_generator_per_rank(monkeypatch):
    original = np.random.default_rng
    callers = collections.Counter()

    def default_rng(*args, **kwargs):
        callers[sys._getframe(1).f_code.co_filename] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    facades = record_instances(monkeypatch, job_module, MpiProcess)
    run_kernel_cell("ep", "S", 4, 4, 1, "clan", "ondemand", 0)
    assert len(facades) == 4
    in_mpi = {path: count for path, count in callers.items()
              if "/repro/mpi/" in path}
    assert in_mpi == {facade_module.__file__: 4}
    assert all(f._jitter_rng is not None for f in facades)


def test_ranks_of_a_job_share_one_world_group(monkeypatch):
    facades = record_instances(monkeypatch, job_module, MpiProcess)
    barrier(8, 4, 2)
    groups = [f.COMM_WORLD.group for f in facades]
    assert len(groups) == 8
    assert all(group is groups[0] for group in groups)
    assert groups[0].ranks == tuple(range(8))


def test_finished_ranks_are_freed_by_reference_counting(monkeypatch):
    """The device and its connection manager, and a pool and the
    buffers it handed out, point at each other while the job runs; a
    finished job lets go of them without the cyclic collector."""
    devices = record_instances(monkeypatch, job_module, AbstractDevice)
    pools = record_instances(monkeypatch, provider_module, BufferPool)
    gc.disable()
    try:
        barrier(8, 4, 2, connection="ondemand")
        assert len(devices) == 8 and pools
        refs = [weakref.ref(obj) for obj in devices + pools]
        devices.clear()
        pools.clear()
        assert [ref for ref in refs if ref() is not None] == []
    finally:
        gc.enable()


def chatter(mpi):
    out = np.empty(4)
    yield from mpi.barrier()
    yield from mpi.allreduce(np.ones(4), out)
    return float(out[0])


@pytest.mark.parametrize("connection", ["ondemand", "static-cs"])
def test_finished_rank_processes_are_freed_by_reference_counting(
        monkeypatch, connection):
    """A rank's process lets go of its bound callback and its
    generators when it finishes: dropping the job's result frees it."""
    procs = record_instances(monkeypatch, process_module, Process)
    gc.disable()
    try:
        result = mpi_rig.run(chatter, nprocs=4, nodes=4, ppn=1,
                             connection=connection)
        assert result.returns == [4.0] * 4 and len(procs) == 4
        refs = [weakref.ref(proc) for proc in procs]
        procs.clear()
        del result
        assert [ref for ref in refs if ref() is not None] == []
    finally:
        gc.enable()
