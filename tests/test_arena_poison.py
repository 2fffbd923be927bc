"""The suites that move real bytes, re-run with recycled arenas poisoned.

Every arena handed back to the recycler is filled with ``0xA5`` on the
spot and every block handed out is checked to read zero.  Anything that
still reads a torn-down VI's buffers (a stale view, a completion handled
after the teardown) then sees garbage instead of plausible old payload,
and a recycler that clears less than was dirtied is caught at the next
registration.  The NIC's RDMA staging blocks get the same treatment:
each is filled with ``0xA5`` the moment it is handed back, so a message
delivered (or retransmitted) after its block returned would deposit
garbage — the lifetime rule of :mod:`repro.memory.arena`, exercised.
The poison lives in this module only.

Re-collected here under that fixture: the 21 golden fingerprints, the
VIA and MPI payload-integrity suites (the advanced semantics and the
NPB kernels for their rendezvous traffic), fault injection (channels
that fail with descriptors in flight), the connection cache (eviction
and reconnect mid-job), dynamic flow control (grown pools) and the leak
sanitizer's synthetics.
"""

import numpy as np
import pytest

from repro.chaos import FaultPlan
from repro.memory import MemoryRegistry
from repro.memory.arena import STAGING, ArenaCache, StagingCache
from repro.via.constants import ViState

from tests import mpi_rig, via_rig
from tests.sim_helpers import peek
from tests.test_analysis_sanitizers import TestLeakSanitizer  # noqa: F401
from tests.test_apps_npb import *  # noqa: F401,F403
from tests.test_chaos_faults import *  # noqa: F401,F403
from tests.test_connection_cache import *  # noqa: F401,F403
from tests.test_dynamic_flow_control import *  # noqa: F401,F403
from tests.test_golden_traces import test_golden_trace_matches  # noqa: F401
from tests.test_mpi_pt2pt import *  # noqa: F401,F403
from tests.test_mpi_semantics_advanced import *  # noqa: F401,F403
from tests.test_via_datapath import *  # noqa: F401,F403

POISON = 0xA5


@pytest.fixture(autouse=True)
def poisoned_arenas(monkeypatch):
    give, take = ArenaCache.give, ArenaCache.take

    def poisoning_give(self, block, dirty_bytes):
        block[:] = POISON
        give(self, block, block.nbytes)

    def checking_take(self, nbytes):
        block = take(self, nbytes)
        assert not block.any(), "a fresh region must read zero"
        return block

    monkeypatch.setattr(ArenaCache, "give", poisoning_give)
    monkeypatch.setattr(ArenaCache, "take", checking_take)

    give_staged = StagingCache.give

    def poisoning_give_staged(self, data):
        data.base[:] = POISON
        give_staged(self, data)

    monkeypatch.setattr(StagingCache, "give", poisoning_give_staged)


def test_the_poison_is_live():
    """The fixture really poisons: a recycled block is 0xA5 while it
    sits on the free list, and zero again when handed out."""
    registry = MemoryRegistry()
    region, _ = registry.register(12_288)
    block = region.data
    registry.deregister(region, dirty_bytes=0)
    assert (block == POISON).all()
    again, _ = registry.register(12_288)
    assert again.data is block and not block.any()


RNDV_BYTES = 64 * 1024


def test_the_staging_poison_is_live():
    """A returned staging block reads 0xA5 while it is cached, and the
    next message of its size class is staged in that very block."""
    data = STAGING.take(RNDV_BYTES)
    block = data.base
    data[:] = 7
    STAGING.give(data)
    del data
    assert (block == POISON).all()
    assert STAGING.take(RNDV_BYTES - 100).base is block


def rndv_exchange(rounds):
    """Rank program: ``rounds`` rendezvous ping-pongs of a payload that
    differs per round and direction; each rank returns how many arrived
    intact.  The sender scribbles over its buffer as soon as ``send``
    returns: what travels is the NIC's staging copy, not the buffer."""

    def pattern(round_, sender):
        return (np.arange(RNDV_BYTES) * (2 * round_ + sender + 1) % 251
                ).astype(np.uint8)

    def program(mpi):
        peer = 1 - mpi.rank
        out = np.empty(RNDV_BYTES, dtype=np.uint8)
        got = np.empty(RNDV_BYTES, dtype=np.uint8)
        intact = 0
        for round_ in range(rounds):
            for sender in (0, 1):
                if mpi.rank == sender:
                    out[:] = pattern(round_, sender)
                    yield from mpi.send(out, peer, tag=round_)
                    out[:] = 0xEE
                else:
                    yield from mpi.recv(got, peer, tag=round_)
                    intact += bool((got == pattern(round_, sender)).all())
        return intact

    return program


def test_overwriting_the_send_buffer_after_wait_changes_nothing():
    before = STAGING.returned
    result = mpi_rig.run(rndv_exchange(6), nprocs=2, nodes=2, ppn=1,
                         connection="static-p2p")
    assert result.returns == [6, 6]
    assert STAGING.returned - before == 12


def test_sequenced_messages_never_return_their_block():
    """Under loss, duplicates and reordering the retransmit table, the
    reorder buffer or a duplicate in the fabric may hold a message after
    its first delivery: no block comes back, every payload is intact."""
    plan = FaultPlan(loss=0.1, duplicate=0.1, reorder=0.2)
    before = STAGING.returned
    result = mpi_rig.run(rndv_exchange(12), nprocs=2, nodes=2, ppn=1,
                         connection="static-p2p", fault_plan=plan)
    assert result.returns == [12, 12]
    assert result.chaos.retransmissions > 0
    assert result.chaos.fabric_duplicated > 0
    assert STAGING.returned == before


def test_early_arrival_returns_its_block_exactly_once():
    """An RDMA write that reaches a VI still CONNECT_PENDING (the peer
    established first and sent at once) is held by the NIC and deposited
    at establishment: intact, and its block comes back once."""
    rig = via_rig.make_rig()
    slow, fast = rig.providers
    vi_slow, _ = slow.create_vi(remote_rank=1)
    vi_fast, _ = fast.create_vi(remote_rank=0)
    region, _ = rig.registries[0].register(
        1024, protection_tag=vi_slow.protection_tag)
    slow.connect_peer_request(vi_slow, 1, 1)
    rig.engine.run()  # the request waits at the peer's agent
    fast.connect_peer_request(vi_fast, 0, 0)
    while not vi_fast.is_connected:
        rig.engine.run(until=peek(rig.engine))
    assert vi_slow.state is ViState.CONNECT_PENDING
    payload = (np.arange(1024) % 251).astype(np.uint8)
    before = STAGING.returned
    fast.post_rdma_write(vi_fast, payload, region.handle)
    rig.engine.run()
    assert rig.nics[0].early_arrivals == 1
    assert rig.nics[0].rdma_writes_received == 1
    assert (region.data == payload).all()
    assert STAGING.returned - before == 1
