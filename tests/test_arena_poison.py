"""The suites that move real bytes, re-run with recycled arenas poisoned.

Every arena handed back to the recycler is filled with ``0xA5`` on the
spot and every block handed out is checked to read zero.  Anything that
still reads a torn-down VI's buffers (a stale view, a completion handled
after the teardown) then sees garbage instead of plausible old payload,
and a recycler that clears less than was dirtied is caught at the next
registration.  The poison lives in this module only.

Re-collected here under that fixture: the 21 golden fingerprints, the
VIA and MPI payload-integrity suites, fault injection (channels that
fail with descriptors in flight), the connection cache (eviction and
reconnect mid-job), dynamic flow control (grown pools) and the leak
sanitizer's synthetics.
"""

import pytest

from repro.memory import MemoryRegistry
from repro.memory.arena import ArenaCache

from tests.test_analysis_sanitizers import TestLeakSanitizer  # noqa: F401
from tests.test_chaos_faults import *  # noqa: F401,F403
from tests.test_connection_cache import *  # noqa: F401,F403
from tests.test_dynamic_flow_control import *  # noqa: F401,F403
from tests.test_golden_traces import test_golden_trace_matches  # noqa: F401
from tests.test_mpi_pt2pt import *  # noqa: F401,F403
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
