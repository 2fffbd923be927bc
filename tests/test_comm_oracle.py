"""The analyzer's graphs against the per-rank oracle of
``tests/comm_oracle.py``.

:mod:`repro.analysis.comm` builds the graph from one event stream per
rank class, counts repeated events once with their multiplicity,
memoises collective footprints and lets a collective that every rank
calls alike pass all ranks at once in the matching simulation.  The
oracle expands every rank's events and every collective instance, adds
one edge per message and matches op by op, sweep by sweep.  Both must
give the same :meth:`CommGraph.as_dict`, diagnostics included — at odd
rank counts, where recursive doubling has its pre- and post-steps and
the rank classes part, over the corpus's generated kernels (deadlocks,
unmatched sends, wildcards and unknown tags among them), over captured
traces, over seeded random class streams, and under ``-m slow`` at 32
and 64 ranks.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import analyze_kernel, analyze_source
from repro.analysis import comm
from repro.analysis.comm import analyze_trace
from repro.analysis.commgraph import CollEvent, MsgEvent
from repro.analysis.interp import Ranked
from repro.cluster import ClusterSpec, run_job
from repro.mpi import MpiConfig
from repro.via.profiles import CLAN
from repro.workloads.registry import KERNEL_DEFS, build_program
from repro.workloads.replay import CaptureConfig

from tests import comm_oracle
from tests.interp_corpus import GENERATED_SEEDS, generated_kernel

SOURCE_KERNELS = sorted(name for name, spec in KERNEL_DEFS.items()
                        if spec.trace is None)


def _graph(analyze, *args, **kwargs):
    """The graph as a dict, or the error an analysis stops with."""
    try:
        return analyze(*args, **kwargs).as_dict()
    except Exception as exc:  # noqa: BLE001 - the error is the oracle
        return f"{type(exc).__name__}: {exc}"


def _same_kernel(name, nprocs):
    assert _graph(analyze_kernel, name, nprocs) \
        == _graph(comm_oracle.analyze_kernel, name, nprocs), (name, nprocs)


@pytest.mark.parametrize("name", SOURCE_KERNELS)
def test_registered_kernels_match_the_oracle(name):
    for nprocs in (3, 5, 6, 7):
        _same_kernel(name, nprocs)


def _same_source(source, nprocs, factory="make", kwargs=None,
                 module_name="commtest"):
    ours = _graph(analyze_source, source, factory, nprocs, kwargs=kwargs,
                  module_name=module_name)
    theirs = _graph(comm_oracle.analyze_source, source, factory, nprocs,
                    kwargs=kwargs, module_name=module_name)
    assert ours == theirs, (source, nprocs)
    return ours


def test_generated_kernels_match_the_oracle():
    seen = set()
    for seed in GENERATED_SEEDS:
        for nprocs in (2, 5):
            graph = _same_source(generated_kernel(seed), nprocs)
            if isinstance(graph, dict):
                seen.update(d["code"] for d in graph["diagnostics"])
    # the corpus reaches every diagnostic the builder and matcher give
    assert seen == {"REPROC01", "REPROC02", "REPROC03", "REPROC04"}


#: collectives mixed with point-to-point: a leaf of a broadcast sends
#: on before the ranks after it in the tree have reached it, so no
#: collective can hold its ranks until all have arrived
NOT_SYNCHRONIZING = """
def make():
    def kernel(mpi):
        rank = mpi.rank
        size = mpi.size
        if rank == 1:
            yield from mpi.recv(None, source=0, tag=5)
        yield from mpi.bcast(None, root=0)
        if rank == 0:
            yield from mpi.send(None, 1, tag=5)
        yield from mpi.allreduce(None)
        yield from mpi.barrier()
    return kernel
"""

#: the same, with one rank that never reaches the second collective
STUCK_IN_A_COLLECTIVE = """
def make():
    def kernel(mpi):
        rank = mpi.rank
        yield from mpi.allreduce(None)
        if rank == 2:
            yield from mpi.recv(None, source=1, tag=9)
        yield from mpi.barrier()
    return kernel
"""


@pytest.mark.parametrize("source", [NOT_SYNCHRONIZING,
                                    STUCK_IN_A_COLLECTIVE])
def test_collectives_that_cannot_all_be_held_match_the_oracle(source):
    for nprocs in (2, 3, 4, 5, 8):
        _same_source(source, nprocs)
    graph = analyze_source(source, "make", 4)
    assert graph.params["matching_checked"]


def test_captured_traces_match_the_oracle():
    """A trace is N classes of one rank each."""
    for kernel, nprocs in (("pingpong", 2), ("cg", 4), ("is", 4)):
        trace = run_job(ClusterSpec(nodes=nprocs, ppn=1, profile=CLAN),
                        nprocs, build_program(kernel, "S"), MpiConfig(),
                        capture=CaptureConfig(kernel=kernel)).trace
        assert analyze_trace(trace).as_dict() \
            == comm_oracle.analyze_trace(trace).as_dict()


KINDS = ("barrier", "allreduce", "allgather", "alltoall", "alltoallv",
         "bcast", "reduce", "gather", "scatter")
ROOTED = ("bcast", "reduce", "gather", "scatter")


def _event(rng, size, rank):
    """A random event of one rank: now and then uncertain, out of range,
    a wildcard, of unknown tag or size, or a collective without a root."""
    if rng.random() < 0.35:
        kind = rng.choice(KINDS)
        # a root of -1 names no rank: REPROC03, and no rank receives a
        # gather
        root = rng.choice([0, size - 1, -1,
                           None if rng.random() < 0.05 else 0]) \
            if kind in ROOTED else None
        return CollEvent(kind, root, rng.choice([8, 16, None]),
                         rng.random() > 0.02, rng.randrange(1, 30))
    op = rng.choice(["send", "send", "recv", "recv", "probe"])
    wildcard = op != "send" and rng.random() < 0.1
    peer = None if wildcard else rng.choice(
        [(rank + 1) % size, (rank - 1) % size, rng.randrange(size), 0,
         size + 3 if rng.random() < 0.03 else 0])
    tag = rng.choice([0, 1, 2, None]) if rng.random() < 0.3 \
        else rng.choice([0, 1])
    return MsgEvent(op, peer, wildcard, tag, rng.choice([8, None]),
                    rng.random() > 0.02, rng.randrange(1, 30))


def _classes(rng, size):
    """Ranks dealt into one to three classes, each with a stream of
    shared events and :class:`Ranked` ones (an arm's None among them)."""
    ranks = list(range(size))
    rng.shuffle(ranks)
    parts = rng.choice([1, 1, 2, 3])
    classes = []
    for part in filter(None, (sorted(ranks[i::parts]) for i in range(parts))):
        members = tuple(enumerate(part))
        events = []
        for _ in range(rng.randrange(25)):
            if rng.random() < 0.5:
                events.append(_event(rng, size, part[0]))
                continue
            alike = _event(rng, size, part[0])
            events.append(Ranked([
                None if rng.random() < 0.15
                else alike if isinstance(alike, CollEvent) and rng.random() < 0.7
                else _event(rng, size, rank) for _p, rank in members]))
        classes.append(comm.RankClass(members, events))
    return classes


def _lockstep(rng, size):
    """One class calling the same collectives, with a message between
    two of them that only some ranks take part in."""
    events = [CollEvent(rng.choice(KINDS), rng.choice([0, size - 1, -1]), 8,
                        True, line) for line in range(rng.randrange(1, 12))]
    if rng.random() < 0.5:
        at, who = rng.randrange(len(events) + 1), rng.randrange(size)
        events.insert(at, Ranked([
            MsgEvent("send", (rank + 1) % size, False, 5, 8, True, 40)
            if rank == who else
            MsgEvent("recv", who, False, 5, 8, True, 41)
            if rank == (who + 1) % size else None for rank in range(size)]))
    return [comm.RankClass(tuple(enumerate(range(size))), events)]


def test_random_class_streams_match_the_oracle():
    """Class streams the interpreter rarely makes — several classes,
    collectives that differ by rank, arms, deadlocks — straight into
    both builders."""
    seen = set()
    for seed in range(2_000):
        rng = random.Random(seed)
        size = rng.choice([1, 2, 3, 4, 5, 8])
        classes = (_lockstep if rng.random() < 0.3 else _classes)(rng, size)
        per_rank = comm_oracle.rank_streams(classes, size)
        ours = comm._build_graph("fuzz", size, {}, classes).as_dict()
        assert ours == comm_oracle._build_graph("fuzz", size, {},
                                                per_rank).as_dict(), seed
        seen.update(d["code"] for d in ours["diagnostics"])
    assert seen == {"REPROC01", "REPROC02", "REPROC03", "REPROC04"}


@pytest.mark.slow
@pytest.mark.parametrize("name", ["cg", "is", "sp", "ring", "lu", "pipeline"])
@pytest.mark.parametrize("nprocs", [32, 64])
def test_kernels_at_scale_match_the_oracle(name, nprocs):
    _same_kernel(name, nprocs)
