"""Collective footprints against what the collectives post.

The analyzer expands every collective call into the ordered
point-to-point sub-operations :mod:`repro.mpi.collectives` performs for
one rank (:func:`repro.analysis.comm.coll_footprint`), and both the
graph and the matching simulation are built on them.  Here every kind,
at every rank count from 1 to 9 and at 16, from every root, runs for
real under trace capture; the sub-sends and sub-receives each rank
posts inside each captured collective call are recorded as they are
posted, and must be the footprint of that call: the same operations
with the same peers in the same order, and the same byte counts
wherever the footprint states one.  (An edge set alone cannot see an
order or a byte count; ``observed ⊆ predicted`` checks only the set.)
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest

from repro.analysis.comm import coll_footprint
from repro.cluster import ClusterSpec, run_job
from repro.mpi import MpiConfig
from repro.via.profiles import CLAN
from repro.workloads.replay import CaptureConfig, RecordingMpiProcess

ROOTLESS = ("barrier", "allreduce", "allgather", "alltoall", "alltoallv")
ROOTED = ("bcast", "reduce", "gather", "scatter")
BLOCK = 3  # float64 elements per rank's block


def every_collective(mpi):
    """Each rootless kind once, then each rooted kind from every root."""
    size, rank = mpi.size, mpi.rank
    block = np.ones(BLOCK)
    yield from mpi.barrier()
    yield from mpi.allreduce(block, np.empty(BLOCK))
    yield from mpi.allgather(block, np.empty(BLOCK * size))
    yield from mpi.alltoall(np.ones(BLOCK * size), np.empty(BLOCK * size))
    ones = [1] * size
    yield from mpi.alltoallv(np.ones(size), ones, list(range(size)),
                             np.empty(size), ones, list(range(size)))
    for root in range(size):
        yield from mpi.bcast(np.ones(BLOCK), root=root)
        yield from mpi.reduce(block, np.empty(BLOCK) if rank == root
                              else None, root=root)
        yield from mpi.gather(block, np.empty(BLOCK * size) if rank == root
                              else None, root=root)
        yield from mpi.scatter(np.ones(BLOCK * size) if rank == root
                               else None, np.empty(BLOCK), root=root)


def _nbytes(buf):
    return int(np.asarray(buf).nbytes)


def posted_sub_ops(monkeypatch, nprocs):
    """Run :func:`every_collective` captured: each rank's collective
    records, each with the sub-operations posted inside it."""
    posted = defaultdict(lambda: defaultdict(list))  # rank -> record -> ops
    send, recv = RecordingMpiProcess._send_coll, RecordingMpiProcess._recv_coll
    sendrecv = RecordingMpiProcess._sendrecv_coll

    def log(mpi, *ops):
        # the sub-operations of the collective call recorded last
        posted[mpi.rank][len(mpi._rec.ops) - 1].extend(ops)

    def send_coll(self, data, dest, tag, comm):
        log(self, ("send", dest, _nbytes(data)))
        return send(self, data, dest, tag, comm)

    def recv_coll(self, buf, source, tag, comm):
        log(self, ("recv", source, _nbytes(buf)))
        return recv(self, buf, source, tag, comm)

    def sendrecv_coll(self, senddata, dest, recvbuf, source, tag, comm):
        log(self, ("send", dest, _nbytes(senddata)),
            ("recv", source, _nbytes(recvbuf)))
        return sendrecv(self, senddata, dest, recvbuf, source, tag, comm)

    monkeypatch.setattr(RecordingMpiProcess, "_send_coll", send_coll)
    monkeypatch.setattr(RecordingMpiProcess, "_recv_coll", recv_coll)
    monkeypatch.setattr(RecordingMpiProcess, "_sendrecv_coll", sendrecv_coll)
    trace = run_job(ClusterSpec(nodes=nprocs, ppn=1, profile=CLAN), nprocs,
                    every_collective, MpiConfig(),
                    capture=CaptureConfig(kernel="collectives")).trace
    for rank, records in enumerate(trace.ops):
        yield rank, [(rec, posted[rank][at])
                     for at, rec in enumerate(records) if rec["op"] == "coll"]


@pytest.mark.parametrize("nprocs", list(range(1, 10)) + [16])
def test_footprints_are_what_the_collectives_post(monkeypatch, nprocs):
    calls = 0
    for rank, colls in posted_sub_ops(monkeypatch, nprocs):
        kinds = [rec["kind"] for rec, _ops in colls]
        assert kinds == list(ROOTLESS) + list(ROOTED) * nprocs
        for rec, ops in colls:
            foot = coll_footprint(rec["kind"], rank, nprocs, rec["root"],
                                  rec["nb"])
            assert foot is not None
            # a byte count the footprint leaves open (alltoallv's, a
            # scatter receive's) is not compared
            seen = [(op, peer, None if want is None else nbytes)
                    for (op, peer, nbytes), (_o, _p, want)
                    in zip(ops, foot)]
            assert seen == list(foot) and len(ops) == len(foot), \
                (rec["kind"], rec["root"], rank)
            calls += 1
    assert calls == nprocs * (len(ROOTLESS) + len(ROOTED) * nprocs)


def test_a_footprint_needs_its_root():
    for kind in ROOTED:
        assert coll_footprint(kind, 0, 4, None, 8) is None
