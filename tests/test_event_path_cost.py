"""Host cost of one simulated event, by count (deterministic, no timing).

Every simulated statistic is bought one event at a time, so the Python
frames an event enters are the simulator's unit price.  Each bound here
is the difference between a short and a long run of the same program
(set-up cancels), counted by :func:`tests.counting.count_frames`.
"""

from __future__ import annotations

import collections
import inspect
import sys
import types

import numpy as np
import pytest

from repro.cluster import build as build_module
from repro.cluster import job as job_module
from repro.memory.arena import StagingCache
from repro.mpi.adi import AbstractDevice, as_bytes
from repro.sim import Engine, Signal, any_of
from repro.sim.engine import TraceHook
from repro.via import nic as nic_module

from tests import mpi_rig
from tests.counting import count_frames, record_instances

SHORT, LONG = 10, 110


def timeout_run(processes, steps):
    """Frames inside ``repro/sim`` and events for ``steps`` timeout
    yields in each of ``processes`` processes."""
    engine = Engine()

    def churn():
        for _ in range(steps):
            yield engine.timeout(1.0)

    for _ in range(processes):
        engine.process(churn())
    with count_frames("repro/sim") as seen:
        engine.run()
    return seen.frames, engine.events_processed


def signal_run(pairs, rounds):
    """The same for ``rounds`` wait / timeout / fire rounds in each of
    ``pairs`` waiter-firer pairs."""
    engine = Engine()

    def waiter(signal):
        for _ in range(rounds):
            yield signal.wait()

    def firer(signal):
        for _ in range(rounds):
            yield engine.timeout(1.0)
            signal.fire()

    for pair in range(pairs):
        signal = Signal(engine, f"s{pair}")
        engine.process(waiter(signal))
        engine.process(firer(signal))
    with count_frames("repro/sim") as seen:
        engine.run()
    return seen.frames, engine.events_processed


def per_unit(run, width, bound, events_each):
    (short_frames, short_events) = run(width, SHORT)
    (long_frames, long_events) = run(width, LONG)
    units = width * (LONG - SHORT)
    assert long_events - short_events == events_each * units
    frames = (long_frames - short_frames) / units
    assert frames <= bound
    return frames


def test_timeout_yield_enters_two_sim_frames():
    # Engine.timeout and Process._resume; flat in the process count
    assert per_unit(timeout_run, 8, 2, 1) == per_unit(timeout_run, 64, 2, 1)


def test_signal_round_enters_six_sim_frames():
    # waiter: _resume, wait;  firer: _resume, timeout;  fire: fire, succeed
    assert per_unit(signal_run, 8, 6, 2) == per_unit(signal_run, 64, 6, 2)


def race_run(pairs, rounds):
    """The same for ``rounds`` rounds in each of ``pairs`` ping-pong
    pairs whose every wait is an ``any_of`` race between the signal and
    a guard timeout that loses and is absorbed later."""
    engine = Engine()

    def player(mine, theirs, serve):
        if serve:
            theirs.fire()
        for _ in range(rounds):
            yield any_of(engine, [mine.wait(), engine.timeout(50.0)])
            yield engine.timeout(1.0)
            theirs.fire()

    for pair in range(pairs):
        a, b = Signal(engine, f"a{pair}"), Signal(engine, f"b{pair}")
        engine.process(player(a, b, True))
        engine.process(player(b, a, False))
    with count_frames("repro/sim") as seen:
        engine.run()
    return seen.frames, engine.events_processed


def test_any_of_race_enters_a_fixed_number_of_sim_frames():
    # per player and round (4 events: wait, any-of, think, guard):
    # _resume twice, wait, timeout twice, any_of, fire, succeed for the
    # waiter, the race's callback twice (the guard is absorbed) and its
    # succeed: 11
    assert per_unit(race_run, 8, 22, 8) == per_unit(race_run, 64, 22, 8)


def test_any_of_inputs_share_one_bound_callback():
    engine = Engine()
    signal = Signal(engine)
    waited, guard = signal.wait(), engine.timeout(5.0)
    any_of(engine, [waited, guard])
    (on_wait,), (on_guard,) = waited.callbacks, guard.callbacks
    # no closure per input: one bound method, the same for both inputs
    assert on_wait is on_guard
    assert isinstance(on_wait, types.MethodType)


def pingpong(messages, nbytes=64, connection="static-p2p"):
    """Count a 2-rank ping-pong of ``messages`` messages of ``nbytes``
    (64: eager); returns the frame count, the job result and the
    devices' own count of their progress passes."""

    def program(mpi):
        buf = np.zeros(nbytes, dtype=np.uint8)
        peer = 1 - mpi.rank
        for _ in range(messages // 2):
            if mpi.rank == 0:
                yield from mpi.send(buf, peer, tag=1)
                yield from mpi.recv(buf, peer, tag=1)
            else:
                yield from mpi.recv(buf, peer, tag=1)
                yield from mpi.send(buf, peer, tag=1)

    with pytest.MonkeyPatch.context() as patch:
        devices = record_instances(patch, job_module, AbstractDevice)
        with count_frames("/repro/") as seen:
            result = mpi_rig.run(
                program, nprocs=2, nodes=2, ppn=1, connection=connection)
    return seen, result, sum(adi.device_checks for adi in devices)


@pytest.fixture(scope="module")
def pingpong_pair():
    return pingpong(20), pingpong(220)


def test_eager_message_frame_and_event_budget(pingpong_pair):
    (short, short_result, _), (long, long_result, _) = pingpong_pair
    events = long_result.events_processed - short_result.events_processed
    assert events == 9 * 200
    assert (long.frames - short.frames) / 200 <= 82
    # the two layers that own the message (the rest: sim, fabric and
    # memory; a rank resumed inside its program enters no lifecycle
    # frame in cluster)
    assert (long.by_layer["mpi"] - short.by_layer["mpi"]) / 200 <= 40
    assert (long.by_layer["via"] - short.by_layer["via"]) / 200 <= 15
    assert long.by_layer["cluster"] - short.by_layer["cluster"] == 0
    # Network.send, Packet() and the delivery callback
    assert (long.by_layer["fabric"] - short.by_layer["fabric"]) / 200 <= 3


def test_eager_message_numpy_calls(pingpong_pair):
    (short, _, _), (long, _, _) = pingpong_pair
    # the NIC's staging copy; no flattening of the already flat payload
    assert (long.numpy_calls - short.numpy_calls) / 200 <= 3


def test_polls_enter_no_generator_but_are_all_counted(pingpong_pair):
    _, (long, _, device_checks) = pingpong_pair
    assert long.by_name["device_check", "wait_until"] == 0
    passes = sum(count for (name, _caller), count in long.by_name.items()
                 if name == "progress_pass")
    assert passes > 4 * 220
    assert passes == device_checks


def connection_work(adi):
    """Whether a progress pass of ``adi`` finds connection work: an
    establishment or a disconnect to take in, a connect deadline passed,
    a channel waiting for a cache slot."""
    conn, provider = adi.conn, adi.provider
    return bool(provider.established or provider.pending_disconnects
                or conn._waiting_for_room
                or adi.engine.now >= conn._next_deadline)


def star(mpi, rounds=2):
    """Rank 0 talks to every other rank in turn: with two cached VIs a
    rank, the rolling working set evicts (disconnect handshakes)."""
    buf = np.zeros(8, dtype=np.uint8)
    for _ in range(rounds):
        if mpi.rank == 0:
            for peer in range(1, mpi.size):
                yield from mpi.send(buf, peer)
                yield from mpi.recv(buf.copy(), peer)
        else:
            yield from mpi.recv(buf.copy(), 0)
            yield from mpi.send(buf, 0)


@pytest.mark.parametrize("connection,config", [
    ("static-p2p", {}),
    ("ondemand", {}),
    # disconnects, and deadlines that pass (connect retry timing)
    ("ondemand", {"vi_cache_limit": 2, "connect_timeout_us": 20.0}),
], ids=["static-p2p", "ondemand", "ondemand-cache-timeouts"])
def test_only_a_pass_with_connection_work_enters_the_manager(
        monkeypatch, connection, config):
    passes = collections.Counter()
    original = AbstractDevice.progress_pass

    def progress_pass(self):
        passes[connection_work(self)] += 1
        return original(self)

    monkeypatch.setattr(AbstractDevice, "progress_pass", progress_pass)
    with count_frames("/repro/mpi/") as seen:
        mpi_rig.run(star, nprocs=5, nodes=5, ppn=1,
                    connection=connection, **config)
    progress = sum(count for (name, caller), count in seen.by_name.items()
                   if name == "progress" and caller == "progress_pass")
    # an idle pass enters no connection-manager frame; one with work
    # enters exactly one
    assert progress == passes[True]
    assert 0 < passes[True] < passes[False]


MPI_GENERATOR = "/repro/mpi/"


def completion_loop_depths(program, nprocs, **run):
    """For every entry (start or resume) of the completion loop, the
    generator frames under ``repro/mpi`` between the rank's process and
    the loop, the loop included."""
    depths = collections.Counter()

    def profiler(frame, event, arg):
        if event != "call" or frame.f_code is not AbstractDevice.wait_until.__code__:
            return
        depth, caller = 0, frame
        while caller.f_code.co_name != "_resume":
            code = caller.f_code
            if (MPI_GENERATOR in code.co_filename
                    and code.co_flags & inspect.CO_GENERATOR):
                depth += 1
            caller = caller.f_back
        depths[depth] += 1

    sys.setprofile(profiler)
    try:
        mpi_rig.run(program, nprocs=nprocs, nodes=nprocs, ppn=1, **run)
    finally:
        sys.setprofile(None)
    return depths


def exchanges(mpi):
    peer = mpi.rank ^ 1
    buf = np.zeros(64, dtype=np.uint8)
    for _ in range(20):
        yield from mpi.sendrecv(buf, peer, buf.copy(), peer)


def collectives(mpi):
    out = np.empty(16)
    for _ in range(10):
        yield from mpi.allreduce(np.ones(16), out)
        yield from mpi.barrier()
        yield from mpi.allgather(np.ones(2), np.empty(2 * mpi.size))


@pytest.mark.parametrize("program,nprocs", [(exchanges, 2),
                                            (collectives, 5)])
@pytest.mark.parametrize("connection", ("static-p2p", "static-cs",
                                        "ondemand"))
def test_a_resume_enters_one_mpi_generator_frame(program, nprocs,
                                                 connection):
    # the loop runs straight under the process: not inside the facade,
    # the collective, the connection manager's init or a wait wrapper
    depths = completion_loop_depths(program, nprocs, connection=connection)
    assert set(depths) == {1}
    assert depths[1] > 20 * nprocs


class HostCosts(TraceHook):
    """Counts the processed ``host-cost`` entries."""

    def __init__(self):
        self.count = 0

    def on_event(self, now, name, ok):
        self.count += name == "host-cost"


def test_wait_all_polls_once_and_wait_of_a_done_request_not_at_all():
    """MPI_Waitall makes one progress pass, and sleeps one host cost,
    even when every request is done; MPI_Wait of a done request makes
    neither."""
    host_costs = HostCosts()
    seen = {}

    def program(mpi):
        buf = np.zeros(8, dtype=np.uint8)
        if mpi.rank == 1:
            # no progress pass of its own until rank 0 has measured
            yield from mpi.compute(5_000.0)
            for _ in range(3):
                yield from mpi.recv(buf.copy(), 0)
            return
        # the hook counts every rank's sleeps: let rank 1's last one of
        # MPI_Init (due at the instant rank 0 leaves it) pass first
        yield from mpi.compute(100.0)
        adi = mpi._adi
        req = mpi.isend(buf, 1)
        assert req.done  # eager on a connected VI: done when posted
        for name, blocking in (("wait", lambda: mpi.wait(req)),
                               ("waitall", lambda: mpi.waitall([req])),
                               ("send", lambda: mpi.send(buf, 1)),
                               ("waitall of a fresh send", lambda: mpi.waitall(
                                   [mpi.isend(buf, 1)]))):
            passes, costs = adi.device_checks, host_costs.count
            yield from blocking()
            seen[name] = (adi.device_checks - passes, host_costs.count - costs)

    mpi_rig.run(program, nprocs=2, nodes=2, ppn=1, connection="static-p2p",
                engine=Engine(trace=host_costs))
    # (progress passes, host-cost sleeps)
    assert seen == {"wait": (0, 0), "waitall": (1, 1), "send": (0, 0),
                    "waitall of a fresh send": (1, 1)}


RNDV_BYTES = 64 * 1024


def test_rendezvous_message_frame_event_and_numpy_budget():
    # RTS, CTS, RDMA write, FIN: four packets where eager has one
    short, short_result, _ = pingpong(20, RNDV_BYTES)
    long, long_result, _ = pingpong(220, RNDV_BYTES)
    events = long_result.events_processed - short_result.events_processed
    assert events == 33 * 200
    assert (long.frames - short.frames) / 200 <= 222
    # the region write's asarray + ravel: the staging copy is a slice
    # assignment and the three bare headers stage nothing
    assert (long.numpy_calls - short.numpy_calls) / 200 <= 3


def staged_pingpong(messages):
    """A rendezvous ping-pong over a staging cache of its own; returns
    the cache and the RDMA writes the job's NICs delivered."""
    with pytest.MonkeyPatch.context() as patch:
        staging = StagingCache()
        patch.setattr(nic_module, "STAGING", staging)
        nics = record_instances(patch, build_module, nic_module.Nic)
        pingpong(messages, RNDV_BYTES)
    return staging, sum(nic.rdma_writes_received for nic in nics)


def test_rdma_staging_blocks_are_recycled_not_allocated():
    short, short_writes = staged_pingpong(20)
    long, long_writes = staged_pingpong(220)
    assert (short_writes, long_writes) == (20, 220)
    # every delivered write handed its block back, and two hundred more
    # messages needed not one more block
    assert (short.returned, long.returned) == (20, 220)
    assert long.allocated - short.allocated == 0
    assert 1 <= long.allocated <= 2


def test_as_bytes_passes_flat_bytes_through():
    flat = np.arange(64, dtype=np.uint8)
    assert as_bytes(flat) is flat
    assert as_bytes(None) is None
    matrix = np.arange(12, dtype=np.float64).reshape(3, 4)
    out = as_bytes(matrix)
    assert out.dtype == np.uint8 and out.ndim == 1
    assert out.tobytes() == matrix.tobytes()
    assert np.shares_memory(out, matrix)
    # neither a strided view nor another dtype is flat bytes
    assert as_bytes(flat[::2]).tobytes() == flat[::2].tobytes()
    assert as_bytes(flat.view(np.uint16)).tobytes() == flat.tobytes()
