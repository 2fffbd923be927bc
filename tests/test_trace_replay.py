"""Differential replay-equivalence suite for trace capture/replay.

The contract under test: replaying a captured communication trace is
indistinguishable — flow-edge set, per-pair message counts, per-NIC VI
high water, and (same seed) the simulated timeline itself — from the
run that produced it, under every connection mechanism.  Plus the
format-level locks: serialize -> parse -> serialize is byte-identical,
and malformed/truncated traces fail with typed errors instead of
hanging a replay rank.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import predicted_peers_for
from repro.cluster import ClusterSpec, run_job
from repro.cluster.job import JobError
from repro.mpi import MpiConfig
from repro.mpi.config import CONNECTION_MODES as ALL_CONNECTIONS
from repro.telemetry import TelemetryConfig
from repro.telemetry.critpath import analyze as analyze_critical_path
from repro.via.profiles import CLAN
from repro.workloads.registry import build_program
from repro.workloads.replay import (
    CaptureConfig,
    CaptureError,
    replay_program,
)
from repro.workloads.trace import (
    CommTrace,
    TraceFormatError,
    TraceReplayError,
    parse_trace,
)


def _spec(nprocs, seed=0):
    return ClusterSpec(nodes=nprocs, ppn=1, profile=CLAN, seed=seed)


def _capture(kernel, nprocs, npb_class="S"):
    result = run_job(
        _spec(nprocs), nprocs, build_program(kernel, npb_class),
        MpiConfig(), capture=CaptureConfig(kernel=kernel),
    )
    assert result.trace is not None
    return result.trace


def _run(program, nprocs, connection, predicted_peers=None):
    if connection == "predicted":
        config = MpiConfig(connection="predicted",
                           predicted_peers=predicted_peers)
    else:
        config = MpiConfig(connection=connection)
    return run_job(_spec(nprocs), nprocs, program, config,
                   telemetry=TelemetryConfig())


def _comm_signature(result):
    """(flow-edge set, per-pair message counts, per-NIC VI high water)."""
    report = analyze_critical_path(result.telemetry)
    pair_counts = Counter()
    for stat in report.pair_stats():
        pair_counts[(stat.src, stat.dst)] += stat.messages
    return (frozenset(pair_counts), dict(pair_counts),
            dict(result.resources.nic_vi_high_water))


@pytest.fixture(scope="module")
def traces():
    """Capture each differential kernel once for the whole module."""
    return {
        "pingpong": (_capture("pingpong", 2), 2),
        "cg": (_capture("cg", 4), 4),
        "mg": (_capture("mg", 4), 4),
    }


class TestReplayEquivalence:
    """Satellite 1: the captured workloads replay identically under all
    four connection mechanisms."""

    @pytest.mark.parametrize("connection", ALL_CONNECTIONS)
    @pytest.mark.parametrize("kernel", ("pingpong", "cg", "mg"))
    def test_signature_identical(self, traces, kernel, connection):
        trace, nprocs = traces[kernel]
        peers = None
        if connection == "predicted":
            # same prediction both sides: the mechanism must not care
            # whether the program is the original or its replay
            peers = predicted_peers_for(kernel, nprocs)
        original = _run(build_program(kernel, "S"), nprocs, connection,
                        predicted_peers=peers)
        replayed = _run(replay_program(trace), nprocs, connection,
                        predicted_peers=peers)

        orig_edges, orig_pairs, orig_vis = _comm_signature(original)
        rep_edges, rep_pairs, rep_vis = _comm_signature(replayed)
        assert rep_edges == orig_edges
        assert rep_pairs == orig_pairs
        assert rep_vis == orig_vis

    def test_same_seed_timeline_is_exact(self, traces):
        trace, nprocs = traces["cg"]
        original = _run(build_program("cg", "S"), nprocs, "ondemand")
        replayed = _run(replay_program(trace), nprocs, "ondemand")
        # not approximately: the replay re-issues the same primitives
        # with the same payload byte counts and the same (seeded)
        # compute jitter, so the DES timeline is bit-identical
        assert replayed.total_time_us == original.total_time_us
        assert replayed.events_processed == original.events_processed

    def test_capture_does_not_perturb_the_run(self):
        plain = run_job(_spec(4), 4, build_program("cg", "S"), MpiConfig())
        captured = run_job(_spec(4), 4, build_program("cg", "S"),
                           MpiConfig(), capture=CaptureConfig(kernel="cg"))
        assert captured.total_time_us == plain.total_time_us
        assert captured.events_processed == plain.events_processed

    def test_capture_is_byte_deterministic(self, traces):
        trace, _ = traces["pingpong"]
        again = _capture("pingpong", 2)
        assert again.to_jsonl() == trace.to_jsonl()
        assert again.digest() == trace.digest()


# ---------------------------------------------------------------------------
# satellite 2: property-based round trips and typed failure modes
# ---------------------------------------------------------------------------

_SIZES = st.sampled_from((1, 7, 64, 257, 4096))
_STEP = st.one_of(
    st.tuples(st.just("xchg"), _SIZES, st.integers(0, 7)),
    st.tuples(st.just("sendrecv"), _SIZES),
    st.tuples(st.just("window"), st.integers(1, 3), _SIZES),
    st.tuples(st.just("compute"),
              st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("coll"),
              st.sampled_from(("barrier", "bcast", "reduce", "allreduce",
                               "allgather", "alltoall", "gather", "scatter")),
              _SIZES),
)
_SCRIPT = st.lists(_STEP, min_size=1, max_size=6)


def _script_program(script):
    """A two-rank program built from a generated step script."""

    def prog(mpi):
        other = 1 - mpi.rank
        for step in script:
            kind = step[0]
            if kind == "xchg":
                _, size, tag = step
                payload = np.zeros(size, dtype=np.uint8)
                buf = np.empty(size, dtype=np.uint8)
                if mpi.rank == 0:
                    yield from mpi.send(payload, other, tag=tag)
                    yield from mpi.recv(buf, source=other, tag=tag)
                else:
                    yield from mpi.recv(buf, source=other, tag=tag)
                    yield from mpi.send(payload, other, tag=tag)
            elif kind == "sendrecv":
                _, size = step
                out = np.zeros(size, dtype=np.uint8)
                inbox = np.empty(size, dtype=np.uint8)
                yield from mpi.sendrecv(out, other, inbox, other)
            elif kind == "window":
                _, count, size = step
                if mpi.rank == 0:
                    reqs = [mpi.isend(np.zeros(size, dtype=np.uint8),
                                      other, tag=5) for _ in range(count)]
                else:
                    bufs = [np.empty(size, dtype=np.uint8)
                            for _ in range(count)]
                    reqs = [mpi.irecv(b, source=other, tag=5) for b in bufs]
                yield from mpi.waitall(reqs)
            elif kind == "compute":
                yield from mpi.compute(step[1])
            else:
                _, cname, size = step
                send = np.zeros(size, dtype=np.uint8)
                recv = np.empty(size, dtype=np.uint8)
                wide = np.empty(size * mpi.size, dtype=np.uint8)
                if cname == "barrier":
                    yield from mpi.barrier()
                elif cname == "bcast":
                    yield from mpi.bcast(send, root=0)
                elif cname == "reduce":
                    out = recv if mpi.rank == 0 else None
                    yield from mpi.reduce(send, out, root=0)
                elif cname == "allreduce":
                    yield from mpi.allreduce(send, recv)
                elif cname == "allgather":
                    yield from mpi.allgather(send, wide)
                elif cname == "alltoall":
                    yield from mpi.alltoall(
                        np.zeros(size * mpi.size, dtype=np.uint8), wide)
                elif cname == "gather":
                    out = wide if mpi.rank == 0 else None
                    yield from mpi.gather(send, out, root=0)
                else:  # scatter
                    src = wide if mpi.rank == 0 else None
                    yield from mpi.scatter(src, recv, root=0)
        return None

    return prog


class TestRoundTripProperties:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=(HealthCheck.too_slow,))
    @given(script=_SCRIPT)
    def test_record_serialize_parse_replay_round_trip(self, script):
        captured = run_job(
            _spec(2), 2, _script_program(script), MpiConfig(),
            capture=CaptureConfig(kernel="prop"),
        )
        trace = captured.trace
        text = trace.to_jsonl()
        assert parse_trace(text).to_jsonl() == text

        recaptured = run_job(
            _spec(2), 2, replay_program(trace), MpiConfig(),
            capture=CaptureConfig(kernel="prop"),
        )
        # the replay emits the *same primitive timeline* it was built
        # from — op-for-op, timestamp-for-timestamp (same seed)
        assert recaptured.trace.ops == trace.ops
        assert recaptured.total_time_us == captured.total_time_us


_TINY = CommTrace(
    kernel="tiny", nprocs=2, meta={"connection": "ondemand"},
    ops=[
        [{"op": "isend", "r": 0, "t": 0.0, "req": 0, "peer": 1,
          "tag": 1, "nb": 8},
         {"op": "wait", "r": 0, "t": 0.5, "req": 0},
         {"op": "compute", "r": 0, "t": 0.6, "us": 10.0}],
        [{"op": "irecv", "r": 1, "t": 0.0, "req": 0, "peer": 0,
          "tag": 1, "nb": 8},
         {"op": "wait", "r": 1, "t": 0.7, "req": 0},
         {"op": "coll", "r": 1, "t": 0.8, "kind": "barrier",
          "root": None, "nb": None}],
    ],
).validate().to_jsonl()


class TestTypedFormatErrors:
    @settings(max_examples=40, deadline=None)
    @given(cut=st.integers(min_value=1, max_value=len(_TINY) - 2))
    def test_any_truncation_raises_not_hangs(self, cut):
        with pytest.raises(TraceFormatError):
            parse_trace(_TINY[:cut])

    @pytest.mark.parametrize("text,fragment", [
        ("", "empty"),
        ("garbage\n", "not valid JSON"),
        ('{"format":"other","version":1}\n{"end":true,"ops":0}\n',
         "not a repro-comm-trace"),
        ('{"format":"repro-comm-trace","version":99,"kernel":"x","nprocs":1,'
         '"meta":{}}\n{"end":true,"ops":0}\n', "unsupported trace version"),
        ('{"format":"repro-comm-trace","version":1,"kernel":"x","nprocs":1,'
         '"meta":{}}\n', "footer"),
        ('{"format":"repro-comm-trace","version":1,"kernel":"x","nprocs":1,'
         '"meta":{}}\n{"op":"frobnicate","r":0,"t":0}\n'
         '{"end":true,"ops":1}\n', "unknown op"),
        ('{"format":"repro-comm-trace","version":1,"kernel":"x","nprocs":1,'
         '"meta":{}}\n{"op":"compute","r":7,"t":0,"us":1}\n'
         '{"end":true,"ops":1}\n', "out of range"),
        ('{"format":"repro-comm-trace","version":1,"kernel":"x","nprocs":1,'
         '"meta":{}}\n{"op":"compute","r":0,"t":0,"us":1}\n'
         '{"end":true,"ops":7}\n', "truncated"),
        ('{"format":"repro-comm-trace","version":1,"kernel":"x","nprocs":2,'
         '"meta":{}}\n{"op":"compute","r":1,"t":0,"us":1}\n'
         '{"op":"compute","r":0,"t":0,"us":1}\n'
         '{"end":true,"ops":2}\n', "out of order"),
    ])
    def test_malformed_inputs_raise_typed_errors(self, text, fragment):
        with pytest.raises(TraceFormatError, match=fragment):
            parse_trace(text)


class TestTypedReplayErrors:
    def test_wrong_process_count(self):
        trace = parse_trace(_TINY)
        with pytest.raises(JobError) as err:
            run_job(_spec(4), 4, replay_program(trace), MpiConfig())
        assert isinstance(err.value.__cause__, TraceReplayError)

    def test_dangling_request_serial(self):
        trace = CommTrace(
            kernel="dangling", nprocs=2,
            ops=[[{"op": "wait", "r": 0, "t": 0.0, "req": 5}], []],
        ).validate()
        with pytest.raises(JobError) as err:
            run_job(_spec(2), 2, replay_program(trace), MpiConfig())
        assert isinstance(err.value.__cause__, TraceReplayError)

    def test_capture_rejects_sub_communicators(self):
        def prog(mpi):
            sub = yield from mpi.comm_split(color=mpi.rank % 2)
            yield from mpi.send(np.zeros(4, dtype=np.uint8), 0, comm=sub)

        with pytest.raises(JobError) as err:
            run_job(_spec(4), 4, prog, MpiConfig(),
                    capture=CaptureConfig(kernel="split"))
        assert isinstance(err.value.__cause__, CaptureError)
