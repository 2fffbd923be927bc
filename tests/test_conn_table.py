"""The connection-mechanism table (:mod:`repro.mpi.conn`): admission
charges what ``MPI_Init`` opens, the client/server row is refused before
a job starts on a provider without that model, and a predicted graph is
validated where it enters instead of hanging or being clamped at run
time."""

import json
import pathlib

import pytest

from repro.analysis import AnalysisError, predicted_peers_for, predicted_vi_demand
from repro.cluster import ClusterSpec, run_job
from repro.cluster.sched import SchedulerError, run_cluster
from repro.cluster.workload import JobSpec
from repro.mpi import MpiConfig
from repro.mpi.config import CONNECTION_MODES
from repro.mpi.conn import MECHANISMS, init_vi_demand, runs_on
from repro.sim import Engine
from repro.via.profiles import BERKELEY, CLAN
from repro.workloads.registry import build_program

from tests.mpi_rig import run

DIGESTS_PATH = pathlib.Path(__file__).parent / "golden" / "commgraph_digests.json"


def ring_config(connection, nprocs):
    if connection == "predicted":
        return {"predicted_peers": predicted_peers_for("ring", nprocs)}
    return {}


def vis_held_after_init(connection, nprocs):
    """Most VIs any rank holds when ``MPI_Init`` returns, on a ring."""
    ring = build_program("ring")

    def program(mpi):
        held = sum(ch.vi is not None for ch in mpi._adi.channels.values())
        yield from ring(mpi)
        return held

    res = run(program, nprocs=nprocs, nodes=4, ppn=2, connection=connection,
              **ring_config(connection, nprocs))
    return max(res.returns)


@pytest.mark.parametrize("nprocs", (4, 8))
@pytest.mark.parametrize("connection", CONNECTION_MODES)
def test_admission_charges_what_mpi_init_opens(connection, nprocs):
    degree = (predicted_vi_demand("ring", nprocs)
              if connection == "predicted" else None)
    charged = init_vi_demand(connection, nprocs, predicted_degree=degree)
    assert charged == vis_held_after_init(connection, nprocs)
    assert charged == {"ondemand": 0, "static-p2p": nprocs - 1,
                       "static-cs": nprocs - 1, "predicted": 2}[connection]


def test_the_table_is_the_list_of_mechanisms():
    assert CONNECTION_MODES == tuple(MECHANISMS)
    assert len(set(MECHANISMS.values())) == len(MECHANISMS)
    with pytest.raises(ValueError, match="unknown connection manager"):
        init_vi_demand("static", 4)


class TestClientServerNeedsAProfileThatHasIt:
    def test_predicate(self):
        assert [c for c in CONNECTION_MODES if not runs_on(c, BERKELEY)] == [
            "static-cs"]
        assert all(runs_on(c, CLAN) for c in CONNECTION_MODES)

    def test_scheduler_refuses_before_any_event(self):
        spec = ClusterSpec(nodes=4, ppn=1, profile=BERKELEY, seed=0)
        jobs = [JobSpec(job_id=0, kernel="ring", nprocs=4, arrival_us=0.0,
                        connection="static-cs")]
        engine = Engine()
        with pytest.raises(SchedulerError, match="client/server"):
            run_cluster(spec, jobs, engine=engine)
        assert engine.events_processed == 0

    def test_run_job_refuses_before_any_event(self):
        engine = Engine()
        spec = ClusterSpec(nodes=4, ppn=1, profile=BERKELEY, seed=0)
        with pytest.raises(Exception, match="client/server"):
            run_job(spec, 4, build_program("ring"),
                    MpiConfig(connection="static-cs"), engine=engine)
        assert engine.events_processed == 0


class TestPredictedPeersValidated:
    @pytest.mark.parametrize("peers, what", [
        (((1,), ()), "asymmetric"),
        (((1, 7), (0,)), "range"),
        (((0,), ()), "itself"),
        (((1, 1), (0,)), "twice"),
    ])
    def test_config_rejects(self, peers, what):
        with pytest.raises(ValueError, match=what):
            MpiConfig(connection="predicted", predicted_peers=peers)

    def test_run_job_rejects_a_graph_of_another_size(self):
        config = MpiConfig(connection="predicted",
                           predicted_peers=((1,), (0,)))
        spec = ClusterSpec(nodes=4, ppn=1, profile=CLAN, seed=0)
        with pytest.raises(ValueError, match="2 entries for 4 ranks"):
            run_job(spec, 4, build_program("ring"), config)

    def test_analyzer_output_passes_for_every_golden_graph(self):
        checked = 0
        for key in json.loads(DIGESTS_PATH.read_text()):
            kernel, nprocs = key.rsplit("/", 1)
            try:
                peers = predicted_peers_for(kernel, int(nprocs))
            except AnalysisError:  # the kernel rejects this size
                continue
            assert len(peers) == int(nprocs), key
            MpiConfig(connection="predicted", predicted_peers=peers)
            checked += 1
        assert checked >= 70
