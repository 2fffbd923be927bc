"""Scheduler-path golden: every ClusterReport of one arrival stream.

One quota-limited arrival stream covering the seven schedulable kernels
plus one registered captured trace runs through the cluster scheduler
for every policy x placement x connection mechanism; the sha256 of each
``ClusterReport.to_dict()`` is pinned, and so are the per-job
``critpath`` dicts of one traced run.  This is the scheduler's
counterpart of the single-job fingerprints in ``golden/fingerprints.json``:
simulated time, admission decisions, VI counts and latency attribution
of co-scheduled jobs must not move when the job launch path changes.

Regenerate (and review) with ``PYTHONPATH=src python -m
tests.test_cluster_golden``.
"""

import hashlib
import json
import pathlib

import pytest

from repro.bench.cache import canonical_json
from repro.cluster import (
    ClusterSpec,
    WorkloadSpec,
    run_cluster,
    run_job,
    with_connection,
)
from repro.mpi import MpiConfig
from repro.telemetry import TelemetryConfig
from repro.workloads.registry import KERNEL_DEFS, build_program, register_trace
from repro.workloads.replay import CaptureConfig

GOLDEN_PATH = (pathlib.Path(__file__).parent / "golden"
               / "cluster_report_digests.json")

POLICIES = ("fcfs", "easy")
PLACEMENTS = ("packed", "spread")
CONNECTIONS = ("ondemand", "static-p2p", "static-cs", "predicted")
KERNELS = ("ring", "alltoall", "allreduce", "barrier", "pingpong",
           "masterworker", "pipeline")
#: a captured pipeline run, registered as a kernel of its own
TRACE_KERNEL = "golden-pipeline-replay"
#: 4 nodes x 2 CPUs; 6 VIs per NIC holds two 4-rank static jobs' worth
#: of reservations on a node pair, so static jobs queue behind each other
SPEC = ClusterSpec(nodes=4, ppn=2, seed=3, vi_quota=6)
#: the traced run whose per-job critpath dicts are pinned
TRACED = ("easy", "spread", "ondemand")


def _register_trace_kernel():
    result = run_job(ClusterSpec(nodes=4, ppn=1, seed=0), 4,
                     build_program("pipeline"), MpiConfig(),
                     capture=CaptureConfig(kernel="pipeline"))
    register_trace(result.trace, name=TRACE_KERNEL)


def _jobs(connection):
    workload = WorkloadSpec(njobs=16, mean_interarrival_us=2_000.0,
                            kernels=KERNELS + (TRACE_KERNEL,),
                            nprocs_choices=(2, 4), seed=SPEC.seed)
    return with_connection(workload.generate(), connection)


def _report(policy, placement, connection, telemetry=None):
    result = run_cluster(SPEC, _jobs(connection), policy=policy,
                         placement=placement, telemetry=telemetry)
    return result.report().to_dict()


def _digest(doc):
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def cluster_golden():
    digests = {
        f"{policy}/{placement}/{connection}": _digest(
            _report(policy, placement, connection))
        for policy in POLICIES
        for placement in PLACEMENTS
        for connection in CONNECTIONS
    }
    traced = _report(*TRACED, telemetry=TelemetryConfig())
    critpath = {str(job["job_id"]): job["critpath"] for job in traced["jobs"]}
    return {"reports": digests, "critpath": critpath}


@pytest.fixture(scope="module")
def trace_kernel():
    _register_trace_kernel()
    try:
        yield TRACE_KERNEL
    finally:
        KERNEL_DEFS.pop(TRACE_KERNEL, None)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_stream_covers_every_schedulable_kernel(trace_kernel):
    kernels = {job.kernel for job in _jobs("ondemand")}
    assert kernels == set(KERNELS) | {trace_kernel}
    assert {name for name, defn in KERNEL_DEFS.items()
            if defn.vi_demand is not None and defn.trace is None} \
        == set(KERNELS)


@pytest.mark.parametrize("connection", CONNECTIONS)
@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("policy", POLICIES)
def test_cluster_report_digest(trace_kernel, golden, policy, placement,
                               connection):
    doc = _report(policy, placement, connection)
    assert _digest(doc) == golden["reports"][
        f"{policy}/{placement}/{connection}"]


def test_quota_makes_jobs_wait(trace_kernel):
    doc = _report("fcfs", "packed", "static-p2p")
    assert max(job["wait_us"] for job in doc["jobs"]) > 0.0
    assert all(hw <= SPEC.vi_quota for hw in doc["nic_vi_high_water"].values())


def test_traced_run_critpath(trace_kernel, golden):
    traced = _report(*TRACED, telemetry=TelemetryConfig())
    got = {str(job["job_id"]): job["critpath"] for job in traced["jobs"]}
    assert json.loads(json.dumps(got)) == golden["critpath"]


if __name__ == "__main__":
    _register_trace_kernel()
    GOLDEN_PATH.write_text(json.dumps(cluster_golden(), indent=1,
                                      sort_keys=True) + "\n")
