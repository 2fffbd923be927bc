"""Pod-parallel execution: worker-count invariance and the speedup floor.

``run_pods`` is the configuration that actually buys wall-clock speedup
(node-disjoint pods on separate processes, no synchronization).  Its
correctness contract is that the *entire result document* — per-pod
metrics, reports, and the merged fingerprint — is a pure function of
the scenario, never of the worker count or pool completion order.
"""

import os
import time

import pytest

from repro.cluster.pods import PodScenario, run_pods

#: small enough for seconds-scale runs, big enough to schedule real jobs
SCENARIO = PodScenario(
    pods=3, nodes_per_pod=4, ppn=2, njobs_per_pod=3,
    mean_interarrival_us=800.0, kernels=("ring",), nprocs_choices=(4,),
    seed=7,
)


def test_pod_scenario_validates_and_derives_seeds():
    with pytest.raises(ValueError):
        PodScenario(pods=0)
    seeds = [SCENARIO.pod_seed(p) for p in range(SCENARIO.pods)]
    # per-pod seeds: deterministic, distinct, numpy-int32-safe
    assert seeds == [SCENARIO.pod_seed(p) for p in range(SCENARIO.pods)]
    assert len(set(seeds)) == SCENARIO.pods
    assert all(0 <= s <= 0x7FFFFFFF for s in seeds)
    # and independent of every non-seed scenario knob
    import dataclasses

    other = dataclasses.replace(SCENARIO, njobs_per_pod=99)
    assert other.pod_seed(1) == SCENARIO.pod_seed(1)


def test_run_pods_is_worker_count_invariant():
    serial = run_pods(SCENARIO, workers=1, record_fingerprint=True,
                      include_reports=True)
    fanned = run_pods(SCENARIO, workers=2, record_fingerprint=True,
                      include_reports=True)
    assert serial.to_dict() == fanned.to_dict()
    assert serial.merged_fingerprint() == fanned.merged_fingerprint()
    # sanity: pods are in id order and did real work
    assert [p["pod"] for p in serial.pods] == list(range(SCENARIO.pods))
    assert serial.total_events > 100
    # distinct seeds -> distinct pod traces (the merge isn't degenerate)
    assert len({p["fingerprint"] for p in serial.pods}) == SCENARIO.pods


def test_run_pods_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        run_pods(SCENARIO, workers=0)


def test_merged_fingerprint_requires_recorded_traces():
    result = run_pods(SCENARIO)  # no record_fingerprint
    assert result.merged_fingerprint() is None
    assert "merged_fingerprint" not in result.to_dict()


# ------------------------------------------------------- the perf floor --
@pytest.mark.slow
@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="pod-parallel speedup needs >= 4 cores")
def test_pod_parallel_speedup_floor_on_large_scenario():
    """>= 2x less wall time for the same events when the pods of a
    cluster-scale scenario fan out over 4 worker processes (vi_quota
    sized so the all-to-all np=8 jobs are admissible)."""
    large = PodScenario(
        pods=4, njobs_per_pod=24, nodes_per_pod=4, ppn=2, vi_quota=16,
        mean_interarrival_us=600.0,
        kernels=("ring", "allreduce", "alltoall"), nprocs_choices=(4, 8),
        seed=0,
    )
    walls = {}
    events = {}
    for workers in (1, 4):
        started = time.perf_counter()
        events[workers] = run_pods(large, workers=workers).total_events
        walls[workers] = time.perf_counter() - started
    assert events[1] == events[4] > 50_000
    assert walls[1] / walls[4] >= 2.0, (
        f"4 pod workers reached only x{walls[1] / walls[4]:.2f} over one "
        f"on {os.cpu_count()} cores"
    )
