"""One of each: one rank lifecycle, one kernel table, one process pool.

``run_job`` and the cluster scheduler launch ranks through the same
``repro.cluster.job.launch_ranks``; these guards keep a second copy of
the per-rank stack, a mirror view of the kernel registry, or a second
process pool from growing back.
"""

import ast
import pathlib
from collections import Counter

from repro.cluster import ClusterSpec, JobSpec, run_cluster
from repro.telemetry import TelemetryConfig

REPO = pathlib.Path(__file__).parent.parent
SRC = REPO / "src"

#: the names the one-table registry replaced; spelled in two halves so
#: this file does not match its own search
RETIRED = tuple(a + b for a, b in (
    ("attach_", "mirror"), ("CLUSTER_", "KERNELS"),
    ("KERNEL_EST_", "US_PER_RANK"), ("COMM_", "KERNELS"),
    ("Cluster", "Kernel"), ("Kernel", "Spec"),
))


def _call_sites(name):
    """``path:line`` of every call of ``name`` (bare or as an attribute)
    in the package source."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = (func.id if isinstance(func, ast.Name)
                      else func.attr if isinstance(func, ast.Attribute)
                      else None)
            if called == name:
                sites.append(f"{path.relative_to(SRC)}:{node.lineno}")
    return sites


def test_one_construction_site_per_rank_stack_layer():
    for name in ("ViaProvider", "AbstractDevice", "make_connection_manager"):
        sites = _call_sites(name)
        assert len(sites) == 1, (name, sites)
        assert sites[0].startswith("repro/cluster/job.py:"), (name, sites)


def test_one_process_pool():
    """``runner.worker_pool`` constructs the one pool that the bench
    fan-out and the service share; no second pool of either kind."""
    sites = _call_sites("Pool") + _call_sites("ProcessPoolExecutor")
    assert len(sites) == 1, sites
    assert sites[0].startswith("repro/bench/runner.py:"), sites
    # the fan-out, and the service's first pool and its one rebuild
    callers = sorted(site.split(":")[0] for site in _call_sites("worker_pool"))
    assert callers == ["repro/bench/runner.py", "repro/service/server.py",
                       "repro/service/server.py"], callers


def test_no_registry_mirror_names_remain():
    hits = []
    for top in ("src", "tests", "examples"):
        for path in sorted((REPO / top).rglob("*.py")):
            text = path.read_text()
            hits += [f"{path.relative_to(REPO)}: {name}"
                     for name in RETIRED if name in text]
    assert not hits, hits


def test_cluster_jobs_record_init_and_finalize_spans():
    """Every rank of every co-scheduled job runs the lifecycle run_job
    runs, so a traced cluster run records one ``mpi.init`` and one
    ``mpi.finalize`` span per rank of each job."""
    jobs = [
        JobSpec(job_id=0, arrival_us=0.0, kernel="ring", nprocs=4),
        JobSpec(job_id=1, arrival_us=50.0, kernel="allreduce", nprocs=2),
        JobSpec(job_id=2, arrival_us=100.0, kernel="pingpong", nprocs=2,
                connection="static-p2p"),
    ]
    spec = ClusterSpec(nodes=4, ppn=2, seed=1, vi_quota=4)
    tel = run_cluster(spec, jobs, telemetry=TelemetryConfig()).telemetry
    expected = Counter(("rank", rank) for job in jobs
                       for rank in range(job.nprocs))
    for name in ("mpi.init", "mpi.finalize"):
        spans = tel.spans_named(name)
        assert Counter(span.track for span in spans) == expected, name
        assert all(span.end_us is not None and not span.open
                   for span in spans), name
