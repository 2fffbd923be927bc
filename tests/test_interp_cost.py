"""Host cost of a static analysis, by count (deterministic, no timing),
and the inertness of what the analyzer caches between analyses.

A kernel is compiled once per process — each AST node into a closure —
and run once per class of ranks: where a condition parts the class,
both arms run in the same pass and re-join, unless an arm is refused.
What a rank is charged (ops against ``Budget``, each rank its own, the
arms it ran and no others) is part of the analyzer's contract: it
decides where ``BudgetExceeded`` fires.  What a run costs the host is
passes, the ops a pass ran and Python frames inside
``repro/analysis/interp.py``; compile work must not depend on the rank
count, and nothing compiled may carry state from one analysis to the
next.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import os
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import repro
import repro.apps as repro_apps
from repro.analysis import analyze_kernel, analyze_source
from repro.analysis import comm
from repro.analysis import interp as interp_module
from repro.analysis.commgraph import CollEvent
from repro.analysis.interp import (AnalysisError, Budget, BudgetExceeded,
                                   Interp, MpiProxy)
from repro.workloads.registry import KERNEL_DEFS, register_kernel

from tests import comm_oracle
from tests.counting import count_calls, count_frames, count_lines, record_instances
from tests.test_comm_analysis import DIGESTS_PATH

#: the ladder's six timed analyses (benchmarks/ladder/w_predict.py) and
#: the ops each charges, summed over its ranks
LADDER_OPS = {
    ("ring", 16): 2_128,
    ("pipeline", 16): 5_681,
    ("masterworker", 8): 11_477,
    ("is", 4): 4_556,
    ("ft", 4): 3_920,
    ("lu", 4): 5_332,
}


#: the same analyses as passes: (ranks each pass ran to the end, the ops
#: the pass ran — both arms of every fork it joined)
LADDER_PASSES = {
    ("ring", 16): [(16, 133)],
    ("pipeline", 16): [(16, 359)],
    ("masterworker", 8): [(1, 2_090), (7, 1_341)],
    ("is", 4): [(4, 1_139)],
    ("ft", 4): [(4, 980)],
    ("lu", 4): [(4, 1_670)],
}


def _analyze(monkeypatch, kernel, nprocs):
    interps = record_instances(monkeypatch, comm, Interp)
    analyze_kernel(kernel, nprocs)
    return interps


def _passes(monkeypatch, kernel, nprocs):
    """(ranks finished, ops the host ran) of each pass of one analysis."""
    return [(len(interp.active),
             Budget().ops - interp.budget.ops + interp.rebated)
            for interp in _analyze(monkeypatch, kernel, nprocs)]


def _charges(interp):
    """The ops each active rank of one pass has been charged, by
    position: its share of the budget the pass has used so far."""
    interp._sync()
    return [interp._start - interp._base + interp.spent[p]
            for p in interp.active]


def _rank_charges(interps, nprocs):
    """The ops charged to each rank, by rank, read from its own pass."""
    out = {}
    for interp in interps:
        out.update(zip([interp.ranks[p] for p in interp.active],
                       _charges(interp)))
    return [out[rank] for rank in range(nprocs)]


@pytest.mark.parametrize("kernel,nprocs", sorted(LADDER_OPS))
def test_ops_charged_are_pinned(monkeypatch, kernel, nprocs):
    # every rank is charged what it was charged alone ...
    assert sum(_rank_charges(_analyze(monkeypatch, kernel, nprocs),
                             nprocs)) == LADDER_OPS[kernel, nprocs]
    # ... and the host pays once per pass
    passes = _passes(monkeypatch, kernel, nprocs)
    assert sum(ranks for ranks, _ops in passes) == nprocs
    assert passes == LADDER_PASSES[kernel, nprocs]


def _alone(module, factory, nprocs, args=(), kwargs=(), extra_sources=None):
    """The ops each rank is charged when it is interpreted on its own."""
    out = []
    for rank in range(nprocs):
        interp = Interp(extra_sources=extra_sources)
        program = interp.call_value(interp.load_program(module, factory),
                                    args, dict(kwargs))
        interp.run_program(program, MpiProxy(rank, nprocs))
        out.append(Budget().ops - interp.budget.ops)
    return out


@pytest.mark.parametrize("kernel,nprocs", [("lu", 4), ("lu", 9),
                                           ("pipeline", 16)])
def test_each_rank_is_charged_what_it_is_charged_alone(monkeypatch, kernel,
                                                        nprocs):
    spec = KERNEL_DEFS[kernel]
    assert _rank_charges(_analyze(monkeypatch, kernel, nprocs), nprocs) \
        == _alone(spec.module, spec.factory, nprocs,
                  ("S",) if spec.npb_class_arg else (), spec.kwargs)


#: arms that would charge an import to the first arm's ranks only, and a
#: name bound in one arm only
ARM_HAZARDS = textwrap.dedent("""
    def make():
        def load():
            from repro.apps.skeletons import pipeline
            return pipeline

        def kernel(mpi):
            rank = mpi.rank
            if rank % 2:
                made = load()
            else:
                made = load()
            yield from mpi.barrier()
            if rank > 1:
                fresh = rank * 3
            yield from mpi.send(None, (rank + 1) % mpi.size)
        return kernel
""")


def test_an_arm_charges_no_rank_what_it_would_not_pay_alone(monkeypatch):
    """The first import in an arm would be paid by that arm's ranks
    alone: the fork is abandoned, and every rank pays it, as alone; the
    name bound by one arm only is refused before either arm runs."""
    interps = record_instances(monkeypatch, comm, Interp)
    undone = count_calls(monkeypatch, Interp, "_undo")
    analyze_source(ARM_HAZARDS, "make", nprocs=4, module_name="hazards")
    assert _rank_charges(interps, 4) == _alone(
        "hazards", "make", 4, extra_sources={"hazards": ARM_HAZARDS})
    assert undone[0] == 1  # the import, not the unbound name


@pytest.mark.parametrize("kernel,nprocs", [
    ("lu", 4), ("lu", 9), ("lu", 16), ("lu", 64), ("pipeline", 16),
    ("pipeline", 64)])
def test_a_grid_of_boundary_ranks_runs_in_one_pass(monkeypatch, kernel,
                                                   nprocs):
    """Corner, edge and interior ranks part at every ``if north is not
    None`` and re-join: one pass, whose host ops do not grow with N."""
    passes = _passes(monkeypatch, kernel, nprocs)
    assert [ranks for ranks, _ops in passes] == [nprocs]
    assert passes[0][1] == LADDER_PASSES[kernel, 4 if kernel == "lu"
                                         else 16][0][1]


def test_refused_arms_run_once(monkeypatch):
    """``if rank == 0: ... return total`` is refused from its AST before
    either arm runs: no fork is tried, and masterworker costs the host
    no more than it cost before forks (2 090 and 1 341 ops; 6 294 frames
    in ``interp.py`` on CPython 3.11)."""
    forks = count_calls(monkeypatch, Interp, "fork")
    analyze_kernel("masterworker", 8)  # compiled outside the count
    assert _passes(monkeypatch, "masterworker", 8) \
        == LADDER_PASSES["masterworker", 8]
    assert forks[0] == 0
    with count_frames("repro/analysis/interp.py") as seen:
        analyze_kernel("masterworker", 8)
    if sys.version_info[:2] == (3, 11):  # frame counts are per version
        assert seen.frames <= 6_294, seen.by_name.most_common(8)


def _charged(monkeypatch, kernel, nprocs):
    return sum(ops for _ranks, ops in _passes(monkeypatch, kernel, nprocs))


def test_the_six_analyses_charge_one_pass_per_class(monkeypatch):
    charged = sum(_charged(monkeypatch, kernel, nprocs)
                  for kernel, nprocs in LADDER_OPS)
    assert charged <= 15_000  # 33 574 when every rank had its own pass


def test_ops_charged_do_not_grow_with_the_rank_count(monkeypatch):
    assert _charged(monkeypatch, "cg", 64) \
        <= 1.1 * _charged(monkeypatch, "cg", 16)
    assert _charged(monkeypatch, "ring", 64) \
        == _charged(monkeypatch, "ring", 16)


@pytest.mark.parametrize("kernel", ["cg", "is"])
def test_each_collective_footprint_is_built_once_per_analysis(kernel):
    """Repeated instances of a collective share its footprint: an
    analysis builds at most one per distinct call and rank."""
    comm.coll_footprint.cache_clear()
    comm._completes_alone.cache_clear()
    analyze_kernel(kernel, 16)
    builds = comm.coll_footprint.cache_info().misses
    calls = [(event.kind, event.root, event.nbytes)
             for events in comm_oracle.rank_events(KERNEL_DEFS[kernel], 16,
                                                   "S")
             for event in events if isinstance(event, CollEvent)]
    signatures = len(set(calls))
    assert len(calls) > 2 * signatures * 16  # instances repeat ...
    assert builds <= signatures * 16  # ... their footprints do not


def _comm_lines(kernel, nprocs):
    """Source lines :mod:`repro.analysis.comm` runs in one analysis with
    no footprint memoised (compiled forms are, as they are per process)."""
    analyze_kernel(kernel, nprocs)
    comm.coll_footprint.cache_clear()
    comm._completes_alone.cache_clear()
    with count_lines("repro/analysis/comm.py") as lines:
        analyze_kernel(kernel, nprocs)
    return lines[0]


def test_graph_and_matching_work_grows_no_faster_than_the_ranks():
    """CG calls 314 collectives a rank: the graph counts each distinct
    call once, and the ranks pass each instance all at once, so four
    times the ranks cost at most four times the lines (8 777 191 against
    1 551 065 when every instance was expanded and matched sub-op by
    sub-op, rank by rank)."""
    at_16 = _comm_lines("cg", 16)
    assert at_16 <= 60_000  # 31 452 on CPython 3.11
    assert _comm_lines("cg", 64) <= 4.4 * at_16


def test_frames_for_the_six_analyses_stay_under_the_class_budget():
    for kernel, nprocs in LADDER_OPS:
        analyze_kernel(kernel, nprocs)  # compiled once, outside the count
    with count_frames("repro/analysis/interp.py") as seen:
        for kernel, nprocs in LADDER_OPS:
            analyze_kernel(kernel, nprocs)
    # 71 430 with one pass per rank
    assert seen.frames <= 40_000, seen.by_name.most_common(8)


def test_frames_per_op_stay_under_the_budget():
    for kernel, nprocs in LADDER_OPS:
        analyze_kernel(kernel, nprocs)  # compiled once, outside the count
    with count_frames("repro/analysis/interp.py") as seen:
        for kernel, nprocs in LADDER_OPS:
            analyze_kernel(kernel, nprocs)
    # 166 531 when every node was re-dispatched by name (4.96 an op)
    assert seen.frames <= 84_000, seen.by_name.most_common(8)


def test_analyze_source_parses_its_source_once(monkeypatch):
    source = textwrap.dedent("""
        def make():
            def kernel(mpi):  # parsed once for all eight ranks
                yield from mpi.barrier()
            return kernel
    """)
    interp_module._source_code.cache_clear()
    parses = count_calls(monkeypatch, ast, "parse")
    graph = analyze_source(source, "make", nprocs=8)
    assert graph.collectives == {"barrier": 1}
    assert parses[0] == 1


def _compile_work(monkeypatch, kernel, nprocs):
    counters = [count_calls(monkeypatch, interp_module, name)
                for name in ("_compile_stmt", "_compile_expr")]
    analyze_kernel(kernel, nprocs)
    return sum(calls[0] for calls in counters)


def test_the_analyzer_caches_stay_bounded():
    """Parses, compiled forms, memoised graphs and collective footprints
    are kept per source, per package module, per registration and per
    call signature — each under a bound, however many sources,
    registrations and signatures a long-lived process sees."""
    for name, spec in KERNEL_DEFS.items():
        if spec.trace is None:
            try:
                analyze_kernel(name, 4)
            except AnalysisError:
                pass  # a kernel that rejects 4 ranks still parsed its module
    for n in range(300):
        source = ("def make():\n    def kernel(mpi):\n"
                  f"        yield from mpi.send(None, (mpi.rank + {n}) % 2)\n"
                  f"        yield from mpi.bcast(bytes({n}), root={n} % 2)\n"
                  "    return kernel\n")
        analyze_source(source, "make", nprocs=2)
    base = KERNEL_DEFS["ring"]
    try:
        for _ in range(300):
            register_kernel(dataclasses.replace(base, name="ring-again"),
                            replace_existing=True)
            assert comm.predicted_peers_for("ring-again", 2) == ((1,), (0,))
    finally:
        KERNEL_DEFS.pop("ring-again", None)
    apps = ["repro.apps"] + [module.name for module in pkgutil.walk_packages(
        repro_apps.__path__, "repro.apps.")]
    assert interp_module._source_code.cache_info().currsize <= 8
    assert comm._cached_source_graph.cache_info().currsize <= 256
    # one footprint per collective call signature and rank, and one
    # standalone check per signature called alike by every rank
    assert 600 <= comm.coll_footprint.cache_info().currsize <= 4096
    assert 300 <= comm._completes_alone.cache_info().currsize <= 1024
    assert interp_module._module_code.cache_info().currsize <= len(apps)


def test_compile_work_is_paid_once_whatever_the_rank_count(monkeypatch):
    interp_module._module_code.cache_clear()
    at_4 = _compile_work(monkeypatch, "ring", 4)
    assert at_4 > 0
    assert _compile_work(monkeypatch, "ring", 4) == 0  # second analysis
    interp_module._module_code.cache_clear()
    assert _compile_work(monkeypatch, "ring", 16) == at_4


def test_a_small_budget_raises_the_typed_error():
    source = "def make():\n    def kernel(mpi):\n        while True:\n" \
             "            pass\n    return kernel\n"
    interp = Interp(budget=Budget(2_000), extra_sources={"spin": source})
    program = interp.call_value(interp.load_program("spin", "make"), (), {})
    with pytest.raises(BudgetExceeded) as blown:
        interp.run_program(program, MpiProxy(0, 1))
    assert isinstance(blown.value, AnalysisError)
    assert interp.budget.ops < 0


ORDER_PROBE = """
import json
from repro.workloads.registry import KERNEL_DEFS
from tests.test_comm_analysis import commgraph_digest

late = [("cg", 4), ("is", 4), ("samrai", 4), ("masterworker", 8)]
names = [name for name, defn in KERNEL_DEFS.items() if defn.trace is None]
for name in names:
    if name not in dict(late):
        commgraph_digest(name, 2)
out = {}
for name in reversed(names):
    if name in dict(late):
        nprocs = dict(late)[name]
        out[f"{name}/{nprocs}"] = [commgraph_digest(name, nprocs)
                                   for _ in range(2)]
print(json.dumps(out))
"""


def test_an_analysis_never_depends_on_the_ones_before_it():
    """Reverse registry order, each twice, after every other kernel has
    run at another rank count in the same process: the golden digests."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, root]),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", ORDER_PROBE], env=env,
                          cwd=root, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr
    golden = json.loads(DIGESTS_PATH.read_text())
    digests = json.loads(done.stdout)
    assert sorted(digests) == ["cg/4", "is/4", "masterworker/8", "samrai/4"]
    for key, pair in digests.items():
        assert pair == [golden[key], golden[key]], key


def test_runaway_recursion_reaches_the_depth_guard():
    """A closure tree nests fewer Python frames per interpreted call than
    the 150-call guard needs to fire before Python's own limit does."""
    source = textwrap.dedent("""
        def make():
            def down(n):
                if n >= 0:
                    return down(n + 1) + 1
                else:
                    return 0
            def kernel(mpi):
                down(0)
            return kernel
    """)
    with pytest.raises(AnalysisError, match="call depth exceeded in 'down'"):
        analyze_source(source, "make", nprocs=1)
