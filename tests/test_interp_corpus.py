"""The interpreter corpus (:mod:`tests.interp_corpus`) against its golden
digests: what :mod:`repro.analysis.interp` computes for every statement
and expression kind, every ``MpiProxy`` method, the uncertain-branch
machinery and 200 grammar-drawn SPMD kernels, pinned on the commit
before the evaluator became a tree of closures.

A digest is the sha256 of the canonical ``CommGraph`` JSON, or of
``TypeName: message`` when the analysis raises (as
``tests/test_comm_analysis.py::commgraph_digest`` does).  A budget sweep
digests, for every budget from 0 up to the kernel's own cost, the line
and the number of MPI events at which ``BudgetExceeded`` fired — the op
charged at every program point, not only their total.

Regenerating (only ever on the commit the golden was made on; a kernel
added later gets its digest there too)::

    git clone -q . /tmp/parent && git -C /tmp/parent checkout -q e593240
    cp tests/interp_corpus.py tests/test_interp_corpus.py /tmp/parent/tests/
    (cd /tmp/parent && PYTHONPATH=src python -m tests.test_interp_corpus)
    cp /tmp/parent/tests/golden/interp_corpus_digests.json tests/golden/
"""

import hashlib
import json
import pathlib

import pytest

from repro.analysis import analyze_source
from repro.analysis.interp import Budget, BudgetExceeded, Interp, MpiProxy

from tests.interp_corpus import GENERATED_SEEDS, HAND, generated_kernel

GOLDEN_PATH = (pathlib.Path(__file__).parent / "golden"
               / "interp_corpus_digests.json")
NPROCS = (2, 5)

#: kernels swept budget by budget (short ones: the sweep is quadratic)
BUDGET_SWEEPS = ("names_constants", "lambda_namedexpr", "ifexp_boolop",
                 "calls_binding", "augassign", "if_escapes", "try_raise",
                 "comprehensions", "multiline_diagnostics", "restore_hazard",
                 "closures", "with_assert_del_pass", "yield_forms")


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def graph_digest(source, nprocs, factory="make", kwargs=None,
                 module_name="commtest"):
    try:
        doc = analyze_source(source, factory, nprocs, kwargs=kwargs,
                             module_name=module_name).as_dict()
    except Exception as exc:  # noqa: BLE001 - the error is the oracle
        doc = {"error": f"{type(exc).__name__}: {exc}"}
    return _sha(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def run_with_budget(source, ops):
    """Rank 0 of 2 under ``Budget(ops)``: where it blew, or what was left."""
    interp = Interp(budget=Budget(ops), extra_sources={"commtest": source})
    mpi = MpiProxy(0, 2)
    try:
        factory = interp.load_program("commtest", "make")
        program = interp.call_value(factory, (), {})
        interp.run_program(program, mpi)
    except BudgetExceeded:
        return ["blown", interp.current_line, len(mpi.events)]
    return ["done", interp.budget.ops, len(mpi.events)]


def budget_sweep_digest(source):
    cost = 10_000 - run_with_budget(source, 10_000)[1]
    rows = [run_with_budget(source, ops) for ops in range(cost + 2)]
    return _sha(json.dumps([cost, rows]))


def corpus_digests():
    out = {}
    for name, (source, options) in sorted(HAND.items()):
        for nprocs in NPROCS:
            out[f"hand/{name}/{nprocs}"] = graph_digest(
                source, nprocs, **options)
    for name in BUDGET_SWEEPS:
        out[f"budget/{name}"] = budget_sweep_digest(HAND[name][0])
    for seed in GENERATED_SEEDS:
        source = generated_kernel(seed)
        for nprocs in NPROCS:
            out[f"gen/{seed}/{nprocs}"] = graph_digest(source, nprocs)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_the_corpus_exactly(golden):
    expected = {f"hand/{name}/{n}" for name in HAND for n in NPROCS}
    expected |= {f"budget/{name}" for name in BUDGET_SWEEPS}
    expected |= {f"gen/{seed}/{n}" for seed in GENERATED_SEEDS for n in NPROCS}
    assert set(golden) == expected
    assert len(GENERATED_SEEDS) >= 200


@pytest.mark.parametrize("name", sorted(HAND))
def test_hand_written_kernel(golden, name):
    source, options = HAND[name]
    for nprocs in NPROCS:
        assert graph_digest(source, nprocs, **options) == \
            golden[f"hand/{name}/{nprocs}"], (name, nprocs)


@pytest.mark.parametrize("name", BUDGET_SWEEPS)
def test_budget_fires_at_the_same_program_point(golden, name):
    assert budget_sweep_digest(HAND[name][0]) == golden[f"budget/{name}"]


@pytest.mark.parametrize("first", range(0, len(GENERATED_SEEDS), 20))
def test_generated_kernels(golden, first):
    changed = [
        (seed, nprocs)
        for seed in GENERATED_SEEDS[first:first + 20]
        for nprocs in NPROCS
        if graph_digest(generated_kernel(seed), nprocs)
        != golden[f"gen/{seed}/{nprocs}"]]
    assert not changed, f"CommGraph changed for (seed, nprocs) {changed}"


def test_corpus_is_not_degenerate():
    """The oracle sees values: SHOW lines come back as diagnostics, and
    the grammar produces clean, diagnosed and uncertain graphs alike."""
    graph = analyze_source(HAND["binops"][0], "make", 2)
    shown = {d.message for d in graph.diagnostics if d.code == "REPROC03"}
    assert "send targets rank 132, out of range for nprocs=2" in shown  # 2**5
    kinds = set()
    for seed in GENERATED_SEEDS[:40]:
        graph = analyze_source(generated_kernel(seed), "make", 5)
        kinds.add((graph.ok, bool(graph.params["matching_checked"])))
    assert len(kinds) >= 3


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(corpus_digests(), indent=1) + "\n")
