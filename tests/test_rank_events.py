"""Every rank's event stream, rank by rank, against a golden made by
interpreting each rank on its own.

The analyzer interprets a kernel once per class of ranks that take the
same path; the graph digests cannot see event order or the ``certain``
flags the matcher skips, so this golden pins what each rank records: the
sha256 of its canonical event stream (op, peer, wildcard, tag, nbytes,
certain, line — in order), or ``TypeName: message`` when the rank fails.
It covers every source-backed registry kernel at every rank count in
``REGISTRY_NPROCS`` it accepts, the interpreter corpus's hand-written and
grammar kernels, and the corpus's divergent-rank kernels.

The golden was generated with :func:`reference_outcomes` — one ``Interp``
and one single-rank ``MpiProxy`` per rank, the analyzer's per-rank loop —
on commit 445e5c3, and is never edited::

    git clone -q . /tmp/parent && git -C /tmp/parent checkout -q 445e5c3
    cp tests/interp_corpus.py tests/test_rank_events.py /tmp/parent/tests/
    (cd /tmp/parent && PYTHONPATH=src python -m tests.test_rank_events)
    cp /tmp/parent/tests/golden/rank_events_digests.json tests/golden/
"""

import hashlib
import json
import pathlib

import pytest

from repro.analysis import analyze_source
from repro.analysis import comm
from repro.analysis.interp import Budget, Interp, MpiProxy
from repro.workloads.registry import KERNEL_DEFS, KernelDef

from tests.interp_corpus import DIVERGENT, GENERATED_SEEDS, HAND, generated_kernel

GOLDEN_PATH = (pathlib.Path(__file__).parent / "golden"
               / "rank_events_digests.json")
REGISTRY_NPROCS = (2, 4, 5, 8, 16)
CORPUS_NPROCS = (2, 5)
DIVERGENT_NPROCS = (2, 5, 8)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


#: the fields of each event type: read by name, so that the digest is
#: the same whatever class implements the events
EVENT_FIELDS = {
    "MsgEvent": ("op", "peer", "wildcard", "tag", "nbytes", "certain", "line"),
    "CollEvent": ("kind", "root", "nbytes", "certain", "line"),
}


def stream_digest(events):
    doc = [[type(e).__name__,
            {name: getattr(e, name) for name in EVENT_FIELDS[type(e).__name__]}]
           for e in events]
    return _sha(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _is_error(outcome):
    return not outcome.isalnum()  # a digest is hex, an error has ": "


def _outcome(value):
    if isinstance(value, Exception):
        return f"{type(value).__name__}: {value}"
    return stream_digest(value)


def reference_outcomes(module, factory, nprocs, args=(), kwargs=(),
                       extra_sources=None):
    """Each rank interpreted on its own: digest or error, by rank."""
    out = []
    for rank in range(nprocs):
        interp = Interp(extra_sources=extra_sources)
        mpi = MpiProxy(rank, nprocs)
        try:
            program = interp.call_value(
                interp.load_program(module, factory), args, dict(kwargs))
            interp.run_program(program, mpi)
        except Exception as exc:  # noqa: BLE001 - the error is the oracle
            out.append(_outcome(exc))
            continue
        out.append(stream_digest(mpi.events))
    return out


def class_outcomes(module, factory, nprocs, args=(), kwargs=(),
                   extra_sources=None):
    """The same through the analyzer's rank classes, each class's
    stream resolved for each of its ranks."""
    # imported here: the golden's recipe runs this module on a tree
    # that has no rank classes
    from tests import comm_oracle

    spec = KernelDef(name="<source>", module=module, factory=factory,
                     kwargs=tuple(kwargs), npb_class_arg=bool(args))
    outcomes = comm_oracle.rank_outcomes(spec, nprocs,
                                         args[0] if args else None,
                                         extra_sources)
    return [_outcome(value) for value in outcomes]


def _registry_case(name):
    spec = KERNEL_DEFS[name]
    return dict(module=spec.module, factory=spec.factory,
                args=("S",) if spec.npb_class_arg else (),
                kwargs=spec.kwargs)


def _source_case(source, options):
    module = options.get("module_name", "commtest")
    return dict(module=module, factory=options.get("factory", "make"),
                kwargs=tuple(sorted((options.get("kwargs") or {}).items())),
                extra_sources={module: source})


def corpus_cases():
    """(key prefix, analysis arguments, rank counts) of the corpus."""
    for name, (source, options) in sorted(HAND.items()):
        yield f"hand/{name}", _source_case(source, options), CORPUS_NPROCS
    for seed in GENERATED_SEEDS:
        yield (f"gen/{seed}", _source_case(generated_kernel(seed), {}),
               CORPUS_NPROCS)
    for name, (source, options) in sorted(DIVERGENT.items()):
        yield (f"divergent/{name}", _source_case(source, options),
               DIVERGENT_NPROCS)


def golden_digests():
    out = {}
    for name, spec in sorted(KERNEL_DEFS.items()):
        if spec.trace is not None:
            continue
        for nprocs in REGISTRY_NPROCS:
            ranks = reference_outcomes(nprocs=nprocs, **_registry_case(name))
            if any(_is_error(r) for r in ranks):
                continue  # the kernel rejects this rank count
            for rank, digest in enumerate(ranks):
                out[f"kernel/{name}/{nprocs}/{rank}"] = digest
    for prefix, case, counts in corpus_cases():
        for nprocs in counts:
            for rank, digest in enumerate(
                    reference_outcomes(nprocs=nprocs, **case)):
                out[f"{prefix}/{nprocs}/{rank}"] = digest
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _check(golden, prefix, case, nprocs):
    got = class_outcomes(nprocs=nprocs, **case)
    want = [golden[f"{prefix}/{nprocs}/{rank}"] for rank in range(nprocs)]
    assert got == want, [r for r in range(nprocs) if got[r] != want[r]]


def _registry_params():
    if not GOLDEN_PATH.exists():  # while the golden is being generated
        return []
    golden = json.loads(GOLDEN_PATH.read_text())
    return sorted({tuple(key.split("/")[1:3]) for key in golden
                   if key.startswith("kernel/")})


@pytest.mark.parametrize("name,nprocs", _registry_params())
def test_registry_kernel_ranks(golden, name, nprocs):
    _check(golden, f"kernel/{name}", _registry_case(name), int(nprocs))


def test_golden_covers_every_builtin_kernel(golden):
    kernels = {key.split("/")[1] for key in golden if key.startswith("kernel/")}
    assert kernels == {name for name, spec in KERNEL_DEFS.items()
                       if (spec.module or "").startswith("repro.apps.")}


@pytest.mark.parametrize("name", sorted(HAND))
def test_hand_kernel_ranks(golden, name):
    source, options = HAND[name]
    for nprocs in CORPUS_NPROCS:
        _check(golden, f"hand/{name}", _source_case(source, options), nprocs)


@pytest.mark.parametrize("first", range(0, len(GENERATED_SEEDS), 40))
def test_generated_kernel_ranks(golden, first):
    for seed in GENERATED_SEEDS[first:first + 40]:
        for nprocs in CORPUS_NPROCS:
            _check(golden, f"gen/{seed}",
                   _source_case(generated_kernel(seed), {}), nprocs)


@pytest.mark.parametrize("name", sorted(DIVERGENT))
def test_divergent_kernel_ranks(golden, name):
    source, options = DIVERGENT[name]
    for nprocs in DIVERGENT_NPROCS:
        _check(golden, f"divergent/{name}", _source_case(source, options),
               nprocs)


@pytest.mark.parametrize("name", sorted(DIVERGENT))
def test_the_lowest_failing_rank_names_the_error(golden, name):
    source, options = DIVERGENT[name]
    for nprocs in DIVERGENT_NPROCS:
        ranks = [golden[f"divergent/{name}/{nprocs}/{rank}"]
                 for rank in range(nprocs)]
        failed = [r for r in ranks if _is_error(r)]
        try:
            analyze_source(source, options.get("factory", "make"), nprocs,
                           kwargs=options.get("kwargs"),
                           module_name=options.get("module_name", "commtest"))
        except Exception as exc:  # noqa: BLE001 - the error is the oracle
            assert failed and _outcome(exc) == failed[0]
        else:
            assert not failed


#: arms of different costs, so that after they re-join the ranks of one
#: pass have been charged different ops
UNEVEN_ARMS = """
def make():
    def kernel(mpi):
        rank = mpi.rank
        if rank % 2:
            x = rank + 1 + 2 + 3
        else:
            x = 0
        yield from mpi.send(None, x % mpi.size, tag=1)
        if rank > 1:
            y = x * 2 if rank % 3 else x
            yield from mpi.send(None, y % mpi.size, tag=2)
        yield from mpi.barrier()
    return kernel
"""


def test_each_rank_runs_out_of_budget_where_it_would_alone(monkeypatch):
    """Budget by budget up to the kernel's cost: the ranks a shared pass
    runs out for, and the events of those it finishes, are what each
    rank gives on its own."""
    sources = {"uneven": UNEVEN_ARMS}
    budget = [0]
    monkeypatch.setattr(comm, "Interp", lambda extra_sources=None: Interp(
        budget=Budget(budget[0]), extra_sources=extra_sources))
    outcomes = set()
    for budget[0] in range(0, 70):
        solo = []
        for rank in range(5):
            interp = Interp(budget=Budget(budget[0]), extra_sources=sources)
            mpi = MpiProxy(rank, 5)
            try:
                interp.run_program(interp.call_value(
                    interp.load_program("uneven", "make"), (), {}), mpi)
            except Exception as exc:  # noqa: BLE001 - the error is the oracle
                solo.append(_outcome(exc))
            else:
                solo.append(stream_digest(mpi.events))
        assert class_outcomes("uneven", "make", 5,
                              extra_sources=sources) == solo, budget[0]
        outcomes.add(tuple(map(_is_error, solo)))
    # the sweep saw ranks run out apart from one another
    assert len(outcomes) > 2


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(golden_digests(), indent=1) + "\n")
