"""The paper's evaluation, simulated once and checked twice over.

One module-scoped run of ``python -m repro.bench all ablations`` (in
process) feeds both checks:

* its stdout, with host wall times masked, equals
  ``tests/golden/paper_tables.txt`` byte for byte;
* every experiment it printed satisfies its record's shape predicate
  (who wins, by roughly what factor, where crossovers fall), one test
  per experiment id.

Run it with ``PYTHONPATH=src python -m pytest benchmarks/ -p
no:cacheprovider``; the run takes minutes on one core.
"""

import contextlib
import io
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench import cli, figures

from tests.test_bench_cli import WALL

GOLDEN = Path(__file__).parents[1] / "tests" / "golden" / "paper_tables.txt"


@pytest.fixture(scope="module")
def paper():
    """(masked stdout, experiment id -> the Experiment it printed)."""
    printed = {}

    def keep(name, run):
        def run_and_keep():
            assert name not in printed, f"{name} ran twice"
            printed[name] = run()
            return printed[name]
        return run_and_keep

    records = {name: replace(record, run=keep(name, record.run))
               for name, record in cli.EXPERIMENTS.items()}
    figures.npb_time_us.cache_clear()
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        patch.setattr(cli, "EXPERIMENTS", records)
        assert cli.main(["all", "ablations"]) == 0
    return WALL.sub("[… wall]", out.getvalue()), printed


def test_stdout_matches_the_golden_tables(paper):
    stdout, _ = paper
    assert stdout == GOLDEN.read_bytes().decode("utf-8")


def test_each_npb_cell_is_simulated_once(paper):
    # Figures 6 and 7 and Table 3 read the same cells
    info = figures.npb_time_us.cache_info()
    assert info.misses == info.currsize == info.maxsize


@pytest.mark.parametrize("name", sorted(cli.EXPERIMENTS))
def test_shape(paper, name):
    _, printed = paper
    cli.EXPERIMENTS[name].check(printed[name], printed)
