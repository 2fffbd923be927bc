"""Every paper experiment's record, checked without a simulation.

``tests/golden/paper_tables.txt`` is the committed output of
``python -m repro.bench all ablations``.  Parsed back into
:class:`~repro.bench.report.Experiment` objects, it must satisfy every
record's shape predicate, and a copy with one value moved the way a
regression would move it must not.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.bench import ablations, figures, report, tables
from repro.bench.cli import EXPERIMENTS, GROUPS
from repro.bench.report import Experiment, Record, ShapeError

GOLDEN = Path(__file__).parent / "golden" / "paper_tables.txt"
#: "== <id>: <title> ==", where an ablation's id is "Ablation: <name>"
HEADER = re.compile(r"== ((?:Ablation: )?[^:]+): (.*) ==")


def _value(cell):
    if cell == "-":
        return None
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def golden_experiments():
    """The golden tables by experiment id, in the order they ran.

    Each block is a header, a column line, a rule, the rows, the notes
    and the masked wall time; cells are right-aligned and at least two
    spaces apart, and no label or column name holds two spaces."""
    blocks = GOLDEN.read_text(encoding="utf-8").split("\n\n")
    ids = GROUPS["all"] + GROUPS["ablations"]
    assert len(blocks) == len(ids) + 1 and blocks[-1] == ""
    parsed = {}
    for name, block in zip(ids, blocks):
        head, columns, _rule, *rows, notes, _wall = block.split("\n")
        exp_id, title = HEADER.fullmatch(head).groups()
        exp = Experiment(exp_id, title, re.split(r" {2,}", columns.strip()),
                         notes=notes)
        for line in rows:
            label, *cells = re.split(r" {2,}", line.strip())
            exp.add(label, **dict(zip(exp.columns, map(_value, cells))))
        parsed[name] = exp
    return parsed


GOLDEN_EXPERIMENTS = golden_experiments()


def test_every_experiment_has_a_record():
    for name, record in EXPERIMENTS.items():
        assert isinstance(record, Record), name
        assert callable(record.run) and callable(record.shape), name


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_golden_tables_satisfy_their_record(name):
    EXPERIMENTS[name].check(GOLDEN_EXPERIMENTS[name], GOLDEN_EXPERIMENTS)


def _moved(name, label, column, value):
    """The golden ``name`` with one cell moved."""
    exp = golden_experiments()[name]
    exp.row(label).values[column] = value
    return exp


#: id -> (row, column, value a regression would produce, words the
#: failure must name besides the experiment and the row)
MUTANTS = {
    "fig4": ("P=8", "bvia/on-demand",
             GOLDEN_EXPERIMENTS["fig4"].row("P=8").get("bvia/static-polling"),
             "BVIA on-demand beats static"),
    "table2": ("Ring.16", "ondemand_vis", 3, "on-demand VIs within 0"),
    "table1": ("SMG2000", "measured@64", 30, "within 0.5"),
    "fig6": ("IS.B.16", "on-demand", 1.06, "on-demand within 5 %"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_a_moved_value_is_rejected_by_name(name):
    label, column, value, claim = MUTANTS[name]
    exp = _moved(name, label, column, value)
    with pytest.raises(ShapeError) as caught:
        EXPERIMENTS[name].check(exp, GOLDEN_EXPERIMENTS)
    assert str(caught.value).startswith(f"{exp.exp_id}, {label}: {claim}")


def test_claims_survive_python_dash_o():
    """``python -O`` drops ``assert`` statements and ``if __debug__``
    blocks; the records' modules use neither, so every claim still
    raises."""
    for module in (report, figures, tables, ablations):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        stripped = [node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Assert)
                    or (isinstance(node, ast.Name) and node.id == "__debug__")]
        assert not stripped, (module.__name__, stripped)
