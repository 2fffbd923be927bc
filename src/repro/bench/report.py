"""Experiment result containers, text rendering and paper records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping


@dataclass
class Row:
    """One measurement row: a label plus named values."""

    label: str
    values: Dict[str, Any]

    def get(self, key: str, default=None):
        return self.values.get(key, default)


@dataclass
class Experiment:
    """One reproduced table or figure."""

    exp_id: str
    title: str
    columns: List[str]
    rows: List[Row] = field(default_factory=list)
    #: free-text comparison note vs. the paper
    notes: str = ""

    def add(self, label: str, **values: Any) -> None:
        self.rows.append(Row(label, values))

    def column(self, key: str) -> List[Any]:
        """All values of one column, in row order."""
        return [row.get(key) for row in self.rows]

    def row(self, label: str) -> Row:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(f"{self.exp_id}: no row {label!r}")

    # -- rendering ----------------------------------------------------------
    def render(self, float_fmt: str = "{:.2f}") -> str:
        def fmt(v):
            if v is None:
                return "-"
            if isinstance(v, float):
                return float_fmt.format(v)
            return str(v)

        headers = ["" ] + self.columns
        table = [headers]
        for row in self.rows:
            table.append([row.label] + [fmt(row.get(c)) for c in self.columns])
        widths = [max(len(line[i]) for line in table) for i in range(len(headers))]
        out = [f"== {self.exp_id}: {self.title} =="]
        for k, line in enumerate(table):
            out.append("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
            if k == 0:
                out.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
        if self.notes:
            out.append(self.notes)
        return "\n".join(out)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


class ShapeError(AssertionError):
    """An experiment's rows break one of the paper's shape claims."""


@dataclass(frozen=True)
class Claims:
    """What a shape predicate reads: the experiment, the paper values its
    record quotes and, for claims across experiments, every experiment
    the same run produced (by id).  Calling it states one claim."""

    exp: Experiment
    paper: Any
    seen: Mapping[str, Experiment]

    def __call__(self, ok: Any, row: str, claim: str) -> None:
        # a raise, not an assert: ``python -O`` keeps it
        if not ok:
            raise ShapeError(f"{self.exp.exp_id}, {row}: {claim}")

    def by(self, key: str, column: str) -> Dict[Any, Any]:
        """``column`` keyed by the ``key`` column, e.g. latency by nprocs."""
        return dict(zip(self.exp.column(key), self.exp.column(column)))


@dataclass(frozen=True)
class Record:
    """One experiment of the paper's evaluation: its runner, the paper
    values it quotes and the shape predicate its rows must satisfy."""

    run: Callable[[], Experiment]
    #: raises :class:`ShapeError` on the first claim the rows break
    shape: Callable[[Claims], None]
    paper: Any = None

    def check(self, exp: Experiment, seen: Mapping[str, Experiment]) -> None:
        self.shape(Claims(exp, self.paper, seen))
