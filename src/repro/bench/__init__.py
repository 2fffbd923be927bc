"""Experiment harness: one runner per table and figure of the paper.

Each runner returns an :class:`~repro.bench.report.Experiment` whose
rows mirror what the paper plots or tabulates, renders as a text table,
and records the paper's reference values next to the measured ones.

Run everything from the command line::

    python -m repro.bench all            # every table and figure
    python -m repro.bench fig4 table2    # a subset
    python -m repro.bench all ablations  # and the ablation studies

or from Python::

    from repro.bench import figures
    exp = figures.figure4()
    print(exp.render())
"""

from repro.bench.report import Experiment, Row

__all__ = ["Experiment", "Row"]
