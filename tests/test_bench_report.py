"""Tests for the experiment report containers and rendering."""

import pytest

from repro.bench.report import Experiment, Row


def sample() -> Experiment:
    exp = Experiment("Table X", "demo", ["a", "b"], notes="a note")
    exp.add("row1", a=1.0, b=2.5)
    exp.add("row2", a=3.0)
    return exp


class TestExperiment:
    def test_columns_and_rows(self):
        exp = sample()
        assert exp.column("a") == [1.0, 3.0]
        assert exp.column("b") == [2.5, None]
        assert exp.row("row2").get("a") == 3.0

    def test_missing_row_raises(self):
        with pytest.raises(KeyError):
            sample().row("nope")

    def test_render_contains_everything(self):
        out = sample().render()
        assert "Table X" in out and "demo" in out
        assert "row1" in out and "2.50" in out
        assert "a note" in out
        # missing values render as '-'
        assert "-" in out

    def test_render_custom_float_format(self):
        out = sample().render(float_fmt="{:.0f}")
        assert "2" in out and "2.50" not in out

    def test_row_get_default(self):
        row = Row("x", {"k": 1})
        assert row.get("missing", 42) == 42

    def test_str_is_render(self):
        exp = sample()
        assert str(exp) == exp.render()


class TestRunnerRegistry:
    def test_all_experiments_registered(self):
        from repro.bench.cli import EXPERIMENTS

        expected = {"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                    "fig8", "table1", "table2", "table2mem", "table3"}
        assert expected <= set(EXPERIMENTS)

    def test_cli_rejects_unknown(self, capsys):
        from repro.bench.cli import main

        with pytest.raises(SystemExit):
            main(["figure99"])

    def test_cli_runs_one_experiment(self, capsys):
        from repro.bench.cli import main

        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "took" in out


@pytest.fixture
def ran(monkeypatch):
    """Every experiment's runner replaced by a stub that records its id."""
    from dataclasses import replace

    from repro.bench import cli

    ran = []
    for name, record in cli.EXPERIMENTS.items():
        monkeypatch.setitem(cli.EXPERIMENTS, name, replace(
            record,
            run=lambda name=name: ran.append(name) or Experiment(name, "", [])))
    return ran


def _paper_and_ablations():
    from repro.bench.ablations import ALL_ABLATIONS
    from repro.bench.cli import EXPERIMENTS

    return (sorted(set(EXPERIMENTS) - set(ALL_ABLATIONS)),
            sorted(ALL_ABLATIONS))


class TestCliExperimentList:
    def test_a_group_after_an_id_keeps_the_id(self, ran, capsys):
        from repro.bench.cli import main

        assert main(["fig1", "ablations"]) == 0
        assert ran == ["fig1"] + _paper_and_ablations()[1]

    def test_two_groups_run_both_in_order(self, ran, capsys):
        from repro.bench.cli import main

        paper, abl = _paper_and_ablations()
        assert main(["all", "ablations"]) == 0
        assert ran == paper + abl

    def test_each_id_runs_once(self, ran, capsys):
        from repro.bench.cli import main

        paper, _ = _paper_and_ablations()
        assert main(["table3", "all", "fig6"]) == 0
        assert ran == ["table3"] + [n for n in paper if n != "table3"]


class TestOneSimulationPerNpbCell:
    @pytest.fixture
    def calls(self, monkeypatch):
        """The bench modules' ``run_job`` counts its calls and simulates
        nothing; the NPB memo starts and ends empty, so no fake time
        outlives the test."""
        from types import SimpleNamespace

        from repro.bench import ablations, chaos, figures, tables

        calls = []

        def fake_run_job(spec, nprocs, program, config, **kwargs):
            calls.append(nprocs)
            return SimpleNamespace(
                returns=[SimpleNamespace(verified=True, time_us=1e3)])

        for module in (figures, tables, ablations, chaos):
            monkeypatch.setattr(module, "run_job", fake_run_job)
        figures.npb_time_us.cache_clear()
        yield calls
        figures.npb_time_us.cache_clear()

    def test_table3_reads_the_figures_runs(self, calls, capsys):
        from repro.bench import figures
        from repro.bench.cli import main

        assert main(["fig6", "fig7"]) == 0
        figures_only = len(calls)
        assert figures_only == 8 * 3 + 5 * 2  # cLAN cells x 3 modes, BVIA x 2
        figures.npb_time_us.cache_clear()
        calls.clear()
        assert main(["fig6", "fig7", "table3"]) == 0
        assert len(calls) == figures_only

    @pytest.mark.parametrize("argv", [["all", "--full"], ["all", "--large"],
                                      ["chaos", "--smoke"],
                                      ["chaos", "--full"]])
    def test_the_scaled_paper_duality_is_gone(self, calls, argv, capsys):
        from repro.bench.cli import main

        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        assert not calls
