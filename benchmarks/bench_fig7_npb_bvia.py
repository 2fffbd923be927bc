"""Figure 7: NPB on Berkeley VIA — on-demand vs. static polling."""

from repro.bench import figures

from benchmarks.conftest import run_once


def test_figure7(benchmark):
    exp = run_once(benchmark, figures.figure7)
    print("\n" + exp.render())

    ratios = {row.label: row.get("on-demand") for row in exp.rows}
    # paper: on-demand never loses on BVIA ...
    assert all(r <= 1.01 for r in ratios.values()), ratios
    # ... and wins visibly where the static VI count is large relative
    # to the working set (CG at 8 processes: 7 static VIs vs ~3 used)
    cg8 = next(v for k, v in ratios.items() if k.startswith("CG") and k.endswith(".8"))
    assert cg8 < 0.97
