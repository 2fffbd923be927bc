"""``python -m benchmarks.ladder compare A.json B.json``.

For every (workload, end-to-end metric) pair both files hold: both
medians, the ratio B/A with its base, the bound, and a verdict —

* ``ok``: B's median is no worse than A's by more than the bound, and
  the run-to-run spread of both sides is within the bound;
* ``regressed``: B is worse by more than the bound and by more than
  either side's spread;
* ``unresolved``: the spread is wider than the bound (or than the
  difference), so the runs cannot tell.

Spread is the distance between the quartiles of a side's repetitions
as a share of their median (half the range when there are three).
Exit status 1 on any ``regressed``.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, Iterator, List, Tuple

from .metrics import END_TO_END, WORKLOAD_ONLY

#: metric -> (better, bound)
BOUNDS: Dict[str, Tuple[str, float]] = {
    **{name: (better, bound) for name, _unit, better, bound in END_TO_END},
    **{name: (better, bound) for name, _unit, better, bound, _w, _layer in WORKLOAD_ONLY},
}


def spread(cell: Dict[str, Any]) -> float:
    values = cell["values"]
    if len(values) < 2 or not cell["median"]:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / cell["median"]


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> str:
    """Classify one metric of run B against the same metric of run A."""
    change = (b["median"] - a["median"]) / a["median"]
    worsening = change if better == "lower" else -change
    noise = max(spread(a), spread(b))
    if worsening > bound:
        return "regressed" if worsening > noise else "unresolved"
    return "ok" if noise <= bound else "unresolved"


def rows(doc_a: Dict[str, Any], doc_b: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    for workload, res_a in doc_a["results"].items():
        res_b = doc_b["results"].get(workload)
        if res_b is None:
            continue
        for metric, (better, bound) in BOUNDS.items():
            a = res_a["metrics"].get(metric)
            b = res_b["metrics"].get(metric)
            if a is None or b is None:
                continue
            yield {
                "workload": workload, "metric": metric, "unit": a["unit"],
                "a": a["median"], "b": b["median"], "ratio": b["median"] / a["median"],
                "bound": bound, "spread": max(spread(a), spread(b)),
                "verdict": verdict(a, b, better, bound),
            }
        if res_a["failed_share"] or res_b["failed_share"]:
            yield {"workload": workload, "metric": "failed_share", "unit": "",
                   "a": res_a["failed_share"], "b": res_b["failed_share"], "ratio": 0.0,
                   "bound": 0.0, "spread": 0.0,
                   "verdict": "regressed" if res_b["failed_share"] > 0 else "ok"}


def render(table: List[Dict[str, Any]]) -> str:
    lines = [f"{'workload':<14}{'metric':<18}{'A':>13}{'B':>13}  {'B/A':<22}{'bound':>6}"
             f"{'spread':>8}  verdict"]
    for r in table:
        ratio = f"{r['ratio']:.3f}x of {r['a']:.4g} {r['unit']}"
        lines.append(f"{r['workload']:<14}{r['metric']:<18}{r['a']:>13.5g}{r['b']:>13.5g}  "
                     f"{ratio:<22}{r['bound']:>6.0%}{r['spread']:>8.1%}  {r['verdict']}")
    return "\n".join(lines)


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        doc_a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        doc_b = json.load(fh)
    table = list(rows(doc_a, doc_b))
    print(render(table))
    counts = {v: sum(1 for r in table if r["verdict"] == v)
              for v in ("ok", "regressed", "unresolved")}
    print(f"\n{counts['ok']} ok, {counts['regressed']} regressed, "
          f"{counts['unresolved']} unresolved")
    return 1 if counts["regressed"] else 0
