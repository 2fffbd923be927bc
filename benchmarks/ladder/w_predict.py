"""``predict_cold`` — the static communication-graph analyzer, cold.

Each op abstractly interprets one registered kernel with nothing
cached, then a ``predicted`` cell runs on the graph an analysis
produced.  ``analysis.interp`` does most of the work and no other
workload touches it.

When timed, six kernels are analyzed, each at the largest rank count
that keeps the op under 20 ms (ring and pipeline on 16 ranks,
master–worker on 8, IS, FT and LU on 4; SP and BT take 35 ms, MG 0.2 s
and CG 0.4 s even on 4), and the cell is LU on 4 ranks.  At the paper's scale all ten kernels
are analyzed on 16 ranks — CG alone takes 8 s — and the cell is CG-S on
16 ranks.

``analyze_kernel`` never memoises, so every call is cold;
``predicted_peers_for`` memoises per process, so the ``warm`` op and
the cells read the graph it computed on its first call (in ``warm_up``
for the timed cell, in the paper-scale CG op for that cell).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis import analyze_kernel, predicted_peers_for
from repro.cluster.job import run_kernel_cell

from .harness import Op, Outcome, Sample, Workload, best_host, best_wall, check, clock
from .w_cells import cell_outcome

#: (kernel, ranks analyzed)
TIMED: Tuple[Tuple[str, int], ...] = (
    ("ring", 16), ("pipeline", 16), ("masterworker", 8), ("is", 4), ("ft", 4), ("lu", 4),
)
#: (kernel of the predicted cell, ranks, nodes, ranks per node)
TIMED_CELL = ("lu", 4, 4, 1)
PAPER_KERNELS = {
    "full": ("cg", "mg", "is", "ft", "lu", "sp", "bt", "ring", "masterworker", "pipeline"),
    "smoke": ("cg", "mg"),
}
PAPER_CELL = {"full": ("cg", 16, 8, 2), "smoke": ("cg", 4, 4, 1)}
WARM_CALLS = 1000
CELL = "cell.predicted"


class PredictCold(Workload):
    name = "predict_cold"
    rate_ops = (CELL,)

    def ops(self) -> List[Op]:
        ops = [Op(f"cold.{k}", lambda k=k, n=n: self.cold(k, n)) for k, n in TIMED]
        ops.append(Op("warm", self.warm))
        ops.append(Op(CELL, lambda: self.cell(*TIMED_CELL)))
        return ops

    def paper_ops(self) -> List[Op]:
        kernel, ranks, nodes, ppn = PAPER_CELL[self.scale]
        ops = [Op(f"cold.{k}", lambda k=k: self.cold(k, ranks, memoise=(k == kernel)))
               for k in PAPER_KERNELS[self.scale]]
        ops.append(Op(CELL, lambda: self.cell(kernel, ranks, nodes, ppn)))
        return ops

    def warm_up(self) -> None:
        """The graph the timed cell and ``warm`` read; loads the interpreter."""
        predicted_peers_for(TIMED_CELL[0], TIMED_CELL[1])

    def cold(self, kernel: str, ranks: int, memoise: bool = False) -> Outcome:
        with self.spans.span("analysis.cold"):
            if memoise:
                peers = predicted_peers_for(kernel, ranks)
            else:
                peers = analyze_kernel(kernel, ranks).peers
        edges = sum(len(p) for p in peers)
        out = Outcome(sim={"peers": peers}, counts={"analysis.graph_edges": edges})
        symmetric = all(r in peers[p] for r, ps in enumerate(peers) for p in ps)
        check(out, edges > 0 and symmetric, f"analysis: {kernel} graph empty or asymmetric")
        return out

    def warm(self) -> Outcome:
        """Memoised look-ups of a graph: the lru_cache hit path."""
        kernel, ranks = TIMED_CELL[:2]
        start = clock()
        for _ in range(WARM_CALLS):
            peers = predicted_peers_for(kernel, ranks)
        out = Outcome(host={"warm_call_s": (clock() - start) / WARM_CALLS})
        check(out, len(peers) == ranks, "analysis: warm graph has the wrong size")
        return out

    def cell(self, kernel: str, ranks: int, nodes: int, ppn: int) -> Outcome:
        cell = run_kernel_cell(kernel, "S", ranks, nodes, ppn, "clan", "predicted", self.seed)
        out = cell_outcome(cell)
        predicted = sum(len(p) for p in predicted_peers_for(kernel, ranks))
        # every predicted edge is pre-connected, none is added lazily
        check(out, cell["total_connections"] == predicted and cell["avg_init_us"] > 0,
              "predicted: connections differ from the analyzed graph")
        return out

    def layer_metrics(self, samples: Dict[str, List[Sample]]) -> Dict[str, float]:
        cold = [best_wall(taken) for name, taken in samples.items() if name.startswith("cold.")]
        return {
            "analysis.cold_s_total": sum(cold),
            "analysis.cold_s_max": max(cold),
            "analysis.warm_predict_us": 1e6 * best_host(samples["warm"], "warm_call_s"),
        }

    def paper_metrics(self, samples: Dict[str, List[Sample]]) -> Dict[str, float]:
        return {"paper.analysis_cold_s": sum(
            best_wall(taken) for name, taken in samples.items() if name.startswith("cold."))}
