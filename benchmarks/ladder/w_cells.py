"""``npb_cells`` and ``conn_init`` — whole-stack cells through ``run_kernel_cell``.

``npb_cells`` runs five NPB kernels (class S) on 4 ranks, each under
static peer-to-peer and under on-demand setup: datapath, collectives and
real numpy compute in ``apps``, 5 to 20 ms a cell.  Its paper-scale ops
are the paper's headline cell (Fig. 6 / Table 3): CG-S on 16 ranks, once
per connection mechanism, 2 s each.  ``conn_init`` is a lone ``barrier``
(Fig. 8 / Table 2) — almost all of its events are connection setup, so
it uses ``via`` for *connecting* where ``via_stream`` uses it for
*transferring* — on 8 ranks when timed, on 64 at the paper's scale.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis import SanitizerConfig
from repro.cluster import ClusterSpec, run_job
from repro.cluster.job import run_kernel_cell
from repro.mpi import MpiConfig
from repro.sim import Engine, TraceRecorder
from repro.telemetry import TelemetryConfig
from repro.via import profile_by_name
from repro.workloads.registry import build_program

from .harness import Op, Outcome, Sample, Workload, check, clock, cycle_count, cycle_wall

#: (op name, kernel, nprocs, nodes, ppn, profile, connection)
Cell = Tuple[str, str, int, int, int, str, str]


def cell_outcome(cell: Dict, expect_drops: int = 0) -> Outcome:
    """The exact simulated statistics of one ``run_kernel_cell`` result."""
    out = Outcome(
        events=cell["events"],
        sim={
            "sim_time_us": cell["sim_time_us"],
            "connections": cell["total_connections"],
            "vis": cell["avg_vis"],
            "avg_init_us": cell["avg_init_us"],
        },
        counts={
            "mpi.conn.connections": cell["total_connections"],
            "mpi.sim_time_us": cell["sim_time_us"],
            "mpi.init_us": cell["avg_init_us"],
            "via.vis": cell["avg_vis"],
            "memory.pinned_peak_bytes": cell["pinned_peak_bytes"],
        },
    )
    check(out, cell["dropped_messages"] == expect_drops, "cell dropped messages")
    return out


def cell_ops(workload: "CellWorkload", cells: List[Cell]) -> List[Op]:
    return [Op(cell[0], lambda cell=cell: workload.run_cell(cell)) for cell in cells]


class CellWorkload(Workload):
    """Ops that are ``run_kernel_cell`` calls, plus the paper-shape
    checks between connection mechanisms."""

    #: the timed cells
    cells: List[Cell] = []
    #: the paper-scale cells, by ``scale``
    paper_cells: Dict[str, List[Cell]] = {}

    def ops(self) -> List[Op]:
        return cell_ops(self, self.cells)

    def paper_ops(self) -> List[Op]:
        return cell_ops(self, self.paper_cells[self.scale])

    def warm_up(self) -> None:
        run_kernel_cell("barrier", "S", 4, 4, 1, "clan", "ondemand", self.seed)

    def run_cell(self, cell: Cell) -> Outcome:
        _name, kernel, nprocs, nodes, ppn, profile, connection = cell
        return cell_outcome(run_kernel_cell(
            kernel, "S", nprocs, nodes, ppn, profile, connection, self.seed))

    #: groups whose kernel leaves some pairs silent, so on-demand must
    #: open strictly fewer connections than the full mesh
    strictly_fewer: Tuple[str, ...] = ()

    def cycle_checks(self, samples):
        """Paper shapes per group of cells (a fabric, a kernel):
        on-demand opens no more connections than static — fewer
        wherever ``strictly_fewer`` — and spends nothing in MPI_Init;
        serialized client/server init costs more than peer-to-peer."""
        misses = []
        attempted = 0
        sims = {name: taken[0].outcome.sim for name, taken in samples.items()}
        for group in sorted({name.split(".")[0] for name in sims if sims[name]}):
            od = sims.get(f"{group}.ondemand")
            p2p = sims.get(f"{group}.static-p2p")
            cs = sims.get(f"{group}.static-cs")
            if not od or not p2p:
                continue
            attempted += 2
            limit = p2p["connections"] - (group in self.strictly_fewer)
            if not od["connections"] <= limit:
                misses.append(f"{self.name}/{group}: on-demand connections not below static")
            if not (od["avg_init_us"] == 0 < p2p["avg_init_us"]):
                misses.append(f"{self.name}/{group}: init ordering static-p2p > ondemand = 0 broken")
            if cs:
                attempted += 1
                if not cs["avg_init_us"] > p2p["avg_init_us"]:
                    misses.append(f"{self.name}/{group}: static-cs init not above static-p2p")
        return attempted, misses

    def paper_checks(self, samples):
        return self.cycle_checks(samples)

    def paper_metrics(self, samples: Dict[str, List[Sample]]) -> Dict[str, float]:
        def connections(mechanism: str) -> float:
            return sum(taken[0].outcome.counts["mpi.conn.connections"]
                       for name, taken in samples.items() if name.endswith(mechanism))

        return {"paper.connections_static": connections(".static-p2p"),
                "paper.connections_ondemand": connections(".ondemand")}


NPB_KERNELS = ("is", "ft", "lu", "sp", "ep")


class NpbCells(CellWorkload):
    name = "npb_cells"
    cells = [(f"{kernel}.{conn}", kernel, 4, 4, 1, "clan", conn)
             for kernel in NPB_KERNELS for conn in ("static-p2p", "ondemand")]
    paper_cells = {
        scale: [(f"cg.{conn}", "cg", ranks, ranks // ppn, ppn, "clan", conn)
                for conn in ("static-p2p", "static-cs", "ondemand")]
        for scale, ranks, ppn in (("full", 16, 2), ("smoke", 4, 1))
    }
    # LU and EP on 4 ranks never use 4 of the 12 directed pairs; CG uses
    # 64 of 240 on 16 ranks and 8 of 12 on 4
    strictly_fewer = ("lu", "ep", "cg")

    def traced_extras(self) -> Dict[str, float]:
        """Three switched features on the paper-scale on-demand cell,
        each timed against the same plain ``run_job`` call: telemetry
        recording, the runtime sanitizers, and the engine's trace
        fingerprint."""
        _name, kernel, nprocs, nodes, ppn, profile, connection = self.paper_cells[self.scale][-1]
        spec = ClusterSpec(nodes=nodes, ppn=ppn, profile=profile_by_name(profile),
                           seed=self.seed)
        program = build_program(kernel, "S")
        config = MpiConfig(connection=connection)

        def timed(**switch) -> float:
            start = clock()
            run_job(spec, nprocs, program, config, **switch)
            return clock() - start

        plain = timed()
        return {
            "telemetry.enabled_overhead_ratio": timed(telemetry=TelemetryConfig()) / plain,
            "analysis.sanitize_overhead_ratio": timed(sanitize=SanitizerConfig()) / plain,
            "sim.trace_overhead_ratio": timed(engine=Engine(trace=TraceRecorder())) / plain,
        }


def barrier_cells(ranks: int) -> List[Cell]:
    """cLAN with two ranks a node under all three mechanisms, Berkeley
    VIA with one rank a node under two."""
    return [(f"clan.{conn}", "barrier", ranks, ranks // 2, 2, "clan", conn)
            for conn in ("static-p2p", "static-cs", "ondemand")] + [
        (f"bvia.{conn}", "barrier", ranks, ranks, 1, "berkeley", conn)
        for conn in ("static-p2p", "ondemand")]


class ConnInit(CellWorkload):
    name = "conn_init"
    cells = barrier_cells(8)
    paper_cells = {"full": barrier_cells(64), "smoke": barrier_cells(16)}
    strictly_fewer = ("clan", "bvia")

    def layer_metrics(self, samples: Dict[str, List[Sample]]) -> Dict[str, float]:
        return {"mpi.conn.host_us_per_connection":
                1e6 * cycle_wall(samples) / cycle_count(samples, "mpi.conn.connections")}
