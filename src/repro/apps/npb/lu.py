"""NPB LU: SSOR wavefront sweeps (extension kernel).

LU decomposes the domain over a 2-D process grid and pipelines
wavefronts: the lower-triangular sweep receives from the north and west
neighbours, relaxes, and forwards to the south and east; the
upper-triangular sweep runs the mirror image.  Four partners per
process (fewer on the boundary — LU's grid is *not* periodic), plus a
final residual allreduce.

The relaxation is a deterministic array update on real data (the real
SSOR factorization is replaced by a fixed-point smoothing step);
verification checks the checksum is finite, deterministic, and equal
across connection managers.
"""

from __future__ import annotations

import numpy as np

from repro.apps.npb.common import DEFAULT_COST, NpbResult, class_params
from repro.mpi.constants import SUM

#: (block_n, iterations)
CLASSES = {
    "S": (8, 4),
    "W": (10, 6),
    "A": (12, 8),
    "B": (16, 12),
    "C": (20, 18),
}


def make_lu(npb_class: str = "S", seed: int = 13, cost=DEFAULT_COST):
    n, iterations = class_params(CLASSES, npb_class, "LU")

    def prog(mpi):
        size, rank = mpi.size, mpi.rank
        # 2-D grid, as close to square as possible
        px = int(np.sqrt(size))
        while size % px:
            px -= 1
        py = size // px
        i, j = divmod(rank, py)

        rng = np.random.default_rng(seed + rank)
        u = rng.standard_normal((n, n))

        north = (i - 1) * py + j if i > 0 else None
        south = (i + 1) * py + j if i < px - 1 else None
        west = rank - 1 if j > 0 else None
        east = rank + 1 if j < py - 1 else None

        def relax(top_row, left_col, sign):
            nonlocal u
            yield from mpi.compute(cost.flops(10.0 * u.size))
            # the boundary row down the columns, the column along rows
            u = 0.9 * u + 0.05 * sign * (
                top_row[np.newaxis, :] + left_col[:, np.newaxis])

        def lower_sweep():
            top = np.zeros(n)
            left = np.zeros(n)
            if north is not None:
                top = np.empty(n)
                yield from mpi.recv(top, source=north, tag=60)
            if west is not None:
                left = np.empty(n)
                yield from mpi.recv(left, source=west, tag=61)
            yield from relax(top, left, +1.0)
            if south is not None:
                yield from mpi.send(np.ascontiguousarray(u[-1, :]), south, tag=60)
            if east is not None:
                yield from mpi.send(np.ascontiguousarray(u[:, -1]), east, tag=61)

        def upper_sweep():
            bottom = np.zeros(n)
            right = np.zeros(n)
            if south is not None:
                bottom = np.empty(n)
                yield from mpi.recv(bottom, source=south, tag=62)
            if east is not None:
                right = np.empty(n)
                yield from mpi.recv(right, source=east, tag=63)
            yield from relax(bottom, right, -1.0)
            if north is not None:
                yield from mpi.send(np.ascontiguousarray(u[0, :]), north, tag=62)
            if west is not None:
                yield from mpi.send(np.ascontiguousarray(u[:, 0]), west, tag=63)

        # one untimed SSOR step, as the original does before timing
        yield from lower_sweep()
        yield from upper_sweep()
        yield from mpi.barrier()
        t0 = mpi.wtime()
        for _ in range(iterations):
            yield from lower_sweep()
            yield from upper_sweep()
        checksum_local = np.array([float(np.abs(u).sum())])
        out = np.empty(1)
        yield from mpi.allreduce(checksum_local, out, op=SUM)
        elapsed = mpi.wtime() - t0

        return NpbResult(
            benchmark="LU", npb_class=npb_class.upper(), nprocs=size,
            time_us=elapsed, verification=float(out[0]),
            verified=bool(np.isfinite(out[0]) and out[0] > 0),
            iterations=iterations,
        )

    return prog
