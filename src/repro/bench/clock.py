"""The bench commands' host clock — ``repro.bench``'s one REPRO001 read.

Host seconds measure the simulator (a cell's ``wall_s``, a command's
"took N s wall" line); they never flow into a simulation.  Every bench
module that needs them calls :func:`now_s`, so the determinism lint has
exactly one suppressed line here, pinned by
``tests/test_lint_repo_clean.py::test_suppressions_are_counted_not_hidden``.
"""

from __future__ import annotations

import time


def now_s() -> float:
    """Monotonic host seconds, for differences only."""
    return time.perf_counter()  # repro: allow[REPRO001]
