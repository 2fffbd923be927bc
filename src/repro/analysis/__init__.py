"""Simulation-safety tooling: static analysis and runtime sanitizers.

The paper's evaluation rests on byte-identical deterministic replay;
this package turns that from convention into an enforced property.

Three parts:

* :mod:`repro.analysis.lint` — an AST-based **determinism lint**
  (``python -m repro.analysis lint``) that flags simulation-unsafe
  constructs in the source tree: wall-clock reads, unseeded global RNG,
  hash-ordered iteration feeding the scheduler, float equality on sim
  timestamps, mutable default arguments, and telemetry-guarded code
  that schedules events.

* :mod:`repro.analysis.comm` — a static **communication-graph
  analyzer** (``python -m repro.analysis comm <kernel>``) that replays
  each kernel generator for every rank through a rank-symbolic abstract
  interpreter, predicts the connection peers the run will need, and
  reports ``REPROC*`` diagnostics (unmatched send/recv, deadlock
  cycles, out-of-range ranks, unresolvable destinations).  The graph
  feeds the runtime: the ``predicted`` connection mechanism pre-opens
  exactly those VIs during ``MPI_Init`` and the cluster scheduler's
  VI-quota admission charges the proven degree instead of a full mesh.

* :mod:`repro.analysis.sanitizers` — opt-in **runtime sanitizers**
  (``run_job(..., sanitize=SanitizerConfig())``), the DES analogue of
  TSan/ASan: a VIA state-machine checker, a pinned-memory/descriptor
  leak sanitizer, and an event-race detector for same-timestamp
  ordering hazards.  Sanitizers observe only — a sanitized run is
  event-for-event identical to an unsanitized one.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - the typed island keeps its types
    from repro.analysis.comm import (
        AnalysisError,
        analyze_kernel,
        analyze_source,
        check_observed_subset,
        observed_edges,
        predicted_peers_for,
        predicted_vi_demand,
    )
    from repro.analysis.commgraph import (
        CommDiagnostic,
        CommGraph,
        REPROC_RULES,
    )
    from repro.analysis.lint import (
        LintReport,
        LintViolation,
        RULES,
        lint_paths,
        lint_source,
    )
    from repro.analysis.sanitizers import (
        EventRaceDetector,
        LeakSanitizer,
        PinnedMemoryLeak,
        ProtocolViolation,
        Sanitizer,
        SanitizerConfig,
        SanitizerError,
        SanitizerReport,
        ViStateChecker,
    )

#: public name -> defining submodule, resolved on access (PEP 562): the
#: job runtime imports ``repro.analysis.sanitizers`` at module level, and
#: that must not load the interpreter behind ``comm``, or the lint.
_SUBMODULE_OF = {
    name: submodule
    for submodule, names in (
        ("comm", "AnalysisError analyze_kernel analyze_source "
                 "check_observed_subset observed_edges predicted_peers_for "
                 "predicted_vi_demand"),
        ("commgraph", "CommDiagnostic CommGraph REPROC_RULES"),
        ("lint", "LintReport LintViolation RULES lint_paths lint_source"),
        ("sanitizers", "EventRaceDetector LeakSanitizer PinnedMemoryLeak "
                       "ProtocolViolation Sanitizer SanitizerConfig "
                       "SanitizerError SanitizerReport ViStateChecker"),
    )
    for name in names.split()
}


def __getattr__(name: str) -> Any:
    submodule = _SUBMODULE_OF.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{submodule}"), name)


__all__ = [
    "AnalysisError",
    "CommDiagnostic",
    "CommGraph",
    "REPROC_RULES",
    "analyze_kernel",
    "analyze_source",
    "check_observed_subset",
    "observed_edges",
    "predicted_peers_for",
    "predicted_vi_demand",
    "RULES",
    "LintReport",
    "LintViolation",
    "lint_paths",
    "lint_source",
    "EventRaceDetector",
    "LeakSanitizer",
    "PinnedMemoryLeak",
    "ProtocolViolation",
    "Sanitizer",
    "SanitizerConfig",
    "SanitizerError",
    "SanitizerReport",
    "ViStateChecker",
]
