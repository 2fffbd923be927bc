"""Golden-trace fingerprints: the regression net for DES optimizations.

Every NPB kernel × connection mechanism at a small fixed size has a
recorded SHA-256 fingerprint of its *complete* engine event trace
(``tests/golden/fingerprints.json``).  The golden test suite recomputes
each fingerprint and compares: any engine or NIC change that alters
observable behaviour — event order, timing, names, success flags —
fails loudly, while pure host-CPU optimizations pass untouched.

Regenerate after an *intentional* behaviour change::

    PYTHONPATH=src python -m repro.bench golden --update

and explain the change in the commit message; the diff of the JSON file
is the reviewable artifact.  ``--check`` recomputes and compares
without writing (what CI effectively runs via the test suite).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict

from repro.bench.cache import canonical_json
from repro.cluster.job import run_kernel_cell

#: the one cluster shape all golden cells share: small enough that the
#: full matrix recomputes in seconds, big enough that every protocol
#: layer (connection setup, eager/rendezvous, collectives) is exercised
GOLDEN_SPEC: Dict[str, Any] = {
    "npb_class": "S",
    "nprocs": 4,
    "nodes": 4,
    "ppn": 1,
    "profile": "clan",
    "seed": 0,
}

GOLDEN_KERNELS = ("cg", "ep", "ft", "is", "lu", "mg", "sp")
GOLDEN_CONNECTIONS = ("static-p2p", "static-cs", "ondemand")

#: repo-relative location of the recorded fingerprints
GOLDEN_PATH = Path(__file__).resolve().parents[3] / "tests" / "golden" / "fingerprints.json"

REGEN_COMMAND = "PYTHONPATH=src python -m repro.bench golden --update"


def golden_cell(kernel: str, connection: str) -> Dict[str, Any]:
    """Compute one golden cell: trace fingerprint + event count."""
    metrics = run_kernel_cell(
        kernel=kernel, connection=connection, record_fingerprint=True,
        **GOLDEN_SPEC,
    )
    return {
        "events": metrics["events"],
        "fingerprint": metrics["fingerprint"],
        "sim_time_us": metrics["sim_time_us"],
    }


def compute_all() -> Dict[str, Any]:
    """The full golden document, cell keys sorted for a stable diff."""
    doc: Dict[str, Any] = {
        "_meta": {
            "description": "SHA-256 engine-trace fingerprints per "
                           "kernel/connection; any observable DES "
                           "behaviour change shows up here",
            "regenerate": REGEN_COMMAND,
            "spec": GOLDEN_SPEC,
        }
    }
    for kernel in GOLDEN_KERNELS:
        for connection in GOLDEN_CONNECTIONS:
            doc[f"{kernel}/{connection}"] = golden_cell(kernel, connection)
    return doc


def load_golden(path: Path = GOLDEN_PATH) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench golden",
        description="Recompute or regenerate the golden trace fingerprints.",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--update", action="store_true",
                      help=f"rewrite {GOLDEN_PATH}")
    mode.add_argument("--check", action="store_true",
                      help="recompute and diff against the recorded file")
    args = parser.parse_args(argv)

    fresh = compute_all()
    if args.update:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(fresh, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {GOLDEN_PATH} ({len(fresh) - 1} cells)")
        return 0

    recorded = load_golden()
    bad = []
    for key, cell in fresh.items():
        if key == "_meta":
            continue
        want = recorded.get(key)
        if want is None:
            bad.append(f"{key}: not recorded")
        elif canonical_json(want) != canonical_json(cell):
            bad.append(
                f"{key}: fingerprint {want['fingerprint'][:16]}… -> "
                f"{cell['fingerprint'][:16]}… "
                f"(events {want['events']} -> {cell['events']})"
            )
    stale = set(recorded) - set(fresh) - {"_meta"}
    bad.extend(f"{key}: recorded but no longer computed" for key in sorted(stale))
    if bad:
        print("golden trace mismatches:", file=sys.stderr)
        for line in bad:
            print(f"  {line}", file=sys.stderr)
        print(f"intentional change?  regenerate with: {REGEN_COMMAND}",
              file=sys.stderr)
        return 1
    print(f"all {len(fresh) - 1} golden fingerprints match")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
