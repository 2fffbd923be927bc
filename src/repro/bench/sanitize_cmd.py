"""``python -m repro.bench sanitize <workload>`` — sanitizer smoke run.

Runs one registered kernel twice — once plain, once under the full runtime
sanitizer plane — asserts the two runs are event-for-event identical
(trace fingerprint match), and prints the sanitizer report: VI
transitions checked, pinned-memory lifecycle accounting, and
same-timestamp tie statistics.  A state-machine violation or a pinned
leak raises its typed error; a fingerprint mismatch exits nonzero.

Examples::

    python -m repro.bench sanitize cg --np 8 --nodes 8
    python -m repro.bench sanitize is --np 4 --connection static-p2p --json s.json
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.sanitizers import SanitizerConfig
from repro.bench.flags import ONE_JOB, add_job_flags, build_job_or_exit
from repro.cluster.job import run_job
from repro.sim.engine import Engine
from repro.sim.trace import TraceRecorder


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench sanitize",
        description="Run one workload under the runtime sanitizers and "
                    "verify the sanitized run perturbs nothing.",
    )
    parser.add_argument("workload", help="registered kernel to run")
    add_job_flags(parser, **ONE_JOB)
    parser.add_argument("--json", default=None,
                        help="write the sanitizer report here (JSON)")
    args = parser.parse_args(argv)
    job = build_job_or_exit(parser, args, args.workload)

    def one_run(sanitize):
        recorder = TraceRecorder()
        result = run_job(*job, engine=Engine(trace=recorder),
                         sanitize=sanitize)
        return recorder.fingerprint(), result

    fp_plain, _ = one_run(None)
    fp_sane, res = one_run(SanitizerConfig())
    report = res.sanitizer
    assert report is not None

    title = (f"{args.workload}.{args.npb_class} np={args.nprocs} "
             f"{args.connection}/{args.profile} seed={args.seed}")
    print(f"sanitize {title}")
    print(f"  {report.summary()}")
    print(f"  plain     fingerprint {fp_plain}")
    print(f"  sanitized fingerprint {fp_sane}")

    if args.json:
        doc = {
            "workload": title,
            "fingerprint_plain": fp_plain,
            "fingerprint_sanitized": fp_sane,
            "fingerprints_match": fp_plain == fp_sane,
            "report": report.as_dict(),
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"  wrote {args.json}")

    if fp_plain != fp_sane:
        print("FAIL: sanitizers perturbed the event schedule", file=sys.stderr)
        return 1
    if not report.clean:
        print("FAIL: sanitizer findings (see report)", file=sys.stderr)
        return 1
    print("  ok: sanitized run is event-for-event identical, no findings")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
