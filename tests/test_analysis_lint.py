"""Unit tests for the determinism lint: every rule fires on a known-bad
snippet, respects suppressions, and stays quiet on idiomatic safe code."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path


from repro.analysis import RULES, lint_paths, lint_source
from repro.analysis.__main__ import main as analysis_main


def check(code):
    """Lint a dedented snippet; returns (violations, suppressed)."""
    violations, suppressed, _ = lint_source(
        textwrap.dedent(code), path="snippet.py", rel_posix="snippet.py")
    return violations, suppressed


def check_full(code):
    """Like :func:`check` but also returns the directive warnings."""
    return lint_source(textwrap.dedent(code), path="snippet.py",
                       rel_posix="snippet.py")


def rule_ids(violations):
    return [v.rule_id for v in violations]


class TestWallClock:
    def test_time_time_flagged(self):
        bad, _ = check("""
            import time
            def cost():
                return time.time()
        """)
        assert rule_ids(bad) == ["REPRO001"]
        assert "time.time" in bad[0].message

    def test_aliased_and_from_imports_flagged(self):
        bad, _ = check("""
            import time as t
            from datetime import datetime
            x = t.perf_counter()
            y = datetime.now()
        """)
        assert rule_ids(bad) == ["REPRO001", "REPRO001"]

    def test_engine_now_is_fine(self):
        bad, _ = check("""
            def stamp(engine):
                return engine.now
        """)
        assert bad == []

    def test_suppression_same_line(self):
        bad, suppressed = check("""
            import time
            start = time.time()  # repro: allow[REPRO001] operator progress
        """)
        assert bad == []
        assert rule_ids(suppressed) == ["REPRO001"]

    def test_suppression_comment_line_above(self):
        bad, suppressed = check("""
            import time
            # wall time of the host run, not simulated  # repro: allow[REPRO001]
            start = time.time()
        """)
        assert bad == []
        assert rule_ids(suppressed) == ["REPRO001"]


class TestUnseededRng:
    def test_stdlib_random_flagged(self):
        bad, _ = check("""
            import random
            jitter = random.random()
        """)
        assert rule_ids(bad) == ["REPRO002"]

    def test_legacy_numpy_global_flagged(self):
        bad, _ = check("""
            import numpy as np
            noise = np.random.rand(4)
        """)
        assert rule_ids(bad) == ["REPRO002"]

    def test_unseeded_default_rng_flagged(self):
        bad, _ = check("""
            import numpy as np
            rng = np.random.default_rng()
        """)
        assert rule_ids(bad) == ["REPRO002"]

    def test_seeded_default_rng_ok(self):
        bad, _ = check("""
            import numpy as np
            rng = np.random.default_rng(1234)
            rng2 = np.random.default_rng(seed=7)
        """)
        assert bad == []

    def test_unseeded_random_random_class_flagged(self):
        bad, _ = check("""
            import random
            r = random.Random()
            ok = random.Random(42)
        """)
        assert rule_ids(bad) == ["REPRO002"]

    def test_rng_module_is_exempt(self):
        code = textwrap.dedent("""
            import numpy as np
            gen = np.random.default_rng()
        """)
        bad, _, _ = lint_source(code, path="rng.py",
                                rel_posix="src/repro/sim/rng.py")
        assert bad == []


class TestUnorderedIteration:
    def test_set_call_iteration_flagged(self):
        bad, _ = check("""
            def drain(items):
                for x in set(items):
                    print(x)
        """)
        assert rule_ids(bad) == ["REPRO003"]

    def test_set_typed_name_iteration_flagged(self):
        bad, _ = check("""
            pending = set()
            for key in pending:
                print(key)
        """)
        assert rule_ids(bad) == ["REPRO003"]

    def test_annotated_self_attribute_flagged(self):
        bad, _ = check("""
            class Table:
                def __init__(self):
                    self._requested: set[tuple] = set()
                def flush(self):
                    return [k for k in self._requested]
        """)
        assert rule_ids(bad) == ["REPRO003"]

    def test_list_snapshot_of_set_attribute_feeding_scheduler_flagged(self):
        # the shape AbstractDevice's post pass had: the list() copy
        # protects against mutation, not against hash order
        bad, _ = check("""
            class Device:
                def __init__(self):
                    self._dirty: Set[Channel] = set()
                def post_pass(self):
                    for ch in list(self._dirty):
                        self.nic.ring_doorbell(ch.vi)
        """)
        assert rule_ids(bad) == ["REPRO003"]
        assert "self._dirty" in bad[0].message

    def test_snapshot_wrappers_are_seen_through(self):
        bad, _ = check("""
            pending = set()
            a = [k for k in tuple(pending)]
            for i, key in enumerate(list(pending)):
                print(i, key)
        """)
        assert rule_ids(bad) == ["REPRO003", "REPRO003"]

    def test_snapshot_of_ordered_container_is_fine(self):
        bad, _ = check("""
            class Device:
                def __init__(self):
                    self._dirty: Dict[int, Channel] = {}
                def post_pass(self):
                    for ch in tuple(self._dirty.values()):
                        self.post(ch)
                    for key in list(sorted(set(self._dirty))):
                        print(key)
        """)
        assert bad == []

    def test_sorted_set_is_fine(self):
        bad, _ = check("""
            pending = set()
            for key in sorted(pending):
                print(key)
            out = [k for k in sorted(set(pending))]
        """)
        assert bad == []

    def test_dict_view_feeding_scheduler_flagged(self):
        bad, _ = check("""
            def kick(self):
                for vi in self._vis.values():
                    self.engine.call_later(1.0, vi.poke, None, "poke")
        """)
        assert rule_ids(bad) == ["REPRO003"]
        assert ".call_later()" in bad[0].message

    def test_dict_view_without_scheduling_is_fine(self):
        bad, _ = check("""
            def census(self):
                total = 0
                for vi in self._vis.values():
                    total += vi.count
                return total
        """)
        assert bad == []


class TestFloatTimeEq:
    def test_timestamp_pair_equality_flagged(self):
        bad, _ = check("""
            def same(a_at, b_at):
                return a_at == b_at
        """)
        assert rule_ids(bad) == ["REPRO004"]

    def test_timestamp_vs_fractional_literal_flagged(self):
        bad, _ = check("""
            def hit(deadline):
                return deadline == 12.5
        """)
        assert rule_ids(bad) == ["REPRO004"]

    def test_sentinels_and_ordering_are_fine(self):
        bad, _ = check("""
            def fine(connected_at, now, deadline):
                a = connected_at == -1.0
                b = now >= deadline
                c = deadline == 0.0
                return a or b or c
        """)
        assert bad == []


class TestMutableDefault:
    def test_list_default_flagged(self):
        bad, _ = check("""
            def gather(out=[]):
                return out
        """)
        assert rule_ids(bad) == ["REPRO005"]

    def test_dict_call_default_flagged(self):
        bad, _ = check("""
            def gather(*, table=dict()):
                return table
        """)
        assert rule_ids(bad) == ["REPRO005"]

    def test_none_default_is_fine(self):
        bad, _ = check("""
            def gather(out=None, n=3, name=""):
                return out
        """)
        assert bad == []


class TestTelemetrySchedules:
    def test_schedule_under_guard_flagged(self):
        bad, _ = check("""
            def record(self):
                if self.telemetry is not None:
                    self.engine.call_later(0.0, self.flush, None, "flush")
        """)
        assert rule_ids(bad) == ["REPRO006"]

    def test_signal_fire_under_guard_flagged(self):
        bad, _ = check("""
            def record(self, tel):
                if tel:
                    self.activity.fire()
        """)
        assert rule_ids(bad) == ["REPRO006"]

    def test_recording_under_guard_is_fine(self):
        bad, _ = check("""
            def record(self):
                if self.telemetry is not None:
                    self.telemetry.counter("x").inc()
                    self.telemetry.instant("y", ("rank", 0))
        """)
        assert bad == []

    def test_scheduling_outside_guard_is_fine(self):
        bad, _ = check("""
            def record(self):
                if self.telemetry is not None:
                    self.telemetry.counter("x").inc()
                self.engine.call_later(0.0, self.flush, None, "flush")
        """)
        assert bad == []

    def test_else_branch_not_guarded(self):
        bad, _ = check("""
            def record(self):
                if self.telemetry is None:
                    pass
                else:
                    self.telemetry.counter("x").inc()
        """)
        # the else branch of a telemetry test is treated as guarded code
        # only for the body; recording there is fine either way
        assert bad == []


class TestGlobalStateInKernel:
    """REPRO007: module-level mutable state mutated inside a kernel
    generator body.  Rank programs must be pure functions of their
    arguments or pod-parallel replays diverge by worker count."""

    def test_append_in_generator_flagged(self):
        bad, _ = check("""
            HISTORY = []
            def kernel(mpi):
                HISTORY.append(mpi.rank)
                yield from mpi.barrier()
        """)
        assert rule_ids(bad) == ["REPRO007"]
        assert "HISTORY" in bad[0].message

    def test_dict_store_and_augassign_flagged(self):
        bad, _ = check("""
            CACHE = {}
            TOTALS = dict()
            def kernel(mpi):
                CACHE[mpi.rank] = 1
                yield from mpi.barrier()
            def other(mpi):
                TOTALS["x"] = TOTALS.get("x", 0) + 1
                yield from mpi.barrier()
        """)
        assert rule_ids(bad) == ["REPRO007", "REPRO007"]

    def test_global_rebind_flagged(self):
        bad, _ = check("""
            STATE = set()
            def kernel(mpi):
                global STATE
                STATE = set()
                yield from mpi.barrier()
        """)
        assert rule_ids(bad) == ["REPRO007"]

    def test_local_shadow_and_plain_function_are_fine(self):
        bad, _ = check("""
            LIMITS = [1, 2, 3]
            def kernel(mpi):
                local = []
                local.append(mpi.rank)
                yield from mpi.barrier()
            def helper():
                # not a generator: free to build module tables at import
                LIMITS.append(4)
        """)
        assert bad == []

    def test_read_only_module_constant_is_fine(self):
        bad, _ = check("""
            SIZES = [64, 256, 1024]
            def kernel(mpi):
                for size in SIZES:
                    yield from mpi.barrier()
        """)
        assert bad == []

    def test_nested_def_yield_does_not_make_outer_a_generator(self):
        bad, _ = check("""
            LOG = []
            def outer():
                LOG.append(1)
                def inner():
                    yield 1
                return inner
        """)
        assert bad == []

    def test_allow_suppression_works(self):
        bad, suppressed = check("""
            TRACE = []
            def kernel(mpi):
                TRACE.append(mpi.rank)  # repro: allow[REPRO007] test probe
                yield from mpi.barrier()
        """)
        assert bad == []
        assert rule_ids(suppressed) == ["REPRO007"]


class TestAllowDirectiveEdgeCases:
    def test_multiple_ids_in_one_comment(self):
        bad, suppressed = check("""
            import time
            def f(out=[]):
                return time.time(), out  # repro: allow[REPRO001, REPRO005]
        """)
        # REPRO005 anchors on the def line, one above the comment — only
        # REPRO001 (on the return line) is spanned by the directive
        assert rule_ids(bad) == ["REPRO005"]
        assert rule_ids(suppressed) == ["REPRO001"]

    def test_multiple_ids_suppress_two_rules_same_line(self):
        bad, suppressed = check("""
            import time
            # repro: allow[REPRO001, REPRO005]
            def f(out=[]):
                start = time.time()
                return start, out
        """)
        # the comment-above form suppresses the def-line REPRO005; the
        # wall-clock read two lines below is NOT spanned and still fires
        assert rule_ids(bad) == ["REPRO001"]
        assert rule_ids(suppressed) == ["REPRO005"]

    def test_unknown_rule_id_warns_not_silently_ignored(self):
        bad, suppressed, warnings = check_full("""
            import time
            start = time.time()  # repro: allow[REPRO099]
        """)
        # the violation still fires — the directive names no real rule
        assert rule_ids(bad) == ["REPRO001"]
        assert suppressed == []
        assert len(warnings) == 1
        assert "REPRO099" in warnings[0]
        assert "unknown rule id" in warnings[0]

    def test_unknown_id_alongside_known_still_suppresses_known(self):
        bad, suppressed, warnings = check_full("""
            import time
            start = time.time()  # repro: allow[REPRO099, REPRO001]
        """)
        assert bad == []
        assert rule_ids(suppressed) == ["REPRO001"]
        assert len(warnings) == 1 and "REPRO099" in warnings[0]

    def test_suppression_spans_continuation_lines(self):
        # the violating expression starts on one line but the directive
        # sits on the statement's last physical line; the [line, end_line]
        # span must still match
        bad, suppressed = check("""
            import time
            elapsed = (
                time.time()
                - 0.0
            )  # repro: allow[REPRO001] host-side stopwatch
        """)
        assert bad == []
        assert rule_ids(suppressed) == ["REPRO001"]

    def test_wildcard_allows_everything_on_the_line(self):
        bad, suppressed = check("""
            import time
            start = time.time()  # repro: allow[*]
        """)
        assert bad == []
        assert rule_ids(suppressed) == ["REPRO001"]

    def test_warnings_surface_in_report(self, tmp_path):
        f = tmp_path / "w.py"
        f.write_text("x = 1  # repro: allow[NOPE01]\n")
        report = lint_paths([str(f)])
        assert report.ok
        assert len(report.warnings) == 1
        doc = json.loads(report.to_json())
        assert doc["warnings"] == report.warnings


class TestReportAndCli:
    def test_rule_catalogue_is_stable(self):
        assert sorted(RULES) == [
            "REPRO001", "REPRO002", "REPRO003", "REPRO004",
            "REPRO005", "REPRO006", "REPRO007",
        ]

    def test_lint_paths_and_json_shape(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import time\n"
            "def f(x=[]):\n"
            "    return time.time()\n"
        )
        report = lint_paths([str(tmp_path)])
        assert report.files_checked == 1
        assert not report.ok
        assert sorted(rule_ids(report.violations)) == ["REPRO001", "REPRO005"]
        doc = json.loads(report.to_json())
        assert doc["version"] == 1
        assert doc["ok"] is False
        assert len(doc["violations"]) == 2
        for entry in doc["violations"]:
            assert {"rule", "path", "line", "col", "message"} <= set(entry)
        assert "REPRO001" in doc["rules"]

    def test_cli_exit_codes_and_json(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        out = tmp_path / "report.json"
        assert analysis_main(["lint", str(good), "--json", str(out)]) == 0
        assert json.loads(out.read_text())["ok"] is True

        bad = tmp_path / "bad.py"
        bad.write_text("import time\ny = time.time()\n")
        assert analysis_main(["lint", str(bad)]) == 1

    def test_cli_github_format_annotations(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import time\n"
            "y = time.time()\n"
            "z = 1  # repro: allow[REPRO404]\n"
        )
        assert analysis_main(["lint", "--format", "github", str(bad)]) == 1
        out = capsys.readouterr().out
        error_lines = [l for l in out.splitlines() if l.startswith("::error ")]
        assert len(error_lines) == 1
        assert f"file={bad}" in error_lines[0]
        assert "line=2" in error_lines[0]
        assert "title=REPRO001 wall-clock" in error_lines[0]
        warn_lines = [l for l in out.splitlines() if l.startswith("::warning ")]
        assert len(warn_lines) == 1 and "REPRO404" in warn_lines[0]

    def test_cli_syntax_error_fails(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        assert analysis_main(["lint", str(broken)]) == 1

    def test_module_invocation(self, tmp_path):
        """`python -m repro.analysis lint <clean file>` exits 0."""
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        repo_root = Path(__file__).parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "lint", str(good)],
            capture_output=True, text=True, cwd=str(repo_root),
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "clean" in proc.stdout
