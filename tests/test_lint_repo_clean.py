"""The pytest-collectable face of ``python -m repro.analysis lint``:
the shipped tree must stay lint-clean (violations either fixed or
explicitly suppressed with a justified ``# repro: allow[...]``), and
three AST scans keep ``src/`` free of entries nothing waits on, of
functions only tests call and of Enum members read through their
class at run time."""

import ast
from pathlib import Path

from repro.analysis import lint_paths, lint_source

REPO = Path(__file__).parent.parent


def _lint(*rel):
    paths = [str(REPO / r) for r in rel if (REPO / r).exists()]
    assert paths, f"none of {rel} exist"
    return lint_paths(paths)


def _explain(report):
    return "\n".join(
        f"{v.path}:{v.line}:{v.col} {v.rule_id} {v.message}"
        for v in report.violations
    ) or "\n".join(report.parse_errors)


def test_src_tree_is_lint_clean():
    report = _lint("src/repro")
    assert report.files_checked > 50
    assert report.ok, _explain(report)


def test_benchmarks_and_examples_are_lint_clean():
    # satellite: anything under benchmarks/ or examples/ must also be
    # wall-clock and unseeded-RNG free (they feed the paper's tables)
    report = _lint("benchmarks", "examples")
    assert report.ok, _explain(report)


def test_shard_package_is_lint_clean():
    # the one multi-process fan-out is exactly where a stray wall-clock
    # read or a hash-ordered merge of worker results would silently
    # break determinism, so it gets its own targeted gate (the
    # whole-tree gate covers it too)
    report = _lint("src/repro/bench/runner.py")
    assert report.files_checked == 1
    assert report.ok, _explain(report)


def test_flow_and_critpath_modules_are_lint_clean():
    # the flow tracer and critical-path analyzer sit inside telemetry
    # guards on the hot path; a scheduling call hiding in any of them
    # would let observability perturb the run it observes, so they get
    # their own targeted gate (the whole-tree gate covers them too)
    report = _lint(
        "src/repro/telemetry/flow.py",
        "src/repro/telemetry/critpath.py",
        "src/repro/bench/flow_cmd.py",
    )
    assert report.files_checked == 3
    assert report.ok, _explain(report)


def test_lint_catches_telemetry_guarded_scheduling():
    """REPRO006 synthetic: flow-id tagging that also schedules — the
    exact bug class the zero-overhead-when-disabled claim forbids."""
    unsafe = (
        "def tag(self, engine, pkt):\n"
        "    if self.telemetry is not None:\n"
        "        pkt.flow_id = self.telemetry.new_flow()\n"
        "        engine.call_later(0.0, None, None, 'tag')\n"
    )
    violations, _, _ = lint_source(unsafe, path="flowtag.py")
    assert "REPRO006" in {v.rule_id for v in violations}
    # the guarded recording alone is fine — only scheduling fires
    safe = (
        "def tag(self, pkt):\n"
        "    if self.telemetry is not None:\n"
        "        pkt.flow_id = self.telemetry.new_flow()\n"
    )
    ok_violations, _, _ = lint_source(safe, path="flowtag.py")
    assert not ok_violations


def test_lint_catches_unsafe_merge_loop_patterns():
    """The rules the pod fan-out must stay clean of actually fire on
    the failure modes a cross-worker merge loop invites: iterating
    ready sets in hash order (REPRO003) and 'random' tie-breaks from
    the global RNG (REPRO002)."""
    unsafe = (
        "import random\n"
        "def merge(ready_shards):\n"
        "    for shard in ready_shards:\n"
        "        pass\n"
        "def tie_break(a, b):\n"
        "    return random.choice([a, b])\n"
    )
    violations, _, _ = lint_source(unsafe, path="merge.py")
    rules = {v.rule_id for v in violations}
    assert "REPRO002" in rules
    # the set-iteration rule fires when the iterable is provably a set
    set_loop = "for shard in {0, 1, 2}:\n    pass\n"
    v2, _, _ = lint_source(set_loop, path="merge.py")
    assert "REPRO003" in {v.rule_id for v in v2}


def test_suppressions_are_counted_not_hidden():
    """Exactly these justified suppressions exist: the one host clock
    (``repro.bench.clock``, which the service reads too) and the race
    detector's intentional float compare.  A new wall-clock read
    anywhere else fails here by name."""
    report = _lint("src/repro")
    suppressed = sorted(
        (Path(s.path).relative_to(REPO / "src" / "repro").as_posix(),
         s.rule_id)
        for s in report.suppressed)
    assert suppressed == [
        ("analysis/sanitizers.py", "REPRO004"),
        ("bench/clock.py", "REPRO001"),
    ]


def test_service_wall_clock_boundary():
    """The service lives in host time but reads it only through
    ``repro.bench.clock.now_s``: the package carries no suppression at
    all, so a wall-clock read added anywhere in ``repro.service`` fails
    here.  Everything the service calls (bench runner, cluster entries,
    the simulator) carries no wall-clock allowance either."""
    report = _lint("src/repro/service")
    assert report.ok, _explain(report)
    assert report.files_checked >= 8
    assert [(s.path, s.rule_id) for s in report.suppressed] == []

    # the layers the service drives below repro.bench (whose one
    # allowance is its own clock): the simulator core, MPI/VIA stack,
    # and fabric carry no wall-clock allowance at all
    core = _lint("src/repro/sim", "src/repro/mpi", "src/repro/via",
                 "src/repro/fabric", "src/repro/cluster",
                 "src/repro/workloads")
    assert core.ok, _explain(core)
    assert not [s for s in core.suppressed if s.rule_id == "REPRO001"], [
        (s.path, s.line) for s in core.suppressed
    ]


def _trees(*tops):
    for top in tops:
        for path in sorted((REPO / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_src_builds_no_timeout_nothing_waits_on():
    """An ``engine.timeout(...)`` whose event is dropped on the spot is
    an entry nothing waits on: that is ``engine.call_later``, which
    builds no event."""
    bare = [f"{path.relative_to(REPO)}:{node.lineno}"
            for path, tree in _trees("src")
            for node in ast.walk(tree)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "timeout"]
    assert bare == []


#: the functions in ``src/`` that nothing in ``src/``, ``benchmarks/`` or
#: ``examples/`` refers to by name, each with why it stays
UNREFERENCED_OK = {
    "comm_dup": "public MPI API (MPI_Comm_dup)",
    "comm_split": "public MPI API (MPI_Comm_split)",
    "connect_share": "public API of the critical-path report",
    "interrupt": "public sim API (Process.interrupt)",
    "is_alive": "public sim API (Process.is_alive)",
    "latency": "public API of a delivered Packet",
    "live_region_count": "public API of MemoryRegistry",
    "recount_active_vis": "the reference tests compare Nic.active_vi_count against",
    "spans_named": "public query API of Telemetry",
    "time_s": "public API of NpbResult",
    "waiter_count": "public sim API (Signal.waiter_count)",
}


def test_src_has_no_test_only_functions():
    """A function in ``src/`` that only tests call is a second copy of a
    rule the program applies inline, or dead: it gets a caller, its test
    drives the production path, or it goes.  Names are matched by name,
    not by class; dunders and ``visit_*`` methods (called by dispatch)
    aside."""
    defined, referenced = set(), set()
    for path, tree in _trees("src", "benchmarks", "examples"):
        in_src = path.is_relative_to(REPO / "src")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if in_src:
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.rsplit(".", 1)[-1])
    unreferenced = {
        name for name in defined - referenced
        if not (name.startswith("__") and name.endswith("__"))
        and not name.startswith("visit_")}
    assert sorted(unreferenced) == sorted(UNREFERENCED_OK)


def _enum_members():
    """Each ``enum.Enum`` subclass defined in ``src/`` -> its members."""
    return {
        node.name: {target.id for stmt in node.body
                    if isinstance(stmt, ast.Assign)
                    for target in stmt.targets
                    if isinstance(target, ast.Name)}
        for _path, tree in _trees("src")
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and any(
            (base.attr if isinstance(base, ast.Attribute)
             else getattr(base, "id", "")).endswith("Enum")
            for base in node.bases)}


def test_src_function_bodies_read_no_enum_member_through_its_class():
    """``ViState.CONNECTED`` in a function body is an
    ``EnumMeta.__getattr__`` call on CPython < 3.12, once per read, and
    the datapath tests a state per descriptor, VI and poll.  The module
    defining an enum binds each member to a module name once, and
    bodies read that.  Module-level bindings, class bodies and defaults
    (all evaluated once) may name the class."""
    members = _enum_members()
    assert {"ViState", "DescriptorOp", "DescriptorStatus", "ChannelState",
            "SendMode", "RequestKind", "RegionState"} <= set(members)
    sites = []
    for path, tree in _trees("src"):
        for fn in ast.walk(tree):
            if isinstance(fn, ast.Lambda):
                body = [fn.body]
            elif isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = fn.body
            else:
                continue
            for node in (n for stmt in body for n in ast.walk(stmt)):
                if not isinstance(node, ast.Attribute):
                    continue
                owner = node.value
                name = owner.id if isinstance(owner, ast.Name) else \
                    owner.attr if isinstance(owner, ast.Attribute) else None
                if node.attr in members.get(name, ()):
                    sites.append(f"{path.relative_to(REPO)}:{node.lineno} "
                                 f"{name}.{node.attr}")
    sites = sorted(set(sites))  # a nested def is walked twice
    assert sites == [], f"{len(sites)} sites:\n" + "\n".join(sites)
