"""AST-based determinism lint for the simulation tree.

Every rule flags a construct that can make two runs of the same seeded
job diverge — or that lets an observability layer perturb the schedule
it observes.  The rule catalogue (see DESIGN.md §4d):

========== ====================================================================
REPRO001   wall-clock read (``time.time``, ``datetime.now``, ...): simulated
           code must take time only from ``engine.now``.
REPRO002   global / unseeded RNG (stdlib ``random``, legacy ``numpy.random``
           module functions, ``default_rng()`` with no seed): every stream
           must come from :class:`repro.sim.rng.RngStreams` or an explicit
           seed.  ``sim/rng.py`` itself is exempt.
REPRO003   hash-ordered iteration: looping over a ``set`` (display, call,
           comprehension, or a name statically known to hold one — also
           through a ``list(...)``/``tuple(...)`` snapshot) without
           ``sorted(...)``; or looping over ``dict.keys/values/items`` in a
           body that schedules events or sends packets, where insertion
           order silently becomes schedule order.
REPRO004   float ``==``/``!=`` on sim timestamps (names like ``now``,
           ``*_us``, ``*_at``, ``*_deadline``): timestamp arithmetic must
           use ordering comparisons or explicit sentinels.
REPRO005   mutable default argument: shared mutable state across calls is
           both a Python footgun and a cross-rank determinism hazard.
REPRO006   telemetry-guarded scheduling: inside ``if ...telemetry...:`` the
           code may record, never call ``call_later``/``sleep``/``timeout``/
           ``succeed``/``fail``/``fire`` — recording must not perturb the
           schedule.
REPRO007   mutable module-level state mutated inside a kernel generator
           body: rank programs must be pure functions of their arguments,
           or pod-parallel runs stop being worker-count invariant.
========== ====================================================================

Suppression: append ``# repro: allow[REPRO003]`` (comma-separated ids, or
``*``) to the offending line — any line the violating statement spans
works — or put it on a comment line directly above, with a short
justification.  Unknown rule ids in a directive are reported as warnings
rather than silently ignored.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class Rule:
    """One lint rule: stable id, short name, one-line summary."""

    rule_id: str
    name: str
    summary: str


RULES: Dict[str, Rule] = {
    r.rule_id: r
    for r in (
        Rule("REPRO001", "wall-clock",
             "wall-clock read; simulated code takes time from engine.now"),
        Rule("REPRO002", "unseeded-rng",
             "global/unseeded RNG; draw from a named seeded stream"),
        Rule("REPRO003", "unordered-iteration",
             "hash-ordered iteration feeding the schedule; wrap in sorted()"),
        Rule("REPRO004", "float-time-eq",
             "float ==/!= on sim timestamps; compare with ordering or sentinels"),
        Rule("REPRO005", "mutable-default",
             "mutable default argument"),
        Rule("REPRO006", "telemetry-schedules",
             "telemetry-guarded code schedules events; recording must observe only"),
        Rule("REPRO007", "global-state-in-kernel",
             "module-level mutable mutated in a generator body; breaks "
             "pod-parallel worker-count invariance"),
    )
}

#: dotted call targets that read the host clock
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.localtime", "time.gmtime", "time.ctime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: numpy.random attributes that are fine to call (seedable constructors)
_NP_RANDOM_OK = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
})

#: method names that inject work into the schedule or the fabric
_SCHEDULING_ATTRS = frozenset({
    "call_later", "sleep", "timeout", "succeed", "fail", "fire",
    "ring_doorbell",
})

#: one-argument calls whose result iterates in their argument's order
_ORDER_KEEPING_COPIES = frozenset({"list", "tuple", "iter", "reversed", "enumerate"})

#: terminal identifier shapes treated as sim timestamps (REPRO004)
_TIME_NAME = re.compile(
    r"(^now$)|(^deadline$)|(_us$)|(_at$)|(_time$)|(_deadline$)|(_until$)"
)

#: float literals accepted as timestamp sentinels
_TIME_SENTINELS = (0.0, -1.0, float("inf"))

#: names whose presence in an `if` test marks a telemetry guard
_TELEMETRY_NAMES = frozenset({"telemetry", "tel", "tel_span", "tel_connect"})

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9*,\s]+)\]")

#: container methods that mutate in place (REPRO007)
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "appendleft",
    "extendleft", "sort", "reverse",
})


@dataclass(frozen=True)
class LintViolation:
    """One finding.  ``end_line`` is the last source line the violating
    statement spans (== ``line`` for single-line constructs); a
    suppression directive on any spanned line covers the violation."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""
    end_line: int = 0

    def __post_init__(self) -> None:
        if self.end_line < self.line:
            object.__setattr__(self, "end_line", self.line)

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "name": RULES[self.rule_id].name,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "end_line": self.end_line,
            "message": self.message,
            "snippet": self.snippet,
        }


@dataclass
class LintReport:
    """Aggregated result of one lint run (machine-readable via as_dict)."""

    violations: List[LintViolation] = field(default_factory=list)
    suppressed: List[LintViolation] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: List[str] = field(default_factory=list)
    #: non-fatal findings about the lint directives themselves (e.g. an
    #: unknown rule id inside ``# repro: allow[...]``)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.parse_errors

    def as_dict(self) -> Dict[str, object]:
        return {
            "version": 1,
            "ok": self.ok,
            "files_checked": self.files_checked,
            "violations": [v.as_dict() for v in self.violations],
            "suppressed": [v.as_dict() for v in self.suppressed],
            "parse_errors": list(self.parse_errors),
            "warnings": list(self.warnings),
            "rules": {
                rid: {"name": rule.name, "summary": rule.summary}
                for rid, rule in sorted(RULES.items())
            },
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)


def _suppressions_by_line(
    source: str, path: str = "<string>"
) -> Tuple[Dict[int, Set[str]], List[str]]:
    """Map line number -> set of rule ids allowed on that line, plus
    warnings for directives naming rule ids that do not exist (those
    suppress nothing and should not pass silently).

    A directive on a comment-only line also covers the next line.
    """
    allowed: Dict[int, Set[str]] = {}
    warnings: List[str] = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _ALLOW_RE.search(text)
        if m is None:
            continue
        ids = {part.strip() for part in m.group(1).split(",") if part.strip()}
        for rule_id in sorted(ids):
            if rule_id != "*" and rule_id not in RULES:
                warnings.append(
                    f"{path}:{lineno}: unknown rule id {rule_id!r} in "
                    "'# repro: allow[...]' — directive has no effect"
                )
        allowed.setdefault(lineno, set()).update(ids)
        if text.lstrip().startswith("#"):
            allowed.setdefault(lineno + 1, set()).update(ids)
    return allowed, warnings


#: constructor calls whose result is a mutable container
_MUTABLE_CONSTRUCTORS = frozenset({
    "list", "dict", "set", "bytearray", "deque", "defaultdict",
    "OrderedDict", "Counter",
})


def _is_mutable_expr(node: ast.AST) -> bool:
    """Syntactically a mutable container value."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CONSTRUCTORS
    return False


#: simple (non-compound) statements: a violation anywhere inside one is
#: suppressible by a directive on any physical line the statement spans
#: (multi-line calls put the trailing comment on the closing-paren line)
_SIMPLE_STMTS = (
    ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr,
    ast.Return, ast.Assert, ast.Raise, ast.Delete,
)


def _contains_yield(node: ast.AST) -> bool:
    """True when the function body yields (nested defs excluded)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        if isinstance(child, (ast.Yield, ast.YieldFrom)):
            return True
        if _contains_yield(child):
            return True
    return False


def _is_set_expr(node: ast.AST) -> bool:
    """Syntactically a set: display, comprehension, or set()/frozenset()."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _annotation_is_set(node: Optional[ast.expr]) -> bool:
    """True for annotations like ``set``, ``set[int]``, ``Set[str]``,
    ``frozenset[...]`` (string forms included)."""
    if node is None:
        return False
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        head = node.value.split("[", 1)[0].split(".")[-1].strip()
        return head in ("set", "Set", "frozenset", "FrozenSet")
    if isinstance(node, ast.Subscript):
        return _annotation_is_set(node.value)
    if isinstance(node, ast.Name):
        return node.id in ("set", "Set", "frozenset", "FrozenSet")
    if isinstance(node, ast.Attribute):
        return node.attr in ("Set", "FrozenSet")
    return False


def _terminal_name(node: ast.AST) -> Optional[str]:
    """The rightmost identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _target_key(node: ast.AST) -> Optional[str]:
    """A stable key for assignment targets we track: ``x`` or ``self.x``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    return None


def _is_time_like(node: ast.AST) -> bool:
    name = _terminal_name(node)
    return name is not None and _TIME_NAME.search(name) is not None


def _mentions_telemetry(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        name = _terminal_name(sub)
        if name in _TELEMETRY_NAMES:
            return True
    return False


class _FileLinter(ast.NodeVisitor):
    """Single-file rule engine.

    One pass collects import aliases and set-typed names; the visitor
    pass then emits violations.  Scope handling is deliberately simple
    (module + enclosing-function union): precise enough for this tree,
    and false positives have an escape hatch via ``# repro: allow[...]``.
    """

    def __init__(self, path: str, source: str, rel_posix: str) -> None:
        self.path = path
        self.rel_posix = rel_posix
        self.violations: List[LintViolation] = []
        self._lines = source.splitlines()
        self._aliases: Dict[str, str] = {}
        self._set_names: Set[str] = set()
        self._telemetry_guard_depth = 0
        #: module-level names bound to mutable containers (REPRO007)
        self._module_mutables: Set[str] = set()
        #: per-enclosing-function flags: True while the nearest enclosing
        #: def is a generator (a kernel rank program)
        self._generator_stack: List[bool] = []
        #: names declared ``global`` per enclosing function
        self._global_decls: List[Set[str]] = []
        #: end line of each enclosing simple statement (directive span)
        self._stmt_spans: List[int] = []
        #: rng rule is waived for the seed-stream factory itself
        self._rng_exempt = rel_posix.endswith("sim/rng.py")

    def visit(self, node: ast.AST) -> None:
        if isinstance(node, _SIMPLE_STMTS):
            self._stmt_spans.append(
                getattr(node, "end_lineno", None) or node.lineno)
            try:
                super().visit(node)
            finally:
                self._stmt_spans.pop()
        else:
            super().visit(node)

    # -- shared helpers ----------------------------------------------------
    def _emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        end_line = getattr(node, "end_lineno", None) or line
        if self._stmt_spans:
            end_line = max(end_line, self._stmt_spans[-1])
        snippet = self._lines[line - 1].strip() if line <= len(self._lines) else ""
        self.violations.append(
            LintViolation(rule_id, self.path, line, col, message, snippet,
                          end_line=end_line)
        )

    def _canonical(self, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain to a dotted module path using
        the file's import aliases; None if the root is not imported."""
        parts: List[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        root = self._aliases.get(cur.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))

    # -- prepass: imports and set-typed names ------------------------------
    def collect(self, tree: ast.AST) -> None:
        # module-level mutable bindings (REPRO007 candidates)
        for stmt in getattr(tree, "body", []):
            if isinstance(stmt, ast.Assign) and _is_mutable_expr(stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self._module_mutables.add(target.id)
            elif (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.value is not None
                and _is_mutable_expr(stmt.value)
            ):
                self._module_mutables.add(stmt.target.id)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self._aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname:
                        self._aliases[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self._aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
            elif isinstance(node, ast.Assign):
                if _is_set_expr(node.value):
                    for target in node.targets:
                        key = _target_key(target)
                        if key is not None:
                            self._set_names.add(key)
            elif isinstance(node, ast.AnnAssign):
                key = _target_key(node.target)
                if key is not None and (
                    _annotation_is_set(node.annotation)
                    or (node.value is not None and _is_set_expr(node.value))
                ):
                    self._set_names.add(key)

    # -- REPRO001 / REPRO002: calls ---------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._canonical(node.func)
        if dotted is not None:
            if dotted in _WALL_CLOCK:
                self._emit(
                    "REPRO001", node,
                    f"wall-clock call {dotted}() — simulated code must take "
                    "time from engine.now",
                )
            elif not self._rng_exempt:
                self._check_rng(node, dotted)
        if self._telemetry_guard_depth > 0:
            attr = node.func.attr if isinstance(node.func, ast.Attribute) else None
            if attr in _SCHEDULING_ATTRS:
                self._emit(
                    "REPRO006", node,
                    f".{attr}() inside a telemetry guard — recording must "
                    "never schedule events",
                )
        if (
            self._in_generator
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATOR_METHODS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in self._module_mutables
        ):
            self._emit(
                "REPRO007", node,
                f".{node.func.attr}() on module-level mutable "
                f"{node.func.value.id!r} inside a generator body — rank "
                "programs must not share module state",
            )
        self.generic_visit(node)

    def _check_rng(self, node: ast.Call, dotted: str) -> None:
        if dotted.startswith("random."):
            tail = dotted.split(".", 1)[1]
            if tail == "SystemRandom":
                self._emit("REPRO002", node,
                           "random.SystemRandom is entropy-backed and "
                           "unreproducible")
            elif tail == "Random":
                if not node.args:
                    self._emit("REPRO002", node,
                               "random.Random() without a seed")
            else:
                self._emit(
                    "REPRO002", node,
                    f"global random.{tail}() — draw from a named stream "
                    "(repro.sim.rng.RngStreams)",
                )
        elif dotted.startswith("numpy.random."):
            tail = dotted.split("numpy.random.", 1)[1]
            if tail == "default_rng":
                if not node.args and not node.keywords:
                    self._emit("REPRO002", node,
                               "numpy.random.default_rng() without a seed")
            elif tail not in _NP_RANDOM_OK and "." not in tail:
                self._emit(
                    "REPRO002", node,
                    f"legacy global numpy.random.{tail}() — use a seeded "
                    "Generator from repro.sim.rng",
                )

    # -- REPRO003: iteration order ----------------------------------------
    def _iter_hazard(self, iter_node: ast.expr) -> Optional[str]:
        """Why iterating ``iter_node`` is hash-ordered, or None if safe."""
        if isinstance(iter_node, ast.Call) and isinstance(iter_node.func, ast.Name):
            if iter_node.func.id in ("sorted", "len", "min", "max", "sum"):
                return None
            if (
                iter_node.func.id in _ORDER_KEEPING_COPIES
                and len(iter_node.args) == 1
                and not iter_node.keywords
            ):
                # list(s) / tuple(s) / reversed(...) snapshot a set in
                # its hash order: the copy is as unordered as the set
                return self._iter_hazard(iter_node.args[0])
        if _is_set_expr(iter_node):
            return "iteration over a set expression"
        key = _target_key(iter_node)
        if key is not None and key in self._set_names:
            return f"iteration over set-typed {key!r}"
        return None

    @staticmethod
    def _dict_view(iter_node: ast.expr) -> Optional[str]:
        if (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Attribute)
            and iter_node.func.attr in ("keys", "values", "items")
            and not iter_node.args
        ):
            return iter_node.func.attr
        return None

    @staticmethod
    def _body_schedules(body: Sequence[ast.stmt]) -> Optional[str]:
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                    if sub.func.attr in _SCHEDULING_ATTRS:
                        return sub.func.attr
        return None

    def visit_For(self, node: ast.For) -> None:
        hazard = self._iter_hazard(node.iter)
        if hazard is not None:
            self._emit("REPRO003", node,
                       f"{hazard} without sorted() — hash order leaks into "
                       "the schedule")
        else:
            view = self._dict_view(node.iter)
            if view is not None:
                sched = self._body_schedules(node.body)
                if sched is not None:
                    self._emit(
                        "REPRO003", node,
                        f"loop over .{view}() whose body calls .{sched}() — "
                        "insertion order becomes schedule order; make the "
                        "order explicit with sorted()",
                    )
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for gen in getattr(node, "generators", []):
            hazard = self._iter_hazard(gen.iter)
            if hazard is not None:
                self._emit("REPRO003", node,
                           f"{hazard} in a comprehension without sorted()")
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- REPRO004: float time equality ------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            lt, rt = _is_time_like(left), _is_time_like(right)
            if lt and rt:
                self._emit("REPRO004", node,
                           "float == between sim timestamps — use ordering "
                           "comparisons or an epsilon")
            elif lt or rt:
                other = right if lt else left
                if (
                    isinstance(other, ast.Constant)
                    and isinstance(other.value, float)
                    and other.value not in _TIME_SENTINELS
                ):
                    self._emit(
                        "REPRO004", node,
                        f"sim timestamp compared == {other.value!r} — float "
                        "equality on times is schedule-fragile",
                    )
        self.generic_visit(node)

    # -- REPRO005: mutable defaults ---------------------------------------
    def _check_defaults(self, node: ast.AST) -> None:
        args = getattr(node, "args")
        for default in [*args.defaults, *args.kw_defaults]:
            if default is None:
                continue
            if _is_mutable_expr(default):
                self._emit("REPRO005", default,
                           "mutable default argument is shared across calls")
        self.generic_visit(node)

    def _visit_function(self, node: ast.AST) -> None:
        self._generator_stack.append(_contains_yield(node))
        self._global_decls.append(set())
        try:
            self._check_defaults(node)
        finally:
            self._generator_stack.pop()
            self._global_decls.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)

    # -- REPRO007: module state mutated inside a kernel generator ----------
    @property
    def _in_generator(self) -> bool:
        return bool(self._generator_stack) and self._generator_stack[-1]

    @staticmethod
    def _root_name(node: ast.AST) -> Optional[str]:
        cur = node
        while isinstance(cur, (ast.Subscript, ast.Attribute)):
            cur = cur.value
        return cur.id if isinstance(cur, ast.Name) else None

    def visit_Global(self, node: ast.Global) -> None:
        if self._global_decls:
            self._global_decls[-1].update(node.names)
        self.generic_visit(node)

    def _check_store_mutation(self, target: ast.AST, node: ast.AST) -> None:
        """An assignment target mutating module-level state (REPRO007)."""
        if not self._in_generator:
            return
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            root = self._root_name(target)
            if root in self._module_mutables:
                self._emit(
                    "REPRO007", node,
                    f"store into module-level mutable {root!r} inside a "
                    "generator body — rank programs must not share module "
                    "state (pod-parallel runs lose worker-count invariance)",
                )
        elif isinstance(target, ast.Name):
            declared = self._global_decls[-1] if self._global_decls else set()
            if target.id in declared and target.id in self._module_mutables:
                self._emit(
                    "REPRO007", node,
                    f"rebind of global mutable {target.id!r} inside a "
                    "generator body — rank programs must not share module "
                    "state",
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store_mutation(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Name):
            # plain `X += ...` on a module mutable is only legal (and
            # only a hazard) under a `global` declaration — but either
            # way it names shared state from a generator body
            if self._in_generator and target.id in self._module_mutables:
                self._emit(
                    "REPRO007", node,
                    f"augmented assignment to module-level mutable "
                    f"{target.id!r} inside a generator body",
                )
        else:
            self._check_store_mutation(target, node)
        self.generic_visit(node)

    # -- REPRO006: telemetry guards ----------------------------------------
    def visit_If(self, node: ast.If) -> None:
        if _mentions_telemetry(node.test):
            self.visit(node.test)
            self._telemetry_guard_depth += 1
            for stmt in node.body:
                self.visit(stmt)
            self._telemetry_guard_depth -= 1
            for stmt in node.orelse:
                self.visit(stmt)
        else:
            self.generic_visit(node)


def lint_source(
    source: str, path: str = "<string>", rel_posix: Optional[str] = None
) -> Tuple[List[LintViolation], List[LintViolation], List[str]]:
    """Lint one source text; returns ``(violations, suppressed, warnings)``.

    A violation is suppressed when a matching directive sits on *any*
    line the violating statement spans (multi-line calls and chained
    expressions put the directive wherever black/ruff left room), or on
    a comment line directly above.
    """
    tree = ast.parse(source, filename=path)
    linter = _FileLinter(path, source, rel_posix or Path(path).as_posix())
    linter.collect(tree)
    linter.visit(tree)
    allowed, warnings = _suppressions_by_line(source, path)
    kept: List[LintViolation] = []
    suppressed: List[LintViolation] = []
    for violation in linter.violations:
        ids: Set[str] = set()
        for lineno in range(violation.line, violation.end_line + 1):
            ids |= allowed.get(lineno, set())
        if violation.rule_id in ids or "*" in ids:
            suppressed.append(violation)
        else:
            kept.append(violation)
    kept.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    suppressed.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return kept, suppressed, warnings


def iter_python_files(paths: Iterable[str]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            out.append(p)
    return [p for p in out if "__pycache__" not in p.parts]


def lint_paths(paths: Iterable[str]) -> LintReport:
    """Lint every ``.py`` file under ``paths``; returns a LintReport."""
    report = LintReport()
    for file_path in iter_python_files(paths):
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError as exc:  # pragma: no cover - unreadable file
            report.parse_errors.append(f"{file_path}: {exc}")
            continue
        try:
            kept, suppressed, warnings = lint_source(
                source, str(file_path), file_path.as_posix()
            )
        except SyntaxError as exc:
            report.parse_errors.append(f"{file_path}: {exc}")
            continue
        report.files_checked += 1
        report.violations.extend(kept)
        report.suppressed.extend(suppressed)
        report.warnings.extend(warnings)
    return report
