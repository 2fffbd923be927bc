"""Rank-symbolic abstract interpreter for kernel generators.

``repro`` kernels are plain-Python generator factories: ``make_cg("S")``
returns ``prog(mpi)`` whose body mixes numpy compute with MPI facade calls.
To predict the communication graph *statically* we execute that AST with
``rank``/``size`` bound to concrete integers while everything
data-dependent stays abstract:

* Fully-concrete operations delegate to real Python/numpy — ``(rank + 1) %
  size``, ``rank ^ (1 << k)``, ``int(np.sqrt(size))``, ``process_grid(p)``
  all evaluate exactly.
* Random draws return :class:`AbstractArray` (shape/dtype known, contents
  unknown) or :data:`UNKNOWN`; arithmetic with unknowns stays unknown, so a
  destination derived from data (``partners[int(draw)]``) is reported as
  unresolvable (REPROC04) instead of being guessed.
* A branch on an unknown condition runs *both* arms (events flagged
  uncertain, stores joined); a loop over an unknown iterable runs its body
  once under uncertainty and then havocs every name the body assigns.
* One pass runs a class of ranks: ``mpi.rank`` is :class:`Ranked`, and so is
  what is computed from it.  An ``if``, a conditional expression or an
  ``and``/``or`` whose condition is true for some ranks and false for the
  others *forks* (:meth:`Interp.fork`): each arm runs in the same pass for
  its own ranks, and the names the arms assign re-join as one value per
  rank.  An arm that could leave the block or change something in place
  (``return``, ``break``, a subscript store, ``list.append``...) is refused
  from its AST, and a fork whose arm changes something in place anyway is
  abandoned and undone.  Refused, abandoned, or on any other rank-dependent
  path (a loop count, a condition unknown for some ranks), the pass keeps
  the ranks agreeing with its lowest rank (:meth:`Interp.narrow`) and lets
  the others go to passes of their own.

The interpreter never imports kernel modules for execution side effects:
``repro.apps.*`` sources are parsed and interpreted from their ASTs; only
leaf helpers (``repro.mpi.constants``, ``repro.apps.npb.common``) and numpy
are used for real.  MPI facade calls are intercepted by :class:`MpiProxy`,
which records :class:`~repro.analysis.commgraph.MsgEvent` /
:class:`~repro.analysis.commgraph.CollEvent` streams for the graph builder in
:mod:`repro.analysis.comm`.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import importlib.util
import math
import operator
from collections import deque
from collections.abc import Iterator
from functools import lru_cache
from types import BuiltinFunctionType, FunctionType, MethodType
from typing import (AbstractSet, Any, Callable, Collection, Dict, List,
                    Optional, Sequence, Tuple, Union)

import numpy as np

from repro.analysis.commgraph import CollEvent, Event, MsgEvent
from repro.mpi.constants import ANY_SOURCE, ANY_TAG

__all__ = [
    "UNKNOWN",
    "AbstractArray",
    "AnalysisError",
    "BudgetExceeded",
    "Interp",
    "MpiProxy",
    "Ranked",
]


class AnalysisError(Exception):
    """The kernel source could not be analyzed (unsupported construct,
    certain runtime error on the interpreted path, or budget blown)."""


class BudgetExceeded(AnalysisError):
    """The per-rank abstract-interpretation budget ran out."""


class _Unknown:
    """Singleton bottom/top value: 'some value we cannot resolve'."""

    _instance: Optional["_Unknown"] = None

    def __new__(cls) -> "_Unknown":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNKNOWN"


UNKNOWN = _Unknown()

_DTYPE_ORDER = ("bool", "uint8", "int32", "int64", "float32", "float64",
                "complex64", "complex128")
_ITEMSIZE = {"bool": 1, "uint8": 1, "int8": 1, "int32": 4, "uint32": 4,
             "int64": 8, "uint64": 8, "float32": 4, "float64": 8,
             "complex64": 8, "complex128": 16}


def _dtype_name(dtype: Any) -> str:
    """Normalize a dtype-ish value (str, np.dtype, python type) to a name."""
    if isinstance(dtype, str):
        return dtype
    if dtype is float:
        return "float64"
    if dtype is int:
        return "int64"
    if dtype is bool:
        return "bool"
    if dtype is complex:
        return "complex128"
    try:
        return str(np.dtype(dtype))
    except Exception:
        return "float64"


def _promote(a: str, b: str) -> str:
    ia = _DTYPE_ORDER.index(a) if a in _DTYPE_ORDER else _DTYPE_ORDER.index("float64")
    ib = _DTYPE_ORDER.index(b) if b in _DTYPE_ORDER else _DTYPE_ORDER.index("float64")
    return _DTYPE_ORDER[max(ia, ib)]


Shape = Optional[Tuple[int, ...]]


def _broadcast(s1: Shape, s2: Shape) -> Shape:
    if s1 is None or s2 is None:
        return None
    out: List[int] = []
    for d1, d2 in zip(reversed((1,) * max(0, len(s2) - len(s1)) + s1),
                      reversed((1,) * max(0, len(s1) - len(s2)) + s2)):
        if d1 == d2 or d2 == 1:
            out.append(d1)
        elif d1 == 1:
            out.append(d2)
        else:
            return None
    return tuple(reversed(out))


class AbstractArray:
    """An ndarray whose shape/dtype are (possibly) known but contents are not."""

    __slots__ = ("shape", "dtype")

    def __init__(self, shape: Shape, dtype: str = "float64") -> None:
        self.shape = tuple(map(int, shape)) if shape is not None else None
        self.dtype = dtype

    def __repr__(self) -> str:
        return f"AbstractArray(shape={self.shape}, dtype={self.dtype})"

    @property
    def ndim(self) -> Optional[int]:
        return None if self.shape is None else len(self.shape)

    @property
    def size(self) -> Optional[int]:
        if self.shape is None:
            return None
        n = 1
        for d in self.shape:
            n *= d
        return n

    @property
    def itemsize(self) -> int:
        return _ITEMSIZE.get(self.dtype, 8)

    @property
    def nbytes(self) -> Optional[int]:
        return None if self.size is None else self.size * self.itemsize


class RngVal:
    """Abstract ``np.random.Generator``: draws have known shapes, unknown
    contents — data-dependence must never leak into rank expressions."""

    __slots__ = ()

    _FLOAT = {"standard_normal", "random", "uniform", "normal",
              "exponential", "standard_exponential"}
    _INT = {"integers", "permutation", "choice"}

    def call(self, method: str, args: Tuple[Any, ...],
             kwargs: Dict[str, Any]) -> Any:
        shape: Shape = None
        if method in ("standard_normal", "standard_exponential",
                      "permutation", "random"):
            shape = _as_shape(args[0]) if args else None
        elif method in ("uniform", "normal", "exponential"):
            size = kwargs.get("size", args[2] if len(args) > 2 else None)
            shape = _as_shape(size)
        elif method in ("integers", "choice"):
            size = kwargs.get("size")
            if size is None and method == "integers" and len(args) > 2:
                size = args[2]
            shape = _as_shape(size)
        if method in self._INT:
            dtype = _dtype_name(kwargs.get("dtype", "int64"))
            return AbstractArray(shape, dtype) if shape is not None else UNKNOWN
        if method in self._FLOAT:
            return AbstractArray(shape, "float64") if shape is not None else UNKNOWN
        if method == "shuffle":
            return None
        return UNKNOWN


def _nested_shape(value: Any) -> Shape:
    """Shape of a nested list/tuple the way ``np.array`` would see it;
    None as soon as the structure is ragged or an element is abstract."""
    if isinstance(value, (list, tuple)):
        if not value:
            return (0,)
        inner = [_nested_shape(v) for v in value]
        head = inner[0]
        if head is None or any(s != head for s in inner[1:]):
            return None
        return (len(value),) + head
    if isinstance(value, AbstractArray):
        return value.shape
    if isinstance(value, np.ndarray):
        return tuple(value.shape)
    if isinstance(value, (int, float, complex, bool, np.generic)):
        return ()
    return None


def _as_shape(size: Any) -> Shape:
    if isinstance(size, bool):
        return None
    if isinstance(size, int):
        return (size,)
    if isinstance(size, (tuple, list)) and all(
            isinstance(d, int) and not isinstance(d, bool) for d in size):
        return tuple(int(d) for d in size)
    return None


class NumpyVal:
    """Proxy for the numpy module inside interpreted code."""

    __slots__ = ("path",)

    def __init__(self, path: str = "") -> None:
        self.path = path

    def attr(self, name: str) -> Any:
        sub = f"{self.path}.{name}" if self.path else name
        if sub in ("pi", "e", "inf", "nan", "newaxis"):
            return getattr(np, name)
        if sub in ("float64", "float32", "int64", "int32", "uint8", "bool_",
                   "complex128", "complex64", "intp"):
            return DtypeVal(_dtype_name(sub.rstrip("_")))
        if sub in ("random", "fft", "linalg", "add"):
            return NumpyVal(sub)
        return NpFunc(sub)


class NpFunc:
    """A numpy callable referenced from interpreted code, by dotted name."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class DtypeVal:
    """A dtype object (``np.float64`` used as value or cast)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class FuncVal:
    """An interpreted function/lambda: its compiled code, its defining
    environment and its evaluated defaults."""

    __slots__ = ("name", "code", "env", "pos_defaults", "kw_defaults")

    def __init__(self, name: str, code: "_Code", env: "Env",
                 pos_defaults: Tuple[Any, ...],
                 kw_defaults: Dict[str, Any]) -> None:
        self.name = name
        self.code = code
        self.env = env
        self.pos_defaults = pos_defaults
        self.kw_defaults = kw_defaults


class ModuleProxy:
    """An interpreted ``repro.apps`` module: attributes live in its env."""

    __slots__ = ("dotted", "env")

    def __init__(self, dotted: str, env: "Env") -> None:
        self.dotted = dotted
        self.env = env


class UnknownIter:
    """An iterable of unknown length/content (e.g. ``zip`` over abstracts)."""

    __slots__ = ()


class Ranked:
    """A value that differs by rank in a pass: ``values[p]`` is what the
    rank at position ``p`` holds.  Never inside a container: a display of
    one builds a container per rank, ``owned`` (stores go slot by slot)."""

    __slots__ = ("values", "owned")

    def __init__(self, values: List[Any], owned: bool = False) -> None:
        self.values = values
        self.owned = owned


_WRAPPERS = (_Unknown, AbstractArray, RngVal, NumpyVal, NpFunc, DtypeVal,
             FuncVal, ModuleProxy, UnknownIter, Ranked)

#: exact types that are concrete on sight: no wrapper, no container
_PLAIN = frozenset({int, float, str, bool, type(None), np.ndarray,
                    np.float64, np.int64})

#: exact types whose values are equal when ``==`` says so
_EQ_KINDS = frozenset({int, str, bool, bytes, type(None), slice, range})


def _same(a: Any, b: Any) -> bool:
    """``b`` may stand for ``a``: one object, or equal immutable values."""
    if a is b:
        return True
    kind = type(a)
    if kind is not type(b):
        return False
    if kind in _EQ_KINDS:
        return bool(a == b)
    if kind is tuple:
        return len(a) == len(b) and all(map(_same, a, b))
    if kind is float or kind is complex or isinstance(a, np.generic):
        return repr(a) == repr(b)
    if kind is AbstractArray:
        return bool(a.shape == b.shape and a.dtype == b.dtype)
    if kind in (NumpyVal, NpFunc, DtypeVal):  # a numpy name, stateless
        return bool(getattr(a, kind.__slots__[0]) == getattr(
            b, kind.__slots__[0]))
    return kind is RngVal or kind is UnknownIter


def is_concrete(value: Any, _depth: int = 0) -> bool:
    """True when ``value`` is plain Python data safe to hand to real code."""
    if _depth > 6:
        return False
    if type(value) in _PLAIN:
        return True
    if isinstance(value, _WRAPPERS) or isinstance(value, MpiProxy):
        return False
    if isinstance(value, (list, tuple, set, frozenset)):
        return _all_concrete(value, _depth + 1)
    if isinstance(value, dict):
        return _all_concrete(value, _depth + 1) and _all_concrete(
            value.values(), _depth + 1)
    return True


def _all_concrete(values: Collection[Any], _depth: int = 0) -> bool:
    if _depth > 6:  # nothing this deep is concrete
        return not values
    for value in values:
        if type(value) not in _PLAIN and not is_concrete(value, _depth):
            return False
    return True


def _as_int(value: Any) -> Optional[int]:
    """Concrete integer view of a value, else None."""
    if type(value) is int:
        return value
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, np.integer):
        return int(value)
    return None


def _nbytes_of(value: Any) -> Optional[int]:
    if value is None:
        return 0
    if isinstance(value, AbstractArray):
        return value.nbytes
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, (bool, np.bool_)):
        return 1
    if isinstance(value, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(value, complex):
        return 16
    return None


# --------------------------------------------------------------- signals ---


class _Signal(Exception):
    pass


class BreakSignal(_Signal):
    pass


class ContinueSignal(_Signal):
    pass


class ReturnSignal(_Signal):
    def __init__(self, value: Any) -> None:
        super().__init__()
        self.value = value


class RaiseSignal(_Signal):
    def __init__(self, detail: str, line: Optional[int]) -> None:
        super().__init__(detail)
        self.detail = detail
        self.line = line


class _Abandon(BaseException):
    """An arm of a fork changed something its other arms could see: the
    fork is undone and narrows instead.  Not an ``Exception``, so no
    ``except Exception`` on the way takes it for an analysis error."""


# ----------------------------------------------------------- environment ---


class Env:
    """Lexical scope chain with snapshot/restore for branch joins."""

    __slots__ = ("vars", "parent", "nonlocal_names", "global_names")

    def __init__(self, parent: Optional["Env"] = None) -> None:
        self.vars: Dict[str, Any] = {}
        self.parent = parent
        # replaced, never mutated, by a ``nonlocal`` / ``global`` statement
        self.nonlocal_names: AbstractSet[str] = frozenset()
        self.global_names: AbstractSet[str] = frozenset()

    def lookup(self, name: str) -> Any:
        env: Optional[Env] = self
        while env is not None:
            if name in env.vars:
                return env.vars[name]
            env = env.parent
        raise KeyError(name)

    def has(self, name: str) -> bool:
        env: Optional[Env] = self
        while env is not None:
            if name in env.vars:
                return True
            env = env.parent
        return False

    def module_env(self) -> "Env":
        env: Env = self
        while env.parent is not None:
            env = env.parent
        return env

    def assign(self, name: str, value: Any) -> None:
        if name in self.global_names:
            self.module_env().vars[name] = value
            return
        if name in self.nonlocal_names:
            env = self.parent
            while env is not None:
                if name in env.vars:
                    env.vars[name] = value
                    return
                env = env.parent
        self.vars[name] = value

    def chain(self) -> List["Env"]:
        out: List[Env] = []
        env: Optional[Env] = self
        while env is not None:
            out.append(env)
            env = env.parent
        return out

    def snapshot(self) -> List[Tuple["Env", Dict[str, Any]]]:
        return [(env, dict(env.vars)) for env in self.chain()]


def _restore(snap: List[Tuple[Env, Dict[str, Any]]]) -> None:
    for env, saved in snap:
        env.vars = dict(saved)


def _join_states(interp: "Interp",
                 after_body: List[Tuple[Env, Dict[str, Any]]],
                 after_else: List[Tuple[Env, Dict[str, Any]]]) -> None:
    """Merge two branch outcomes in place: disagreeing names go UNKNOWN."""
    else_by_env = {id(env): state for env, state in after_else}
    for env, body_state in after_body:
        else_state = else_by_env.get(id(env), {})
        merged: Dict[str, Any] = {}
        for name in sorted(set(body_state) | set(else_state)):
            if name in body_state and name in else_state:
                b, e = body_state[name], else_state[name]
                # an unchanged per-rank value keeps the ranks outside a
                # fork's arm (``lift`` would fill only the arm's)
                merged[name] = b if b is e else interp.lift(
                    _merged, (b, e)) if Ranked in (
                    type(b), type(e)) else _merged(b, e)
            else:
                merged[name] = UNKNOWN
        env.vars = merged


def _merged(b: Any, e: Any) -> Any:
    return b if b is e or _defs_equal(b, e) else UNKNOWN


def _defs_equal(a: Any, b: Any) -> bool:
    if not is_concrete(a) or not is_concrete(b):
        return False
    try:
        return bool(a == b)
    except Exception:
        return False


#: a name with no binding in a scope, as a fork saves and joins it
_UNBOUND = object()
#: what :meth:`Interp.fork` returns when the caller must narrow instead
_NARROW = object()


def _rebind(env: Env, names: Sequence[str], values: Sequence[Any]) -> None:
    """Put back what ``names`` were bound to in ``env`` alone."""
    for name, value in zip(names, values):
        if value is _UNBOUND:
            env.vars.pop(name, None)
        else:
            env.vars[name] = value


# ------------------------------------------------------------- MPI proxy ---


def _msg_event(op: str, peer: Any, tag: Any, data: Any, any_source: bool,
               certain: bool, line: Optional[int]) -> MsgEvent:
    # a receive or probe from ANY_SOURCE is a wildcard with no peer
    wildcard = any_source and _as_int(peer) == ANY_SOURCE
    concrete = _as_int(tag)
    return MsgEvent(
        op=op, peer=None if wildcard else _as_int(peer), wildcard=wildcard,
        # ANY_TAG means "match anything" in the pairing simulation: None
        tag=None if concrete == ANY_TAG else concrete,
        nbytes=_nbytes_of(data), certain=certain, line=line)


def _coll_event(kind: str, root: Any, buf: Any, certain: bool,
                line: Optional[int]) -> CollEvent:
    return CollEvent(kind=kind, root=_as_int(root), nbytes=_nbytes_of(buf),
                     certain=certain, line=line)


class MpiProxy:
    """Facade stand-in: records comm events instead of scheduling them,
    for one rank or a class of them (an event differing by rank is a
    :class:`Ranked` of events; inside an arm of a fork, a :class:`Ranked`
    with None for the ranks outside the arm)."""

    def __init__(self, rank: Union[int, Sequence[int]], size: int) -> None:
        self.ranks = (rank,) if isinstance(rank, int) else tuple(rank)
        self.rank: Any = self.ranks[0] if len(self.ranks) == 1 \
            else Ranked(list(self.ranks))
        self.size = size
        self.events: List[Any] = []
        self._interp: Optional["Interp"] = None

    # -- helpers ----------------------------------------------------------
    def _record(self, make: Callable[..., Event], *fields: Any) -> Any:
        interp = self._interp
        fields += (interp.uncertain_depth == 0 if interp else True,
                   interp.current_line if interp else None)
        if interp is not None and Ranked in map(type, fields):
            self.events.append(Ranked(interp.lift_raw(make, fields)))
        elif interp is not None and interp.fresh:  # in an arm of a fork
            event = make(*fields)
            values: List[Any] = [None] * len(interp.ranks)
            for p in interp.active:
                values[p] = event
            self.events.append(Ranked(values))
        else:
            self.events.append(make(*fields))
        return UNKNOWN  # what a request or a received value reads as

    def _p2p(self, op: str, peer: Any, tag: Any, data: Any,
             any_source: bool = False) -> Any:
        return self._record(_msg_event, op, peer, tag, data, any_source)

    def _coll(self, kind: str, root: Any, buf: Any) -> Any:
        return self._record(_coll_event, kind, root, buf)

    # -- point to point ---------------------------------------------------
    def send(self, data: Any, dest: Any, tag: Any = 0, comm: Any = None,
             mode: Any = None) -> Any:
        self._p2p("send", dest, tag, data)
        return None

    def isend(self, data: Any, dest: Any, tag: Any = 0, comm: Any = None,
              mode: Any = None) -> Any:
        return self._p2p("send", dest, tag, data)

    # send-mode variants share the standard-send footprint
    ssend = bsend = rsend = send
    issend = ibsend = isend

    def recv(self, buf: Any = None, source: Any = ANY_SOURCE,
             tag: Any = ANY_TAG, comm: Any = None) -> Any:
        return self._p2p("recv", source, tag, buf, any_source=True)

    irecv = recv

    def sendrecv(self, senddata: Any, dest: Any, recvbuf: Any = None,
                 source: Any = ANY_SOURCE, sendtag: Any = 0,
                 recvtag: Any = ANY_TAG, comm: Any = None) -> Any:
        self._p2p("send", dest, sendtag, senddata)
        return self._p2p("recv", source, recvtag, recvbuf, any_source=True)

    def iprobe(self, source: Any = ANY_SOURCE, tag: Any = ANY_TAG,
               comm: Any = None) -> Any:
        return self._p2p("probe", source, tag, None, any_source=True)

    # -- request completion (no comm edges) -------------------------------
    def wait(self, request: Any) -> Any:
        return UNKNOWN

    test = wait

    def waitall(self, requests: Any) -> Any:
        return None

    # -- collectives ------------------------------------------------------
    def barrier(self, comm: Any = None) -> Any:
        self._coll("barrier", None, None)
        return None

    def bcast(self, buf: Any, root: Any = 0, comm: Any = None) -> Any:
        return self._coll("bcast", root, buf)

    def reduce(self, sendbuf: Any, recvbuf: Any = None, op: Any = None,
               root: Any = 0, comm: Any = None) -> Any:
        return self._coll("reduce", root, sendbuf)

    def allreduce(self, sendbuf: Any, recvbuf: Any = None, op: Any = None,
                  comm: Any = None) -> Any:
        return self._coll("allreduce", None, sendbuf)

    def allgather(self, sendbuf: Any, recvbuf: Any = None,
                  comm: Any = None) -> Any:
        return self._coll("allgather", None, sendbuf)

    def alltoall(self, sendbuf: Any, recvbuf: Any = None,
                 comm: Any = None) -> Any:
        return self._coll("alltoall", None, sendbuf)

    def alltoallv(self, sendbuf: Any, sendcounts: Any = None,
                  sdispls: Any = None, recvbuf: Any = None,
                  recvcounts: Any = None, rdispls: Any = None,
                  comm: Any = None) -> Any:
        return self._coll("alltoallv", None, sendbuf)

    def gather(self, sendbuf: Any, recvbuf: Any = None, root: Any = 0,
               comm: Any = None) -> Any:
        return self._coll("gather", root, sendbuf)

    def scatter(self, sendbuf: Any, recvbuf: Any = None, root: Any = 0,
                comm: Any = None) -> Any:
        return self._coll("scatter", root, sendbuf)

    # -- local ops --------------------------------------------------------
    def compute(self, us: Any) -> Any:
        return None

    def wtime(self) -> Any:
        return UNKNOWN


_MPI_METHODS = frozenset(
    name for name in vars(MpiProxy)
    if not name.startswith("_") and callable(getattr(MpiProxy, name)))


# ------------------------------------------------------------ interpreter ---

#: module prefixes interpreted from source (never imported for real)
_INTERP_PREFIX = "repro.apps"

#: modules importable for real inside interpreted code (leaf helpers only)
_REAL_IMPORT_OK = ("repro.mpi.constants", "repro.apps.npb.common",
                   "math", "itertools")

#: real-container methods that mutate in place; executed raw even with
#: abstract arguments so structure stays tracked while values may be UNKNOWN
_MUTATORS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "appendleft", "extendleft", "discard",
})

#: methods that change their object in place: an arm calling one by name
#: refuses to fork, and one run on a real container abandons the fork
_IN_PLACE = _MUTATORS | frozenset(
    "pop popitem popleft remove clear sort reverse rotate fill resize put "
    "itemset setflags partition byteswap __setitem__ __delitem__".split())

#: real objects a call may change in place
_CONTAINERS = (list, dict, set, bytearray, deque, np.ndarray)

_BUDGET_BLOWN = "abstract-interpretation op budget exceeded"


@lru_cache(maxsize=256)
def _numpy_target(name: str) -> Any:
    """What a dotted numpy name runs when its arguments are concrete;
    None when numpy has no such name."""
    target: Any = np
    try:
        for part in name.split("."):
            target = getattr(target, part)
    except AttributeError:
        return None
    if name == "random.default_rng":
        return RngVal
    if name.rsplit(".", 1)[-1] in ("empty", "empty_like"):
        # np.empty leaves contents uninitialized, which would make the
        # analysis nondeterministic — use zeros (same shape)
        return np.zeros if name.endswith("empty") else np.zeros_like
    return target


class Budget:
    """Ops an :class:`Interp` may still charge, one per node entered and per
    call made; going below zero raises :class:`BudgetExceeded`."""

    __slots__ = ("ops",)

    def __init__(self, ops: int = 5_000_000) -> None:
        self.ops = ops


# A kernel is compiled once and run per pass: every AST node becomes a
# closure ``(interp, env) -> value`` that has done whatever depends on the
# node alone, and captures only what the AST says — never an Env, an
# Interp, a Budget or a value, so no pass depends on the ones before it.
# ``_restore`` replaces ``env.vars``: a closure re-reads it after a child.

Expr = Callable[["Interp", Env], Any]
Stmt = Callable[["Interp", Env], None]
Store = Callable[["Interp", Env, Any], None]
Body = Tuple[Stmt, ...]


_NO_ARGS = ast.arguments(posonlyargs=[], args=[], vararg=None, kwonlyargs=[],
                         kw_defaults=[], kwarg=None, defaults=[])


class _Code:
    """What the AST says about one module body, ``def`` or ``lambda``:
    the parameter layout, and the body compiled on its first run (code
    no rank executes is never compiled)."""

    __slots__ = ("names", "kwonly", "vararg", "kwarg", "plain", "body",
                 "expr", "_source")

    def __init__(self, source: Union[Sequence[ast.stmt], ast.expr],
                 args: ast.arguments = _NO_ARGS) -> None:
        self._source = source
        #: statements of a module or ``def``; () for a lambda
        self.body: Optional[Body] = None
        #: the value of a lambda; None for a module or ``def``
        self.expr: Optional[Expr] = None
        self.names = tuple(a.arg for a in args.posonlyargs + args.args)
        self.kwonly = tuple(a.arg for a in args.kwonlyargs)
        self.vararg = args.vararg.arg if args.vararg else None
        self.kwarg = args.kwarg.arg if args.kwarg else None
        #: positional parameters only: that many arguments bind by ``zip``
        self.plain = not (self.kwonly or self.vararg or self.kwarg)

    def compile(self) -> Body:
        source = self._source
        if isinstance(source, ast.expr):
            self.expr = _compile_expr(source)
            self.body = ()
        else:
            self.body = _compile_body(source)
        self._source = ()  # the closures are all that is needed from here on
        return self.body


@lru_cache(maxsize=None)
def _module_code(dotted: str) -> _Code:
    """The parsed (and, lazily, compiled) source of an interpreted
    package module, kept for the life of the process."""
    spec = importlib.util.find_spec(dotted)
    if spec is None or spec.origin is None:
        raise AnalysisError(f"cannot locate source for module {dotted!r}")
    with open(spec.origin, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=spec.origin)
    return _Code(tree.body)


@lru_cache(maxsize=8)
def _source_code(source: str) -> _Code:
    """The same for an in-memory source: the ranks of one analysis share
    one parse and one compiled form; only the last few sources are kept."""
    return _Code(ast.parse(source).body)


def _bind_params(interp: "Interp", code: _Code, func: FuncVal,
                 args: Tuple[Any, ...],
                 kwargs: Dict[str, Any]) -> Dict[str, Any]:
    names = code.names
    bound: Dict[str, Any] = dict(zip(names, args))
    if code.vararg is not None:
        bound[code.vararg] = tuple(map(interp.uniform, args[len(names):]))
    kw_extra: Dict[str, Any] = {}
    for key, value in kwargs.items():
        if key in names or key in code.kwonly:
            bound[key] = value
        else:
            kw_extra[key] = value
    if code.kwarg is not None:
        bound[code.kwarg] = {key: interp.uniform(value)
                             for key, value in kw_extra.items()}
    # positional defaults align to the tail of ``names``
    for name, value in zip(names[len(names) - len(func.pos_defaults):],
                           func.pos_defaults):
        bound.setdefault(name, value)
    for name, value in func.kw_defaults.items():
        bound.setdefault(name, value)
    for name in names + code.kwonly:
        bound.setdefault(name, UNKNOWN)
    return bound


class Interp:
    """One abstract interpretation pass: one rank, or a class of ranks.

    The pass runs every rank in ``active`` through the same nodes.  Where
    a condition parts them true and false it forks (:meth:`fork`): both
    arms run, each for its own ranks, and re-join.  Where it cannot — an
    arm the AST refuses, a fork abandoned, a rank-dependent loop count —
    it narrows (:meth:`narrow`) to the ranks agreeing with the lowest one
    and lets the others go (``split``) to be run again from the top.

    The budget is each rank's: every rank is charged the ops it would be
    charged alone.  Ranks that ran different arms differ by what the arms
    cost (``spent``), and the counter stands for the rank charged most,
    so it runs out where that rank's own would; the ranks charged less
    are then let go to passes of their own."""

    def __init__(self, budget: Optional[Budget] = None,
                 extra_sources: Optional[Dict[str, str]] = None) -> None:
        self.budget = budget or Budget()
        self.uncertain_depth = 0
        #: the line of the node entered last (:class:`Ranked` after a
        #: fork that ended on different lines, until the next node)
        self.current_line: Any = None
        self.call_depth = 0
        self._modules: Dict[str, Any] = {}
        self._extra_sources = dict(extra_sources or {})
        #: ranks by position, positions still run, classes let go
        self.ranks: Tuple[int, ...] = (0,)
        self.active: Tuple[int, ...] = (0,)
        self.split: List[Tuple[int, ...]] = []
        self.mpi: Optional[MpiProxy] = None
        #: per position, the ops charged since the program started up to
        #: the counter reading ``_mark``; ``_base`` is the reading then
        self.spent: List[int] = []
        self._start = self._base = self._mark = self.budget.ops
        #: ops the counter was handed back when it moved to another rank
        self.rebated = 0
        #: forks joined: until the first, every active rank is charged alike
        self.joined = 0
        #: one entry per fork whose arms are running: the iterators made
        #: inside it (an arm may use those up; any older one abandons it)
        self.fresh: List[Dict[int, Any]] = []

    # ---------------------------------------------------- rank classes --
    # Every rank of a pass enters the same nodes, but for the arms of a
    # fork.  Per-rank values are computed rank by rank (``lift``) where
    # that cannot change which nodes run; elsewhere the pass forks or
    # narrows.

    def narrow(self, outcomes: List[Any]) -> Any:
        """Part the active ranks by ``outcomes[position]``; keep the part
        holding the lowest rank and return its outcome."""
        first = outcomes[self.active[0]]
        parts: List[Tuple[Any, List[int]]] = [(first, [])]
        for p in self.active:
            for seen, part in parts:
                if _same(seen, outcomes[p]):
                    part.append(p)
                    break
            else:
                parts.append((outcomes[p], [p]))
        if self.joined and len(parts) > 1:
            self._sync()
            self.active = tuple(parts[0][1])
            self._rebase()
        else:
            self.active = tuple(parts[0][1])
        for _outcome, part in parts[1:]:
            self.split.append(tuple([self.ranks[p] for p in part]))
        return first

    def uniform(self, value: Any) -> Any:
        """``value`` as one value all the ranks kept agree on."""
        return self.narrow(value.values) if type(value) is Ranked else value

    def truth(self, value: Ranked) -> Optional[bool]:
        """The truth of a condition, which every rank kept agrees on."""
        return self.narrow(self.lift_raw(_truth, (value,)))

    def lift_raw(self, fn: Callable[..., Any], args: Sequence[Any],
                 own: bool = False) -> List[Any]:
        """``fn`` rank by rank; ranks it raises for part ways with the rest.
        Ranks whose arguments are the very same objects share one call
        and its outcome, as the ranks of a class share every value —
        unless each must ``own`` what it gets (a container it may change)."""
        out: List[Any] = [None] * len(self.ranks)
        errors: Optional[List[Any]] = None
        columns = [(index, arg.values) for index, arg in enumerate(args)
                   if type(arg) is Ranked]
        call = list(args)
        index = 0
        column: Optional[List[Any]] = None
        if len(columns) == 1:
            index, column = columns[0]
        first: Dict[Any, int] = {}
        for p in self.active:
            if column is not None:
                key: Any = id(column[p])
                call[index] = column[p]
            else:
                key = ()
                for at, values in columns:
                    key += (id(values[p]),)
                    call[at] = values[p]
            if not own:
                q = first.setdefault(key, p)
                if q != p:
                    out[p] = out[q]
                    if errors is not None:
                        errors[p] = errors[q]
                    continue
            try:
                out[p] = fn(*call)
            except Exception as exc:
                if errors is None:
                    errors = [None] * len(self.ranks)
                errors[p] = exc
        if errors is not None and self.narrow([None if e is None else (
                type(e), str(e)) for e in errors]) is not None:
            raise errors[self.active[0]]
        return out

    def collapse(self, out: List[Any], owned: bool = False) -> Any:
        """One value when every active rank holds the same one."""
        first = out[self.active[0]]
        for p in self.active:
            if out[p] is not first and not _same(first, out[p]):
                return Ranked(out, owned)
        return first

    def lift(self, fn: Callable[..., Any], args: Sequence[Any],
             owned: bool = False) -> Any:
        return self.collapse(self.lift_raw(fn, args, owned), owned)

    def items(self, value: Ranked) -> Optional[List[Any]]:
        """A per-rank iterable's items, as many for every rank kept."""
        per_rank = Ranked(self.lift_raw(_iter_items, (value,)))
        length = self.narrow([None if items is None else len(items)
                              for items in per_rank.values])
        if length is None:
            return None
        return [self.lift(operator.getitem, (per_rank, index))
                for index in range(length)]

    # ----------------------------------------------------------- forks --
    def branch(self, value: Ranked, env: Env, plan: "_ForkPlan",
               arms: Tuple[Callable[[], Any], Callable[[], Any]],
               first: bool = True) -> Tuple[bool, Any]:
        """A condition whose truth differs by rank: ``(True, result)``
        when the ranks for which it is ``first`` ran ``arms[0]``, the
        others ``arms[1]``, and they re-joined (:meth:`fork`); else
        ``(False, truth)`` for the ranks :meth:`narrow` kept — when a
        rank's truth is unknown, or the fork refused or was abandoned."""
        values = value.values
        truths: List[Any] = [None] * len(values)
        ones: List[int] = []
        twos: List[int] = []
        known = True
        for p in self.active:
            truth = values[p]
            if truth is not True and truth is not False:
                truth = _truth(truth)
            truths[p] = truth
            if truth is first:
                ones.append(p)
            elif truth is None:
                known = False
            else:
                twos.append(p)
        if known and ones and twos:
            out = self.fork(env, plan, (tuple(ones), tuple(twos)), arms)
            if out is not _NARROW:
                return True, out
        return False, self.narrow(truths)

    def fork(self, env: Env, plan: "_ForkPlan",
             parts: Tuple[Tuple[int, ...], Tuple[int, ...]],
             arms: Tuple[Callable[[], Any], Callable[[], Any]]) -> Any:
        """Run ``arms[k]`` in this pass for the ranks at ``parts[k]``,
        then re-join: each name the arms assign (``plan``) becomes one
        value per rank, and so do the arms' results, which are returned.
        Returns ``_NARROW`` — and leaves nothing it did behind — when it
        refuses (a name bound outside this scope, or unbound here and not
        assigned by both arms) or when an arm raises or changes something
        in place (:class:`_Abandon`); the caller then narrows."""
        names, partial = plan
        scope = env.vars
        for name in partial:
            if name not in scope:
                return _NARROW
        if (env.global_names or env.nonlocal_names) and not (
                env.global_names | env.nonlocal_names).isdisjoint(names):
            return _NARROW
        before = [scope.get(name, _UNBOUND) for name in names]
        mpi = self.mpi
        assert mpi is not None
        budget = self.budget
        spent = self.spent
        self._sync()
        saved = (self.active, len(self.split), len(mpi.events), budget.ops,
                 spent[:], self.rebated, self.current_line)
        kept: List[Tuple[int, ...]] = []
        results: List[Any] = []
        lines: List[Any] = []
        states: List[List[Any]] = []
        self.fresh.append({})
        try:
            for positions, run in zip(parts, arms):
                if kept and names:
                    _rebind(env, names, before)
                self.active = positions
                self._rebase()
                results.append(run())
                lines.append(self.current_line)
                used = self._mark - budget.ops  # what the arm charged
                for p in self.active:
                    spent[p] += used
                kept.append(self.active)
                if names:
                    scope = env.vars
                    states.append([scope.get(name, _UNBOUND)
                                   for name in names])
            for index in range(len(names)):
                if (states[0][index] is _UNBOUND) is not (
                        states[1][index] is _UNBOUND):
                    raise _Abandon()  # bound after one arm only
        except BudgetExceeded:
            # the arm's ranks charged most ran out where they would alone;
            # running it again would cost the budget twice: the fork's
            # other ranks are let go instead, and the error goes on
            self.fresh.pop()
            rest = tuple([self.ranks[p] for p in saved[0]
                          if p not in positions])
            if rest:
                self.split.append(rest)
            raise
        except (Exception, _Abandon):
            self.fresh.pop()
            self._undo(env, names, before, saved)
            return _NARROW
        made = self.fresh.pop()
        if self.fresh and made:  # new to the fork around this one too
            self.fresh[-1].update(made)
        self.active = tuple(sorted(kept[0] + kept[1]))
        scope = env.vars
        for index, name in enumerate(names):  # O(names), not the scope
            value = self._joined(states[0][index], states[1][index], kept)
            if value is _UNBOUND:
                scope.pop(name, None)
            else:
                scope[name] = value
        # an event later in the same expression carries, rank by rank,
        # the line its own arm ended on
        self.current_line = self._joined(lines[0], lines[1], kept)
        self.joined += 1
        self._rebase()
        return self._joined(results[0], results[1], kept)

    def _joined(self, one: Any, two: Any,
                parts: List[Tuple[int, ...]]) -> Any:
        """One value per rank from each arm's value for its own ranks."""
        if type(one) is not Ranked and (one is two or (
                type(one) is int and type(two) is int and one == two)):
            return one
        out: List[Any] = [None] * len(self.ranks)
        owned = True  # only if no two ranks can share a container
        for value, part in zip((one, two), parts):
            if type(value) is Ranked:
                owned = owned and value.owned
                for p in part:
                    out[p] = value.values[p]
            else:
                owned = False
                for p in part:
                    out[p] = value
        return self.collapse(out, owned)

    def _undo(self, env: Env, names: Tuple[str, ...], before: List[Any],
              saved: Tuple[Any, ...]) -> None:
        assert self.mpi is not None
        (self.active, splits, events, self.budget.ops, self.spent,
         self.rebated, self.current_line) = saved
        self._mark = self.budget.ops
        del self.split[splits:]
        del self.mpi.events[events:]
        _rebind(env, names, before)

    def _sync(self) -> None:
        """Charge the active ranks what the counter ran since ``_mark``."""
        used = self._mark - self.budget.ops
        if used:
            spent = self.spent
            for p in self.active:
                spent[p] += used
            self._mark = self.budget.ops

    def _rebase(self) -> None:
        """Point the counter at the active rank charged most (after a
        ``_sync``): the first rank to run out is the first it sees."""
        ops = self._base - max(map(self.spent.__getitem__, self.active))
        self.rebated += ops - self.budget.ops
        self.budget.ops = self._mark = ops

    def uses_up(self, value: Any) -> None:
        """Inside a fork's arm: abandon it if iterating ``value`` uses up
        an iterator made before the fork."""
        fresh = self.fresh[-1]
        for one in (value.values if type(value) is Ranked else (value,)):
            if type(one) not in _PLAIN and isinstance(one, Iterator) \
                    and id(one) not in fresh:
                raise _Abandon()

    def _check_call(self, func: Any, args: Tuple[Any, ...],
                    kwargs: Dict[str, Any]) -> None:
        """Inside a fork's arm: abandon it before a real call that may
        change, in place, something made before the fork."""
        owner = getattr(func, "__self__", None)
        if isinstance(owner, _CONTAINERS) and getattr(
                func, "__name__", "") in _IN_PLACE or "out" in kwargs:
            raise _Abandon()
        values = (owner,) + args + tuple(kwargs.values())
        for value in values:
            self.uses_up(value)
        if type(func) in (FunctionType, MethodType) and any(
                isinstance(value, _CONTAINERS) for value in values):
            raise _Abandon()  # Python code may write into what it is given

    def finished(self, mpi: MpiProxy
                 ) -> Tuple[Tuple[Tuple[int, int], ...], List[Any]]:
        """The (position, rank) of each rank this pass ran to its end,
        and the pass's event stream: an event all of them recorded, or a
        :class:`Ranked` of one per position (None for the ranks outside
        an arm)."""
        if mpi._interp is not self:  # stopped before the program ran
            return tuple(enumerate(mpi.ranks)), []
        return tuple((p, self.ranks[p]) for p in self.active), mpi.events

    # ---------------------------------------------------------- modules --
    def import_module(self, dotted: str) -> Any:
        if dotted in self._modules:
            return self._modules[dotted]
        if self.fresh:  # an arm would charge the import to its ranks alone
            raise _Abandon()
        if dotted == "numpy":
            value: Any = NumpyVal()
        elif dotted in self._extra_sources:
            value = self._interpret_module(
                dotted, _source_code(self._extra_sources[dotted]))
        elif dotted.startswith(_INTERP_PREFIX) \
                and dotted not in _REAL_IMPORT_OK:
            value = self._interpret_module(dotted, _module_code(dotted))
        elif dotted in _REAL_IMPORT_OK or dotted.startswith("repro."):
            try:
                value = importlib.import_module(dotted)
            except Exception as exc:
                raise AnalysisError(f"cannot import {dotted!r}: {exc}") from exc
        else:
            value = UNKNOWN
        self._modules[dotted] = value
        return value

    def _interpret_module(self, dotted: str, code: _Code) -> ModuleProxy:
        env = Env()
        proxy = ModuleProxy(dotted, env)
        self._modules[dotted] = proxy  # pre-bind against import cycles
        for stmt in code.compile() if code.body is None else code.body:
            stmt(self, env)
        return proxy

    def load_program(self, dotted: str, factory: str) -> Any:
        module = self.import_module(dotted)
        if not isinstance(module, ModuleProxy):
            raise AnalysisError(f"module {dotted!r} is not interpretable")
        try:
            return module.env.lookup(factory)
        except KeyError:
            raise AnalysisError(
                f"factory {factory!r} not found in {dotted!r}") from None

    # ------------------------------------------------------------ driver --
    def run_program(self, program: Any, mpi: MpiProxy) -> Any:
        """Call ``program(mpi)`` — the kernel generator — to completion."""
        mpi._interp = self
        self.mpi = mpi
        self.ranks = mpi.ranks
        self.active = tuple(range(len(mpi.ranks)))
        self.spent = [0] * len(mpi.ranks)
        self._base = self._mark = self.budget.ops
        try:
            return self.call_value(program, (mpi,), {})
        except RaiseSignal as sig:
            raise AnalysisError(
                f"kernel raised on the interpreted path: {sig.detail}"
                + (f" (line {sig.line})" if sig.line else "")) from None
        except BudgetExceeded:
            if self.budget.ops < 0:  # not a loop's cap, which is every rank's
                self._let_go_unspent()
            raise

    def _let_go_unspent(self) -> None:
        """The counter ran out for the ranks charged most; the others
        still have ops left and are let go to passes of their own."""
        self._sync()
        most = max(map(self.spent.__getitem__, self.active))
        rest = tuple([self.ranks[p] for p in self.active
                      if self.spent[p] < most])
        if rest:
            self.active = tuple([p for p in self.active
                                 if self.spent[p] == most])
            self.split.append(rest)

    # ------------------------------------------------------------- calls --
    def call_value(self, func: Any, args: Tuple[Any, ...],
                   kwargs: Dict[str, Any]) -> Any:
        budget = self.budget
        budget.ops -= 1
        if budget.ops < 0:
            raise BudgetExceeded(_BUDGET_BLOWN)
        kind = type(func)
        if kind is NpFunc:
            return self._call_numpy(func.name, args, kwargs)
        if kind is MethodType and type(func.__self__) is MpiProxy:
            return func(*args, **kwargs)
        if kind is not FuncVal:
            return self._call_other(func, args, kwargs)
        # an interpreted function, in this frame: a recursive kernel must
        # reach the depth guard before Python's own recursion limit
        if self.call_depth > 150:
            raise AnalysisError(f"call depth exceeded in {func.name!r}")
        code = func.code
        env = Env(func.env)
        if code.plain and not kwargs and len(args) == len(code.names):
            env.vars = dict(zip(code.names, args))
        else:
            env.vars = _bind_params(self, code, func, args, kwargs)
        self.call_depth += 1
        try:
            body = code.body
            if body is None:
                body = code.compile()
            if code.expr is not None:
                return code.expr(self, env)
            try:
                for stmt in body:
                    stmt(self, env)
            except ReturnSignal as ret:
                return ret.value
            return None
        finally:
            self.call_depth -= 1

    def _call_other(self, func: Any, args: Tuple[Any, ...],
                    kwargs: Dict[str, Any]) -> Any:
        """Call anything but an interpreted function."""
        if func is UNKNOWN or isinstance(func, UnknownIter):
            return UNKNOWN
        if isinstance(func, DtypeVal):
            if args and is_concrete(args[0]):
                try:
                    return np.dtype(func.name).type(args[0])
                except Exception:
                    return UNKNOWN
            return UNKNOWN
        if isinstance(func, NpFunc):
            return self._call_numpy(func.name, args, kwargs)
        if isinstance(func, (_BoundArray, _BoundRng)) or isinstance(
                getattr(func, "__self__", None), MpiProxy):
            return func(*args, **kwargs)
        if callable(func):
            return self._call_real(func, args, kwargs)
        return UNKNOWN

    def _call_slot(self, func: Any, kwargs: Dict[str, Any],
                   *args: Any) -> Any:
        return self._call_other(func, args, kwargs)

    def call_ranked(self, func: Any, args: Tuple[Any, ...],
                    kwargs: Dict[str, Any]) -> Any:
        """:meth:`call_value` with per-rank callee or arguments: pure code
        runs rank by rank, the rest (or what reads an iterator) once."""
        values = args + tuple(kwargs.values())
        shared = False
        for value in values:
            for item in (value.values if type(value) is Ranked else (value,)):
                if type(item) not in _PLAIN and isinstance(item, Iterator):
                    shared = True
        if type(func) is Ranked:
            for p in self.active:
                if shared or not _pure(func.values[p], kwargs):
                    func = self.uniform(func)
                    break
        if type(func) is not Ranked:
            if type(func) is FuncVal or Ranked not in map(type, values) or (
                    type(func) is MethodType
                    and type(func.__self__) is MpiProxy):
                return self.call_value(func, args, kwargs)
        kwargs = {key: self.uniform(arg) for key, arg in kwargs.items()}
        if type(func) is not Ranked and (shared or not _pure(func, kwargs)):
            # e.g. ``shared.append(rank)``: one container, one value
            return self.call_value(
                func, tuple([self.uniform(arg) for arg in args]), kwargs)
        budget = self.budget
        budget.ops -= 1
        if budget.ops < 0:
            raise BudgetExceeded(_BUDGET_BLOWN)
        return self.lift(self._call_slot, (func, kwargs) + args,
                         owned=type(func) is not Ranked
                         and func in (list, dict, set, sorted))

    def _call_real(self, func: Callable[..., Any], args: Tuple[Any, ...],
                   kwargs: Dict[str, Any]) -> Any:
        # structure-preserving mutators on real containers may store
        # abstract values (the container stays tracked, values opaque)
        if self.fresh:
            self._check_call(func, args, kwargs)
        name = getattr(func, "__name__", "")
        bound_self = getattr(func, "__self__", None)
        if (isinstance(bound_self, (list, dict, set, bytearray))
                and name in _MUTATORS):
            try:
                return func(*args, **kwargs)
            except Exception:
                return UNKNOWN
        if func is len:
            return self._builtin_len(args[0]) if args else UNKNOWN
        if func in (int, float, bool, complex, str) and args:
            if not is_concrete(args[0]):
                return UNKNOWN
        if _all_concrete(args) and (
                not kwargs or _all_concrete(kwargs.values())):
            try:
                result = func(*args, **kwargs)
            except Exception:
                return UNKNOWN
            if self.fresh and isinstance(result, Iterator):
                self.fresh[-1][id(result)] = result  # kept: ids stay unique
            return result
        if func in (list, tuple, sorted, set, dict, min, max, sum, abs,
                    range, zip, enumerate, reversed, map, filter):
            return UNKNOWN if func not in (zip, enumerate, map, filter) \
                else UnknownIter()
        if func is print:
            return None
        return UNKNOWN

    def _builtin_len(self, value: Any) -> Any:
        if isinstance(value, AbstractArray):
            if value.shape is not None and value.shape:
                return value.shape[0]
            return UNKNOWN
        if value is UNKNOWN or isinstance(value, UnknownIter):
            return UNKNOWN
        try:
            return len(value)
        except Exception:
            return UNKNOWN

    # ------------------------------------------------------------- numpy --
    def _call_numpy(self, name: str, args: Tuple[Any, ...],
                    kwargs: Dict[str, Any]) -> Any:
        if self.fresh and (name in _NP_MUTATING or "out" in kwargs):
            raise _Abandon()
        if _all_concrete(args) and (not kwargs or _all_concrete(
                [v for k, v in kwargs.items() if k != "dtype"])):
            target = _numpy_target(name)
            if target is None:
                return UNKNOWN
            if target is RngVal:
                return RngVal()
            if isinstance(kwargs.get("dtype"), DtypeVal):
                kwargs = dict(kwargs, dtype=kwargs["dtype"].name)
            try:
                return target(*args, **kwargs)
            except Exception:
                return UNKNOWN
        return self._numpy_abstract(name, args, kwargs)

    def _numpy_abstract(self, name: str, args: Tuple[Any, ...],
                        kwargs: Dict[str, Any]) -> Any:
        leaf = name.rsplit(".", 1)[-1]
        dtype_kw = kwargs.get("dtype")
        dtype_name = _dtype_name(
            dtype_kw.name if isinstance(dtype_kw, DtypeVal) else dtype_kw
        ) if dtype_kw is not None else None
        first = args[0] if args else None

        shape_of = _nested_shape

        def dt_of(value: Any) -> str:
            if isinstance(value, AbstractArray):
                return value.dtype
            if isinstance(value, np.ndarray):
                return str(value.dtype)
            return "float64"

        if leaf in ("zeros", "ones", "empty", "full"):
            shape = _as_shape(first)
            return AbstractArray(shape, dtype_name or "float64")
        if leaf in ("zeros_like", "empty_like", "ones_like", "full_like",
                    "array", "asarray", "ascontiguousarray"):
            return AbstractArray(shape_of(first), dtype_name or dt_of(first))
        if leaf == "arange":
            return AbstractArray(None, dtype_name or "int64")
        if leaf in ("sqrt", "exp", "log", "log2", "log10", "abs", "absolute",
                    "sin", "cos", "conj", "conjugate", "floor", "ceil",
                    "clip", "maximum", "minimum", "isfinite", "isnan",
                    "real", "imag", "sign", "square", "tanh"):
            shape = shape_of(first)
            if leaf in ("maximum", "minimum") and len(args) > 1:
                shape = _broadcast(shape, shape_of(args[1]))
            dt = "bool" if leaf in ("isfinite", "isnan") else dt_of(first)
            if leaf == "abs" and dt.startswith("complex"):
                dt = "float64"
            if shape == ():
                return UNKNOWN
            return AbstractArray(shape, dt) if shape is not None else UNKNOWN
        if leaf in ("sum", "mean", "max", "min", "prod", "std", "var",
                    "vdot", "trace", "linalg.norm", "norm", "argmax",
                    "argmin", "count_nonzero"):
            axis = kwargs.get("axis", args[1] if len(args) > 1 else None)
            shape = shape_of(first)
            if axis is None or shape is None:
                return UNKNOWN
            ax = _as_int(axis)
            if ax is None or not (-len(shape) <= ax < len(shape)):
                return UNKNOWN
            reduced = tuple(d for i, d in enumerate(shape)
                            if i != ax % len(shape))
            return AbstractArray(reduced, dt_of(first))
        if leaf in ("dot", "matmul"):
            return _matmul_shape(shape_of(first),
                                 shape_of(args[1]) if len(args) > 1 else None,
                                 _promote(dt_of(first),
                                          dt_of(args[1]) if len(args) > 1
                                          else "float64"))
        if leaf == "fft":
            return AbstractArray(shape_of(first), "complex128")
        if leaf == "concatenate":
            return _concat_shape(first, kwargs.get("axis", 0))
        if leaf in ("reshape", "broadcast_to"):
            shape = _as_shape(args[1]) if len(args) > 1 else None
            return AbstractArray(shape, dt_of(first))
        if leaf in ("take", "sort", "cumsum", "argsort", "ravel", "copy"):
            if leaf == "take":
                idx_shape = shape_of(args[1]) if len(args) > 1 else None
                return AbstractArray(idx_shape, dt_of(first))
            return AbstractArray(shape_of(first), dt_of(first))
        if leaf == "bincount":
            return AbstractArray(None, "int64")
        if leaf == "where":
            if len(args) == 1:
                return UNKNOWN
            shape = _broadcast(shape_of(args[1]) if len(args) > 1 else None,
                               shape_of(args[2]) if len(args) > 2 else None)
            return AbstractArray(shape, "float64")
        if leaf == "at":  # np.add.at — in-place scatter
            return None
        if leaf == "default_rng":
            return RngVal()
        return UNKNOWN


    # ------------------------------------------------- uncertain control --
    def _both_branches(self, body: Body, orelse: Body, env: Env) -> None:
        before = env.snapshot()
        self.uncertain_depth += 1
        try:
            escape_body = self._run_branch(body, env)
            after_body = env.snapshot()
            _restore(before)
            escape_else = self._run_branch(orelse, env)
            after_else = env.snapshot()
            _join_states(self, after_body, after_else)
        finally:
            self.uncertain_depth -= 1
        if escape_body is not None and type(escape_body) is type(escape_else):
            # both arms leave the block the same way; propagate the escape
            if isinstance(escape_body, ReturnSignal):
                raise ReturnSignal(UNKNOWN)
            raise escape_body

    def _run_branch(self, body: Body, env: Env) -> Optional[_Signal]:
        """Run one uncertain arm, swallowing escapes; return the signal."""
        try:
            for stmt in body:
                stmt(self, env)
            return None
        except (BreakSignal, ContinueSignal, ReturnSignal, RaiseSignal) as sig:
            return sig

    def _unknown_loop(self, body: Body, env: Env, havoc: Sequence[str],
                      store: Optional[Store] = None) -> None:
        """Loop we can't bound: one uncertain pass, then havoc every name
        the body assigns (``havoc``) and the loop target (``store``)."""
        self.uncertain_depth += 1
        try:
            if store is not None:
                store(self, env, UNKNOWN)
            self._run_branch(body, env)
        finally:
            self.uncertain_depth -= 1
        for name in havoc:
            env.assign(name, UNKNOWN)
        if store is not None:
            store(self, env, UNKNOWN)

    def _run_comp(self, gens: Sequence["_CompFor"], index: int, env: Env,
                  emit: Callable[["Interp", Env], None]) -> bool:
        """Expand one comprehension level; False means the collected items
        are untrustworthy (unknown iterable or unknown filter) and the
        whole comprehension value must degrade to UNKNOWN."""
        if index >= len(gens):
            emit(self, env)
            return True
        iterable, store, conds = gens[index]
        value = iterable(self, env)
        if self.fresh:
            self.uses_up(value)
        items = self.items(value) if type(value) is Ranked \
            else _iter_items(value)
        scope = Env(env)
        if items is None:
            self.uncertain_depth += 1
            try:
                store(self, scope, UNKNOWN)
                for cond in conds:
                    value = cond(self, scope)
                    if (self.truth(value) if type(value) is Ranked
                            else _truth(value)) is False:
                        break
                else:
                    self._run_comp(gens, index + 1, scope, emit)
            finally:
                self.uncertain_depth -= 1
            return False
        sound = True
        for item in items:
            store(self, scope, item)
            keep = True
            unknown_filter = False
            for cond in conds:
                value = cond(self, scope)
                truth = self.truth(value) if type(value) is Ranked \
                    else _truth(value)
                if truth is False:
                    keep = False
                    break
                if truth is None:
                    unknown_filter = True
            if not keep:
                continue
            if unknown_filter:
                # the item *may* be included: record its effects under
                # uncertainty and poison the comprehension value
                sound = False
                self.uncertain_depth += 1
                try:
                    self._run_comp(gens, index + 1, scope, emit)
                finally:
                    self.uncertain_depth -= 1
            elif not self._run_comp(gens, index + 1, scope, emit):
                sound = False
        return sound


#: one ``for target in iter if cond...`` clause of a comprehension
_CompFor = Tuple[Expr, Store, Sequence[Expr]]


# ----------------------------------------------------------- value side ---
# What the closures bottom out in; the common cases are tested first.

def _truth(value: Any) -> Optional[bool]:
    if value is True or value is False:
        return value
    if value is UNKNOWN or isinstance(
            value, (AbstractArray, UnknownIter, RngVal)):
        return None
    if isinstance(value, _WRAPPERS) or isinstance(value, MpiProxy):
        return True
    try:
        return bool(value)
    except Exception:
        return None


def _set_of(values: List[Any]) -> Any:
    for value in values:
        if not is_concrete(value):
            return UNKNOWN
    try:
        return set(values)
    except TypeError:
        return UNKNOWN


_DISPLAYS: Dict[type, Callable[[List[Any]], Any]] = {
    ast.Tuple: tuple, ast.List: list, ast.Set: _set_of}


# ------------------------------------------------------- per-rank side ---

def _built(build: Callable[[List[Any]], Any], *items: Any) -> Any:
    return build(list(items))


#: builtins, builtin methods and numpy functions known not to write into
#: an argument or their object
_PURE_BUILTINS = frozenset({
    len, abs, divmod, min, max, sum, round, pow, sorted, isinstance, repr,
    any, all, iter, int, float, bool, complex, str, list, tuple, dict, set,
    frozenset, range, zip, enumerate, reversed, map, filter, type})
_PURE_METHODS = frozenset("copy astype reshape sum max min tolist item ravel "
                          "transpose get keys values items index count".split())
_NP_MUTATING = frozenset("add.at copyto put place putmask fill_diagonal "
                         "random.shuffle random.seed".split())


def _pure(func: Any, kwargs: Dict[str, Any]) -> bool:
    """Whether ``func`` runs no interpreted code and writes no argument."""
    kind = type(func)
    if "out" in kwargs or kind is FuncVal:
        return False
    if kind is NpFunc:
        return func.name not in _NP_MUTATING
    if kind is BuiltinFunctionType and func.__self__ is not builtins:
        owner = func.__self__  # math, or a builtin method
        return owner is math or func.__name__ in _PURE_METHODS \
            or isinstance(owner, (str, bytes, int, float, tuple))
    return kind in (DtypeVal, _BoundArray, _BoundRng, UnknownIter, _Unknown) \
        or (kind in (BuiltinFunctionType, type) and func in _PURE_BUILTINS)


def _unary(fn: Callable[[Any], Any], value: Any) -> Any:
    if fn is operator.not_:
        truth = _truth(value)
        return UNKNOWN if truth is None else (not truth)
    if isinstance(value, _WRAPPERS):
        # the sign of an abstract array is that array, shape-wise
        if isinstance(value, AbstractArray) and fn is not operator.invert:
            return value
        return UNKNOWN
    try:
        return fn(value)
    except Exception:
        return UNKNOWN


def _compared(fn: Callable[[Any, Any], Any], left: Any, right: Any) -> Any:
    """One link of a comparison chain: UNKNOWN, False or True."""
    one = _compare(fn, left, right)
    return UNKNOWN if one is UNKNOWN else one is not False


def _slice(*values: Any) -> Any:
    limits = [None if value is None else _as_int(value) for value in values]
    for value, limit in zip(values, limits):
        if value is not None and limit is None:
            return UNKNOWN
    return slice(*limits)


def _unpacked(value: Any, count: int, index: int) -> Any:
    ok = isinstance(value, (tuple, list)) and len(value) == count
    return value[index] if ok else UNKNOWN


def _store_item(obj: Any, key: Any, value: Any,
                rebinds: bool) -> Optional[AbstractArray]:
    plain = isinstance(obj, (dict, list))
    array = isinstance(obj, np.ndarray)
    if is_concrete(key) and (plain or (array and is_concrete(value))):
        try:
            obj[key] = value
        except Exception:
            pass
    elif rebinds and array:
        # abstract store into a real array: the contents are no longer
        # trustworthy — degrade the *name* binding to an AbstractArray
        return AbstractArray(tuple(obj.shape), str(obj.dtype))
    # AbstractArray / UNKNOWN stores: shape unaffected, drop
    return None


_UNARYOPS: Dict[type, Callable[[Any], Any]] = {
    ast.Not: operator.not_, ast.USub: operator.neg,
    ast.UAdd: operator.pos, ast.Invert: operator.invert}

_BINOPS: Dict[type, Callable[[Any, Any], Any]] = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod,
    ast.Pow: operator.pow,
    ast.LShift: operator.lshift,
    ast.RShift: operator.rshift,
    ast.BitOr: operator.or_,
    ast.BitAnd: operator.and_,
    ast.BitXor: operator.xor,
    ast.MatMult: operator.matmul,
}


def _binop(fn: Callable[[Any, Any], Any], left: Any, right: Any) -> Any:
    if isinstance(left, AbstractArray) or isinstance(right, AbstractArray):
        return _array_binop(fn, left, right)
    if not is_concrete(left) or not is_concrete(right):
        return UNKNOWN
    try:
        return fn(left, right)
    except Exception:
        return UNKNOWN


def _array_binop(fn: Callable[[Any, Any], Any], left: Any,
                 right: Any) -> Any:
    def shape_dt(value: Any) -> Tuple[Shape, str]:
        if isinstance(value, AbstractArray):
            return value.shape, value.dtype
        if isinstance(value, np.ndarray):
            return tuple(value.shape), str(value.dtype)
        if isinstance(value, (bool, np.bool_)):
            return (), "bool"
        if isinstance(value, (int, np.integer)):
            return (), "int64"
        if isinstance(value, (float, np.floating)):
            return (), "float64"
        if isinstance(value, complex):
            return (), "complex128"
        return None, "float64"

    ls, ld = shape_dt(left)
    rs, rd = shape_dt(right)
    if fn is operator.matmul:
        return _matmul_shape(ls, rs, _promote(ld, rd))
    shape = _broadcast(ls, rs)
    dtype = _promote(ld, rd)
    if fn is operator.truediv:
        dtype = _promote(dtype, "float64")
    if shape == ():
        return UNKNOWN
    return AbstractArray(shape, dtype) if shape is not None else \
        AbstractArray(None, dtype)


_CMPOPS: Dict[type, Callable[[Any, Any], Any]] = {
    ast.Eq: operator.eq,
    ast.NotEq: operator.ne,
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
    ast.In: lambda a, b: a in b,
    ast.NotIn: lambda a, b: a not in b,
    ast.Is: operator.is_,
    ast.IsNot: operator.is_not,
}


def _compare(fn: Callable[[Any, Any], Any], left: Any, right: Any) -> Any:
    if isinstance(left, AbstractArray) or isinstance(right, AbstractArray):
        return UNKNOWN
    if fn is operator.is_ or fn is operator.is_not:
        if left is UNKNOWN or right is UNKNOWN:
            return UNKNOWN
        return fn(left, right)
    if not is_concrete(left) or not is_concrete(right):
        return UNKNOWN
    try:
        return bool(fn(left, right))
    except Exception:
        return UNKNOWN


def _attr(obj: Any, name: str) -> Any:
    if isinstance(obj, MpiProxy):
        if name in _MPI_METHODS or name in ("rank", "size"):
            return getattr(obj, name)
        return UNKNOWN
    if isinstance(obj, NumpyVal):
        return obj.attr(name)
    if obj is UNKNOWN or isinstance(obj, (UnknownIter, FuncVal)):
        return UNKNOWN
    if isinstance(obj, ModuleProxy):
        try:
            return obj.env.lookup(name)
        except KeyError:
            return UNKNOWN
    if isinstance(obj, RngVal):
        return _BoundRng(obj, name)
    if isinstance(obj, AbstractArray):
        return _array_attr(obj, name)
    try:
        return getattr(obj, name)
    except Exception:
        return UNKNOWN


def _array_attr(arr: AbstractArray, name: str) -> Any:
    if name == "shape":
        return arr.shape if arr.shape is not None else UNKNOWN
    if name == "ndim":
        return arr.ndim if arr.ndim is not None else UNKNOWN
    if name == "size":
        return arr.size if arr.size is not None else UNKNOWN
    if name == "nbytes":
        return arr.nbytes if arr.nbytes is not None else UNKNOWN
    if name == "dtype":
        return DtypeVal(arr.dtype)
    if name == "T":
        shape = None if arr.shape is None else tuple(reversed(arr.shape))
        return AbstractArray(shape, arr.dtype)
    if name in ("real", "imag"):
        dt = "float64" if arr.dtype.startswith("complex") else arr.dtype
        return AbstractArray(arr.shape, dt)
    return _BoundArray(arr, name)


def _getitem(obj: Any, key: Any) -> Any:
    if obj is UNKNOWN or isinstance(obj, UnknownIter):
        return UNKNOWN
    if isinstance(obj, AbstractArray):
        return _array_getitem(obj, key)
    if is_concrete(key):
        try:
            return obj[key]
        except Exception:
            return UNKNOWN
    if isinstance(obj, np.ndarray):
        return AbstractArray(None, str(obj.dtype))
    return UNKNOWN


def _iter_items(iterable: Any) -> Optional[List[Any]]:
    if isinstance(iterable, (list, tuple, range, str, bytes)):
        return list(iterable)
    if iterable is UNKNOWN or isinstance(iterable, UnknownIter):
        return None
    if isinstance(iterable, AbstractArray):
        # iterating an array of known shape yields shape[0] abstract rows
        if iterable.shape and 0 < iterable.shape[0] <= 4096:
            row = AbstractArray(iterable.shape[1:], iterable.dtype)
            return [row] * iterable.shape[0]
        return None
    if isinstance(iterable, (set, frozenset)):
        try:
            return sorted(iterable)
        except TypeError:
            return sorted(iterable, key=repr)
    if isinstance(iterable, dict):
        return list(iterable)
    if isinstance(iterable, np.ndarray):
        return list(iterable)
    if isinstance(iterable, Iterator):
        out: List[Any] = []
        try:
            for item in iterable:
                out.append(item)
                if len(out) > 100_000:
                    return None
        except Exception:
            return None
        return out
    try:
        return list(iterable)
    except Exception:
        return None


# ------------------------------------------------------- compile: stores ---

def _compile_store(target: ast.expr) -> Store:
    """Assignment to ``target``, classified once: Name, Tuple/List,
    Subscript; attribute stores on tracked objects are dropped.  Only the
    sub-expressions of a subscript target charge ops."""
    if isinstance(target, ast.Name):
        name = target.id

        def store_name(interp: Interp, env: Env, value: Any) -> None:
            env.assign(name, value)
        return store_name
    if isinstance(target, (ast.Tuple, ast.List)):
        return _compile_unpack(target)
    if isinstance(target, ast.Subscript):
        return _compile_store_subscript(target)
    if isinstance(target, ast.Starred):
        inner = _compile_store(target.value)

        def store_starred(interp: Interp, env: Env, value: Any) -> None:
            inner(interp, env, UNKNOWN)
        return store_starred

    def store_nothing(interp: Interp, env: Env, value: Any) -> None:
        return None
    return store_nothing


def _compile_unpack(target: Union[ast.Tuple, ast.List]) -> Store:
    starred = any(isinstance(e, ast.Starred) for e in target.elts)
    stores = [_compile_store(e) for e in target.elts]

    def store_unpack(interp: Interp, env: Env, value: Any) -> None:
        # a starred element stores UNKNOWN through its own closure
        if type(value) is Ranked and not starred:
            for index, store in enumerate(stores):
                store(interp, env, interp.lift(
                    _unpacked, (value, len(stores), index)))
        elif not starred and isinstance(value, (tuple, list)) \
                and len(value) == len(stores):
            for store, item in zip(stores, list(value)):
                store(interp, env, item)
        else:
            for store in stores:
                store(interp, env, UNKNOWN)
    return store_unpack


def _compile_load_target(target: ast.expr) -> Expr:
    """An assignment target's current value; UNKNOWN on an analysis error."""
    load = _compile_expr(target)

    def run(interp: Interp, env: Env) -> Any:
        try:
            return load(interp, env)
        except AnalysisError:
            return UNKNOWN
    return run


def _compile_store_subscript(target: ast.Subscript) -> Store:
    container = _compile_load_target(target.value)
    index = _compile_expr(target.slice)
    owner = target.value.id if isinstance(target.value, ast.Name) else None

    def store_subscript(interp: Interp, env: Env, value: Any) -> None:
        obj = container(interp, env)
        key = index(interp, env)
        if type(obj) is Ranked and not obj.owned:
            obj = interp.uniform(obj)  # ranks may share what they mutate
        if type(obj) is Ranked:
            # a container each rank built for itself: store rank by rank
            interp.lift_raw(_store_item, (obj, key, value, False), own=True)
            return
        if isinstance(obj, (dict, list, np.ndarray)):
            if interp.fresh:  # the other arms of a fork would see it
                raise _Abandon()
            # one container the ranks share: one key, one value
            if type(key) is Ranked:
                key = interp.uniform(key)
            if type(value) is Ranked:
                value = interp.uniform(value)
        replacement = _store_item(obj, key, value, owner is not None)
        if replacement is not None and owner is not None:
            env.assign(owner, replacement)
    return store_subscript


# --------------------------------------------------- compile: statements ---
# Entering a node charges one op and then records its line, in that
# order, so a budget runs out at the same program point whatever compiled
# the node.  The dozen kinds kernels spend 95 % of their ops on do that
# themselves; the others hand a bare closure to ``_metered``: one more
# frame on a node that is rarely entered.

def _metered(node: Union[ast.stmt, ast.expr], body: Expr) -> Expr:
    line = node.lineno

    def run(interp: Interp, env: Env) -> Any:
        budget = interp.budget
        budget.ops -= 1
        if budget.ops < 0:
            raise BudgetExceeded(_BUDGET_BLOWN)
        interp.current_line = line
        return body(interp, env)
    return run


def _compile_stmt(node: ast.stmt) -> Stmt:
    return _STMT_MAKERS.get(type(node), _s_unsupported)(node)


def _compile_body(stmts: Sequence[ast.stmt]) -> Body:
    return tuple([_compile_stmt(stmt) for stmt in stmts])


def _s_unsupported(node: ast.stmt) -> Stmt:
    """Unsupported statements (class defs, match...), rare in kernels: the
    names they bind read UNKNOWN.  Also ``pass``, ``del``, a bare annotation."""
    names = [] if isinstance(node, ast.AnnAssign) else _assigned_names(node)

    def run(interp: Interp, env: Env) -> None:
        for name in names:
            env.assign(name, UNKNOWN)
    return _metered(node, run)


def _s_evaluate(node: Union[ast.Expr, ast.Assert]) -> Stmt:
    """An expression statement, or the test of an ``assert``."""
    line = node.lineno
    value = _compile_expr(
        node.test if isinstance(node, ast.Assert) else node.value)

    def run(interp: Interp, env: Env) -> None:
        budget = interp.budget
        budget.ops -= 1
        if budget.ops < 0:
            raise BudgetExceeded(_BUDGET_BLOWN)
        interp.current_line = line
        value(interp, env)
    return run


def _s_signal(node: Union[ast.Break, ast.Continue]) -> Stmt:
    signal = BreakSignal if isinstance(node, ast.Break) else ContinueSignal

    def run(interp: Interp, env: Env) -> None:
        raise signal()
    return _metered(node, run)


def _s_Return(node: ast.Return) -> Stmt:
    line = node.lineno
    value = _compile_expr(node.value) if node.value else None

    def run(interp: Interp, env: Env) -> None:
        budget = interp.budget
        budget.ops -= 1
        if budget.ops < 0:
            raise BudgetExceeded(_BUDGET_BLOWN)
        interp.current_line = line
        raise ReturnSignal(value(interp, env) if value else None)
    return run


def _s_scope(node: Union[ast.Global, ast.Nonlocal]) -> Stmt:
    declared = frozenset(node.names)
    which = "global_names" if isinstance(node, ast.Global) \
        else "nonlocal_names"

    def run(interp: Interp, env: Env) -> None:
        if interp.fresh:  # its stores would reach past what a fork joins
            raise _Abandon()
        setattr(env, which, getattr(env, which) | declared)
    return _metered(node, run)


def _s_Import(node: ast.Import) -> Stmt:
    # ``import a.b`` binds ``a``; our modules are leaf-grained, so the
    # root name is bound (to UNKNOWN) only if absent
    aliases = [(alias.name, alias.asname or alias.name.split(".")[0],
                alias.asname is None and "." in alias.name)
               for alias in node.names]

    def run(interp: Interp, env: Env) -> None:
        for dotted, name, root_only in aliases:
            value = interp.import_module(dotted)
            if not root_only:
                env.assign(name, value)
            elif not env.has(name):
                env.assign(name, UNKNOWN)
    return _metered(node, run)


def _s_ImportFrom(node: ast.ImportFrom) -> Stmt:
    dotted = node.module or (_INTERP_PREFIX if node.level else "")
    aliases = [(alias.asname or alias.name, alias.name)
               for alias in node.names]

    def run(interp: Interp, env: Env) -> None:
        module = interp.import_module(dotted)
        for name, attr in aliases:
            env.assign(name, _attr(module, attr))
    return _metered(node, run)


def _s_FunctionDef(node: ast.FunctionDef) -> Stmt:
    name = node.name
    function = _e_function(node)  # charges the statement's op

    def run(interp: Interp, env: Env) -> None:
        env.assign(name, function(interp, env))
    return run


def _s_Assign(node: Union[ast.Assign, ast.AnnAssign]) -> Stmt:
    if node.value is None:
        return _s_unsupported(node)
    line = node.lineno
    value = _compile_expr(node.value)
    targets: Sequence[ast.expr] = node.targets if isinstance(
        node, ast.Assign) else [node.target]
    stores = [_compile_store(target) for target in targets]
    # the common shape, a single plain name, is stored without a call
    first = targets[0]
    name = first.id if len(targets) == 1 and isinstance(
        first, ast.Name) else None

    def run(interp: Interp, env: Env) -> None:
        budget = interp.budget
        budget.ops -= 1
        if budget.ops < 0:
            raise BudgetExceeded(_BUDGET_BLOWN)
        interp.current_line = line
        result = value(interp, env)
        if name is None or name in env.global_names \
                or name in env.nonlocal_names:
            for store in stores:
                store(interp, env, result)
        else:
            env.vars[name] = result
    return run


def _s_AugAssign(node: ast.AugAssign) -> Stmt:
    current = _compile_load_target(node.target)
    value = _compile_expr(node.value)
    fn = _BINOPS[type(node.op)]
    store = _compile_store(node.target)

    def run(interp: Interp, env: Env) -> None:
        left = current(interp, env)
        right = value(interp, env)
        if type(left) is Ranked or type(right) is Ranked:
            store(interp, env, interp.lift(_binop, (fn, left, right)))
        else:
            store(interp, env, _binop(fn, left, right))
    return _metered(node, run)


#: statements no arm of a fork may hold: they leave the block, bind
#: names the join does not see, or import (charged to the arm's ranks)
_ARM_REFUSED = (ast.Return, ast.Break, ast.Continue, ast.Raise, ast.Global,
                ast.Nonlocal, ast.Import, ast.ImportFrom, ast.Try, ast.With,
                ast.ClassDef, ast.Delete)

#: (the names either arm may assign, those of them not both arms do)
_ForkPlan = Tuple[Tuple[str, ...], Tuple[str, ...]]


def _plain_target(target: ast.expr) -> bool:
    if isinstance(target, (ast.Tuple, ast.List)):
        return all(map(_plain_target, target.elts))
    if isinstance(target, ast.Starred):
        return _plain_target(target.value)
    return isinstance(target, ast.Name)


def _arm_names(nodes: Sequence[ast.AST]) -> Optional[Tuple[str, ...]]:
    """The names an arm of a fork assigns, or None when its AST refuses:
    it may leave the block, store into something other than a name, or
    call an in-place method (nested ``def``s and lambdas are not looked
    into; what they do is checked when they run)."""
    todo = list(nodes)
    while todo:
        node = todo.pop()
        if isinstance(node, _ARM_REFUSED):
            return None
        targets: Sequence[ast.expr] = ()
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute) and node.func.attr in _IN_PLACE:
            return None
        if not all(map(_plain_target, targets)):
            return None
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return _block_assigned_names(nodes)


def _fork_plan(first: Sequence[ast.AST],
               second: Sequence[ast.AST]) -> Optional[_ForkPlan]:
    """What a fork of these two arms joins; None if either refuses."""
    one, two = _arm_names(first), _arm_names(second)
    if one is None or two is None:
        return None
    names = tuple(dict.fromkeys(one + two))
    return names, tuple([name for name in names
                         if name not in one or name not in two])


def _run_body(interp: Interp, env: Env, body: Body) -> None:
    for stmt in body:
        stmt(interp, env)


def _s_If(node: ast.If) -> Stmt:
    line = node.lineno
    test = _compile_expr(node.test)
    body = _compile_body(node.body)
    orelse = _compile_body(node.orelse)
    plan = _fork_plan(node.body, node.orelse)

    def run(interp: Interp, env: Env) -> None:
        budget = interp.budget
        budget.ops -= 1
        if budget.ops < 0:
            raise BudgetExceeded(_BUDGET_BLOWN)
        interp.current_line = line
        value = test(interp, env)
        if type(value) is not Ranked:
            cond = _truth(value)
        elif plan is None:
            cond = interp.truth(value)
        else:
            joined, cond = interp.branch(value, env, plan, (
                lambda: _run_body(interp, env, body),
                lambda: _run_body(interp, env, orelse)))
            if joined:
                return
        if cond is None:
            interp._both_branches(body, orelse, env)
        else:
            for stmt in body if cond else orelse:
                stmt(interp, env)
    return run


def _s_While(node: ast.While) -> Stmt:
    test = _compile_expr(node.test)
    body = _compile_body(node.body)
    orelse = _compile_body(node.orelse)
    havoc = _block_assigned_names(node.body)

    def run(interp: Interp, env: Env) -> None:
        for _ in range(1_000_000):
            value = test(interp, env)
            cond = interp.truth(value) if type(value) is Ranked \
                else _truth(value)
            if cond is False:
                break
            if cond is None:
                interp._unknown_loop(body, env, havoc)
                return
            try:
                for stmt in body:
                    stmt(interp, env)
            except BreakSignal:
                return
            except ContinueSignal:
                continue
        else:
            raise BudgetExceeded("concrete while-loop exceeded iteration cap")
        for stmt in orelse:
            stmt(interp, env)
    return _metered(node, run)


def _s_For(node: ast.For) -> Stmt:
    iterable = _compile_expr(node.iter)
    store = _compile_store(node.target)
    body = _compile_body(node.body)
    orelse = _compile_body(node.orelse)
    havoc = _block_assigned_names(node.body)

    def run(interp: Interp, env: Env) -> None:
        value = iterable(interp, env)
        if interp.fresh:
            interp.uses_up(value)
        items = interp.items(value) if type(value) is Ranked \
            else _iter_items(value)
        if items is None:
            interp._unknown_loop(body, env, havoc, store)
            return
        for item in items:
            store(interp, env, item)
            try:
                for stmt in body:
                    stmt(interp, env)
            except BreakSignal:
                return
            except ContinueSignal:
                continue
        for stmt in orelse:
            stmt(interp, env)
    return _metered(node, run)


def _s_Raise(node: ast.Raise) -> Stmt:
    def run(interp: Interp, env: Env) -> None:
        raise RaiseSignal(
            "raise" if node.exc is None else ast.unparse(node.exc),
            node.lineno)
    return _metered(node, run)


def _s_Try(node: ast.Try) -> Stmt:
    body = _compile_body(node.body)
    # whatever was raised, the first handler takes it
    handler = node.handlers[0] if node.handlers else None
    handling = _compile_body(handler.body) if handler else None
    orelse = _compile_body(node.orelse)
    final = _compile_body(node.finalbody)

    def run(interp: Interp, env: Env) -> None:
        try:
            try:
                for stmt in body:
                    stmt(interp, env)
            except RaiseSignal:
                if handler is None or handling is None:
                    raise
                if handler.name:
                    env.assign(handler.name, UNKNOWN)
                for stmt in handling:
                    stmt(interp, env)
            else:
                for stmt in orelse:
                    stmt(interp, env)
        finally:
            for stmt in final:
                stmt(interp, env)
    return _metered(node, run)


def _s_With(node: ast.With) -> Stmt:
    items = [(_compile_expr(item.context_expr),
              _compile_store(item.optional_vars)
              if item.optional_vars is not None else None)
             for item in node.items]
    body = _compile_body(node.body)

    def run(interp: Interp, env: Env) -> None:
        for context, store in items:
            value = context(interp, env)
            if store is not None:
                store(interp, env, value)
        for stmt in body:
            stmt(interp, env)
    return _metered(node, run)


_STMT_MAKERS: Dict[type, Callable[[Any], Stmt]] = {
    ast.Expr: _s_evaluate,
    ast.Assert: _s_evaluate,
    ast.Pass: _s_unsupported,
    ast.Delete: _s_unsupported,
    ast.Break: _s_signal,
    ast.Continue: _s_signal,
    ast.Return: _s_Return,
    ast.Global: _s_scope,
    ast.Nonlocal: _s_scope,
    ast.Import: _s_Import,
    ast.ImportFrom: _s_ImportFrom,
    ast.FunctionDef: _s_FunctionDef,
    ast.Assign: _s_Assign,
    ast.AnnAssign: _s_Assign,
    ast.AugAssign: _s_AugAssign,
    ast.If: _s_If,
    ast.While: _s_While,
    ast.For: _s_For,
    ast.Raise: _s_Raise,
    ast.Try: _s_Try,
    ast.With: _s_With,
}


# -------------------------------------------------- compile: expressions ---

def _compile_expr(node: ast.expr) -> Expr:
    return _EXPR_MAKERS.get(type(node), _e_unknown)(node)


def _compile_exprs(nodes: Sequence[ast.expr]) -> List[Expr]:
    return [_compile_expr(node) for node in nodes]


def _e_unknown(node: ast.expr) -> Expr:
    """``yield`` (its value, if any, evaluated) and every unsupported
    expression: UNKNOWN."""
    child = node.value if isinstance(node, ast.Yield) else None
    value = _compile_expr(child) if child is not None else None

    def run(interp: Interp, env: Env) -> Any:
        if value is not None:
            value(interp, env)
        return UNKNOWN
    return _metered(node, run)


def _e_Constant(node: ast.Constant) -> Expr:
    line = node.lineno
    value = node.value

    def run(interp: Interp, env: Env) -> Any:
        budget = interp.budget
        budget.ops -= 1
        if budget.ops < 0:
            raise BudgetExceeded(_BUDGET_BLOWN)
        interp.current_line = line
        return value
    return run


def _e_Name(node: ast.Name) -> Expr:
    line = node.lineno
    name = node.id
    # what an unbound name reads as depends on the name alone
    unbound = getattr(builtins, name, UNKNOWN)

    def run(interp: Interp, env: Env) -> Any:
        budget = interp.budget
        budget.ops -= 1
        if budget.ops < 0:
            raise BudgetExceeded(_BUDGET_BLOWN)
        interp.current_line = line
        scope: Optional[Env] = env
        while scope is not None:
            if name in scope.vars:
                return scope.vars[name]
            scope = scope.parent
        return unbound
    return run


def _e_display(node: Union[ast.Tuple, ast.List, ast.Set]) -> Expr:
    elts = _compile_exprs(node.elts)
    build = _DISPLAYS[type(node)]

    def run(interp: Interp, env: Env) -> Any:
        out: List[Any] = []
        for elt in elts:
            out.append(elt(interp, env))
        if Ranked in map(type, out):  # one container per rank
            return interp.lift(_built, (build, *out), owned=True)
        return build(out)
    return _metered(node, run)


def _e_Dict(node: ast.Dict) -> Expr:
    # a None key is a ``**mapping`` entry
    pairs = [(None if k is None else _compile_expr(k), _compile_expr(v))
             for k, v in zip(node.keys, node.values)]

    def run(interp: Interp, env: Env) -> Any:
        out: Dict[Any, Any] = {}
        for key_fn, value_fn in pairs:
            value = value_fn(interp, env)
            if key_fn is None:
                if type(value) is Ranked:
                    value = interp.uniform(value)
                if isinstance(value, dict):
                    out.update(value)
                continue
            key = interp.uniform(key_fn(interp, env))
            value = interp.uniform(value)
            if not is_concrete(key):
                return UNKNOWN
            try:
                out[key] = value
            except TypeError:
                return UNKNOWN
        return out
    return _metered(node, run)


def _e_JoinedStr(node: ast.JoinedStr) -> Expr:
    # literal parts as text, formatted parts as the closure of their value
    # (format specs and conversions are ignored)
    parts: List[Union[str, Expr]] = []
    for part in node.values:
        if isinstance(part, ast.Constant):
            parts.append(str(part.value))
        elif isinstance(part, ast.FormattedValue):
            parts.append(_compile_expr(part.value))

    def run(interp: Interp, env: Env) -> Any:
        out: List[str] = []
        for part in parts:
            if not isinstance(part, str):
                value = interp.uniform(part(interp, env))
                part = str(value) if is_concrete(value) else "<?>"
            out.append(part)
        return "".join(out)
    return _metered(node, run)


def _e_function(node: Union[ast.Lambda, ast.FunctionDef]) -> Expr:
    """The :class:`FuncVal` of a ``lambda`` or ``def``: defaults are
    evaluated where it is defined, the body compiled on its first call."""
    name = "<lambda>" if isinstance(node, ast.Lambda) else node.name
    args = node.args
    code = _Code(node.body, args)
    defaults = _compile_exprs(args.defaults)
    kw_defaults = [(arg.arg, _compile_expr(default))
                   for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                   if default is not None]

    def run(interp: Interp, env: Env) -> Any:
        pos = [default(interp, env) for default in defaults]
        kw = {key: default(interp, env) for key, default in kw_defaults}
        return FuncVal(name, code, env, tuple(pos), kw)
    return _metered(node, run)


def _e_NamedExpr(node: ast.NamedExpr) -> Expr:
    value = _compile_expr(node.value)
    store = _compile_store(node.target)

    def run(interp: Interp, env: Env) -> Any:
        result = value(interp, env)
        store(interp, env, result)
        return result
    return _metered(node, run)


def _e_passthrough(node: Union[ast.Starred, ast.YieldFrom]) -> Expr:
    """``*value``, and ``yield from mpi.op(...)`` (the event is recorded)."""
    line = node.lineno
    value = _compile_expr(node.value)

    def run(interp: Interp, env: Env) -> Any:
        budget = interp.budget
        budget.ops -= 1
        if budget.ops < 0:
            raise BudgetExceeded(_BUDGET_BLOWN)
        interp.current_line = line
        return value(interp, env)
    return run


def _e_IfExp(node: ast.IfExp) -> Expr:
    test = _compile_expr(node.test)
    body = _compile_expr(node.body)
    orelse = _compile_expr(node.orelse)
    plan = _fork_plan([node.body], [node.orelse])

    def run(interp: Interp, env: Env) -> Any:
        value = test(interp, env)
        if type(value) is not Ranked:
            cond = _truth(value)
        elif plan is None:
            cond = interp.truth(value)
        else:
            joined, cond = interp.branch(value, env, plan, (
                lambda: body(interp, env), lambda: orelse(interp, env)))
            if joined:
                return cond  # the arms' values, joined
        if cond is True:
            return body(interp, env)
        if cond is False:
            return orelse(interp, env)
        a = interp.uniform(body(interp, env))
        b = interp.uniform(orelse(interp, env))
        return a if _defs_equal(a, b) else UNKNOWN
    return _metered(node, run)


def _e_BoolOp(node: ast.BoolOp) -> Expr:
    operands = _compile_exprs(node.values)
    # ``and`` stops at the first false operand, ``or`` at the first true
    stop = isinstance(node.op, ast.Or)
    # the ranks an operand stops run no more; the others run the rest
    plan = _fork_plan([], node.values[1:])
    last = len(operands) - 1

    def rest(interp: Interp, env: Env, first: int = 0) -> Any:
        value: Any = None
        for index in range(first, last + 1):
            value = operands[index](interp, env)
            if type(value) is not Ranked:
                truth = _truth(value)
            elif plan is None:
                truth = interp.truth(value)
            else:
                stopped = value
                # past the last operand the arms have nothing left to run:
                # every rank's value is its result
                joined, truth = interp.branch(value, env, plan, (
                    lambda: stopped,
                    (lambda: stopped) if index == last
                    else lambda: rest(interp, env, index + 1)), stop)
                if joined:
                    return truth  # the arms' values, joined
            if truth is None:
                return UNKNOWN
            if truth is stop:
                return value
        return value
    return _metered(node, rest)


def _e_UnaryOp(node: ast.UnaryOp) -> Expr:
    operand = _compile_expr(node.operand)
    fn = _UNARYOPS[type(node.op)]

    def run(interp: Interp, env: Env) -> Any:
        value = operand(interp, env)
        if type(value) is Ranked:
            return interp.lift(_unary, (fn, value))
        return _unary(fn, value)
    return _metered(node, run)


def _e_BinOp(node: ast.BinOp) -> Expr:
    line = node.lineno
    left = _compile_expr(node.left)
    right = _compile_expr(node.right)
    fn = _BINOPS[type(node.op)]

    def run(interp: Interp, env: Env) -> Any:
        budget = interp.budget
        budget.ops -= 1
        if budget.ops < 0:
            raise BudgetExceeded(_BUDGET_BLOWN)
        interp.current_line = line
        a = left(interp, env)
        b = right(interp, env)
        if type(a) in _PLAIN and type(b) in _PLAIN:
            try:
                return fn(a, b)
            except Exception:
                return UNKNOWN
        if type(a) is Ranked or type(b) is Ranked:
            return interp.lift(_binop, (fn, a, b))
        return _binop(fn, a, b)
    return run


def _e_Compare(node: ast.Compare) -> Expr:
    first = _compile_expr(node.left)
    rest = [(_CMPOPS[type(op)], _compile_expr(comparator))
            for op, comparator in zip(node.ops, node.comparators)]

    def run(interp: Interp, env: Env) -> Any:
        left = first(interp, env)
        for link, (fn, comparator) in enumerate(rest, 1 - len(rest)):
            right = comparator(interp, env)
            if type(left) is Ranked or type(right) is Ranked:
                one = interp.lift(_compared, (fn, left, right))
                if type(one) is Ranked and link == 0:  # the last link
                    return one
                one = interp.uniform(one)  # does the chain go on
            else:
                one = _compare(fn, left, right)
            if one is UNKNOWN:
                return UNKNOWN
            if one is False:
                return False
            left = right
        return True
    return _metered(node, run)


def _e_Call(node: ast.Call) -> Expr:
    line = node.lineno
    func = _compile_expr(node.func)
    # (closure of the value, is it ``*value``)
    positional = [
        (_compile_expr(arg.value), True) if isinstance(arg, ast.Starred)
        else (_compile_expr(arg), False) for arg in node.args]
    # (keyword or None for ``**value``, closure of the value)
    keywords = [(kw.arg, _compile_expr(kw.value)) for kw in node.keywords]

    def run(interp: Interp, env: Env) -> Any:
        budget = interp.budget
        budget.ops -= 1
        if budget.ops < 0:
            raise BudgetExceeded(_BUDGET_BLOWN)
        interp.current_line = line
        callee = func(interp, env)
        ranked = type(callee) is Ranked
        args: List[Any] = []
        for arg, starred in positional:
            value = arg(interp, env)
            if not starred:
                ranked = ranked or type(value) is Ranked
                args.append(value)
            # how many arguments there are must not differ by rank
            elif isinstance(value := interp.uniform(value), (list, tuple)):
                args.extend(value)
            else:
                args.append(UNKNOWN)
        kwargs: Dict[str, Any] = {}
        for key, arg in keywords:
            value = arg(interp, env)
            if key is not None:
                ranked = ranked or type(value) is Ranked
                kwargs[key] = value
            elif isinstance(value := interp.uniform(value), dict):
                kwargs.update(
                    {k: v for k, v in value.items() if isinstance(k, str)})
        if ranked:
            return interp.call_ranked(callee, tuple(args), kwargs)
        return interp.call_value(callee, tuple(args), kwargs)
    return run


def _e_Attribute(node: ast.Attribute) -> Expr:
    line = node.lineno
    value = _compile_expr(node.value)
    name = node.attr

    def run(interp: Interp, env: Env) -> Any:
        budget = interp.budget
        budget.ops -= 1
        if budget.ops < 0:
            raise BudgetExceeded(_BUDGET_BLOWN)
        interp.current_line = line
        obj = value(interp, env)
        if type(obj) is Ranked:
            return interp.lift(_attr, (obj, name))
        return _attr(obj, name)
    return run


def _e_Subscript(node: ast.Subscript) -> Expr:
    line = node.lineno
    value = _compile_expr(node.value)
    index = _compile_expr(node.slice)

    def run(interp: Interp, env: Env) -> Any:
        budget = interp.budget
        budget.ops -= 1
        if budget.ops < 0:
            raise BudgetExceeded(_BUDGET_BLOWN)
        interp.current_line = line
        obj = value(interp, env)
        key = index(interp, env)
        if type(obj) is Ranked or type(key) is Ranked:
            return interp.lift(_getitem, (obj, key))
        return _getitem(obj, key)
    return run


def _e_Slice(node: ast.Slice) -> Expr:
    bounds = [_compile_expr(part) if part else None
              for part in (node.lower, node.upper, node.step)]

    def run(interp: Interp, env: Env) -> Any:
        values = [bound(interp, env) if bound else None for bound in bounds]
        if Ranked in map(type, values):
            return interp.lift(_slice, values)
        return _slice(*values)
    return _metered(node, run)


def _compile_comp(generators: Sequence[ast.comprehension]) -> List[_CompFor]:
    return [(_compile_expr(gen.iter), _compile_store(gen.target),
             _compile_exprs(gen.ifs)) for gen in generators]


def _e_collecting_comp(
        node: Union[ast.ListComp, ast.SetComp, ast.GeneratorExp]) -> Expr:
    """List and set comprehensions, and generator expressions (a list: a
    generator interpreted here has already run)."""
    gens = _compile_comp(node.generators)
    elt = _compile_expr(node.elt)
    as_set = isinstance(node, ast.SetComp)

    def run(interp: Interp, env: Env) -> Any:
        out: List[Any] = []

        def emit(interp: Interp, scope: Env) -> None:
            out.append(elt(interp, scope))

        if not interp._run_comp(gens, 0, env, emit):
            return UNKNOWN
        if Ranked in map(type, out):  # one collection per rank
            return interp.lift(
                _built, (_set_of if as_set else list, *out), owned=True)
        return _set_of(out) if as_set else out
    return _metered(node, run)


def _e_DictComp(node: ast.DictComp) -> Expr:
    gens = _compile_comp(node.generators)
    key_fn = _compile_expr(node.key)
    value_fn = _compile_expr(node.value)

    def run(interp: Interp, env: Env) -> Any:
        out: Dict[Any, Any] = {}

        def emit(interp: Interp, scope: Env) -> None:
            key = interp.uniform(key_fn(interp, scope))
            if is_concrete(key):
                try:
                    out[key] = interp.uniform(value_fn(interp, scope))
                except TypeError:
                    pass

        return out if interp._run_comp(gens, 0, env, emit) else UNKNOWN
    return _metered(node, run)


_EXPR_MAKERS: Dict[type, Callable[[Any], Expr]] = {
    ast.Constant: _e_Constant,
    ast.Name: _e_Name,
    ast.Tuple: _e_display,
    ast.List: _e_display,
    ast.Set: _e_display,
    ast.Dict: _e_Dict,
    ast.JoinedStr: _e_JoinedStr,
    ast.Lambda: _e_function,
    ast.NamedExpr: _e_NamedExpr,
    ast.Starred: _e_passthrough,
    ast.YieldFrom: _e_passthrough,
    ast.Yield: _e_unknown,
    ast.IfExp: _e_IfExp,
    ast.BoolOp: _e_BoolOp,
    ast.UnaryOp: _e_UnaryOp,
    ast.BinOp: _e_BinOp,
    ast.Compare: _e_Compare,
    ast.Call: _e_Call,
    ast.Attribute: _e_Attribute,
    ast.Subscript: _e_Subscript,
    ast.Slice: _e_Slice,
    ast.ListComp: _e_collecting_comp,
    ast.SetComp: _e_collecting_comp,
    ast.GeneratorExp: _e_collecting_comp,
    ast.DictComp: _e_DictComp,
}



class _BoundRng:
    """Late-bound rng method so ``rng.random`` can be passed around."""

    __slots__ = ("rng", "__name__", "__self__")

    def __init__(self, rng: RngVal, name: str) -> None:
        self.rng = rng
        self.__name__ = name
        self.__self__ = rng

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self.rng.call(self.__name__, args, kwargs)


class _BoundArray:
    """A method reference on an AbstractArray."""

    __slots__ = ("arr", "name")

    def __init__(self, arr: AbstractArray, name: str) -> None:
        self.arr = arr
        self.name = name

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return _array_method(self.arr, self.name, args, kwargs)


def _array_method(arr: AbstractArray, name: str, args: Tuple[Any, ...],
                  kwargs: Dict[str, Any]) -> Any:
    if name in ("copy", "astype", "ascontiguousarray", "conj", "round"):
        dtype = arr.dtype
        if name == "astype" and args:
            d = args[0]
            dtype = _dtype_name(d.name if isinstance(d, DtypeVal) else d)
        return AbstractArray(arr.shape, dtype)
    if name in ("ravel", "flatten"):
        size = arr.size
        return AbstractArray(None if size is None else (size,), arr.dtype)
    if name == "reshape":
        shape_arg: Any = args[0] if len(args) == 1 else args
        new_shape = _reshape(arr.size, shape_arg)
        return AbstractArray(new_shape, arr.dtype)
    if name == "transpose":
        if arr.shape is None:
            return AbstractArray(None, arr.dtype)
        if not args:
            return AbstractArray(tuple(reversed(arr.shape)), arr.dtype)
        order = args[0] if len(args) == 1 and isinstance(
            args[0], (tuple, list)) else args
        try:
            return AbstractArray(
                tuple(arr.shape[int(i)] for i in order), arr.dtype)
        except Exception:
            return AbstractArray(None, arr.dtype)
    if name in ("sum", "mean", "max", "min", "prod", "std", "var", "dot",
                "argmax", "argmin", "all", "any", "item", "tolist"):
        if name == "dot" and args:
            other = args[0]
            other_shape = other.shape if isinstance(other, AbstractArray) \
                else (tuple(other.shape) if isinstance(other, np.ndarray)
                      else None)
            return _matmul_shape(arr.shape, other_shape, arr.dtype)
        axis = kwargs.get("axis", args[0] if args else None)
        ax = _as_int(axis)
        if ax is not None and arr.shape is not None and \
                -len(arr.shape) <= ax < len(arr.shape):
            reduced = tuple(d for i, d in enumerate(arr.shape)
                            if i != ax % len(arr.shape))
            return AbstractArray(reduced, arr.dtype)
        return UNKNOWN
    if name in ("sort", "fill", "partition"):
        return None
    if name == "take":
        idx = args[0] if args else None
        idx_shape = _as_shape(idx) if not isinstance(idx, AbstractArray) \
            else idx.shape
        if isinstance(idx, (int, np.integer)):
            return UNKNOWN
        return AbstractArray(idx_shape, arr.dtype)
    return UNKNOWN


def _reshape(size: Optional[int], shape_arg: Any) -> Shape:
    if isinstance(shape_arg, (int, np.integer)):
        shape_arg = (int(shape_arg),)
    if not isinstance(shape_arg, (tuple, list)):
        return None
    dims: List[int] = []
    neg = 0
    for d in shape_arg:
        di = _as_int(d)
        if di is None:
            return None
        dims.append(di)
        if di == -1:
            neg += 1
    if neg == 0:
        return tuple(dims)
    if neg > 1 or size is None:
        return None
    known = 1
    for d in dims:
        if d != -1:
            known *= d
    if known == 0 or size % known:
        return None
    return tuple(size // known if d == -1 else d for d in dims)


def _matmul_shape(ls: Shape, rs: Shape, dtype: str) -> Any:
    if ls is None or rs is None:
        return AbstractArray(None, dtype)
    if len(ls) == 1 and len(rs) == 1:
        return UNKNOWN  # inner product: unknown scalar
    if len(ls) == 2 and len(rs) == 1:
        return AbstractArray((ls[0],), dtype)
    if len(ls) == 1 and len(rs) == 2:
        return AbstractArray((rs[1],), dtype)
    if len(ls) == 2 and len(rs) == 2:
        return AbstractArray((ls[0], rs[1]), dtype)
    return AbstractArray(None, dtype)


def _concat_shape(seq: Any, axis: Any) -> Any:
    if not isinstance(seq, (list, tuple)) or not seq:
        return AbstractArray(None, "float64")
    shapes: List[Shape] = []
    dtype = "float64"
    for item in seq:
        if isinstance(item, AbstractArray):
            shapes.append(item.shape)
            dtype = _promote(dtype, item.dtype)
        elif isinstance(item, np.ndarray):
            shapes.append(tuple(item.shape))
            dtype = _promote(dtype, str(item.dtype))
        else:
            return AbstractArray(None, dtype)
    ax = _as_int(axis) or 0
    if any(s is None for s in shapes):
        return AbstractArray(None, dtype)
    first = shapes[0]
    assert first is not None
    if any(s is not None and len(s) != len(first) for s in shapes):
        return AbstractArray(None, dtype)
    total = 0
    for s in shapes:
        assert s is not None
        if not (-len(first) <= ax < len(first)):
            return AbstractArray(None, dtype)
        total += s[ax % len(first)]
    out = list(first)
    out[ax % len(first)] = total
    return AbstractArray(tuple(out), dtype)


def _array_getitem(arr: AbstractArray, key: Any) -> Any:
    if arr.shape is None:
        return AbstractArray(None, arr.dtype)
    index = key if isinstance(key, tuple) else (key,)
    if any(k is Ellipsis for k in index):
        return AbstractArray(None, arr.dtype)
    out: List[int] = []
    dim = 0
    ndim = len(arr.shape)
    for k in index:
        if k is None:
            out.append(1)
            continue
        if dim >= ndim:
            return AbstractArray(None, arr.dtype)
        if isinstance(k, slice):
            try:
                out.append(len(range(*k.indices(arr.shape[dim]))))
            except Exception:
                return AbstractArray(None, arr.dtype)
            dim += 1
            continue
        if _as_int(k) is not None:
            dim += 1  # integer index drops the dimension
            continue
        return AbstractArray(None, arr.dtype)  # mask / fancy / unknown
    out.extend(arr.shape[dim:])
    if not out and not any(isinstance(k, slice) or k is None for k in index):
        return UNKNOWN  # fully-indexed scalar: value unknown
    return AbstractArray(tuple(out), arr.dtype)


def _assigned_names(stmt: ast.stmt) -> List[str]:
    """Names an unsupported statement binds: its target, its own name."""
    target = getattr(stmt, "target", None)
    out = _target_names(target) if isinstance(target, ast.expr) else []
    name = getattr(stmt, "name", None)
    return out + [name] if isinstance(name, str) else out


def _target_names(target: ast.expr) -> List[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: List[str] = []
        for elt in target.elts:
            out.extend(_target_names(elt))
        return out
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []


def _block_assigned_names(body: Sequence[ast.AST]) -> Tuple[str, ...]:
    """Names (re)bound anywhere in a block (statements, or the
    expressions of a fork's arm), for loop havoc and fork joins."""
    names: Dict[str, None] = {}

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.FunctionDef):
            names[node.name] = None
            return  # don't descend into nested scopes
        if isinstance(node, ast.Lambda):
            return
        targets: Sequence[ast.expr] = ()
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For,
                               ast.NamedExpr)):
            targets = [node.target]
        for target in targets:
            names.update(dict.fromkeys(_target_names(target)))
        for child in ast.iter_child_nodes(node):
            visit(child)

    for stmt in body:
        visit(stmt)
    return tuple(names)
