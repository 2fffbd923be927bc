"""The interpreter corpus: kernel sources that pin what
:mod:`repro.analysis.interp` computes, node kind by node kind.

Two halves.  ``HAND`` holds hand-written kernels, at least one for every
statement and expression kind, every ``MpiProxy`` method and every arm
of the uncertain-branch machinery.  ``generated_kernel(seed)`` draws an
SPMD kernel from a small grammar with a plain ``random.Random(seed)``
(``randrange`` / ``choice`` / ``random`` only, whose streams Python
keeps stable), so the corpus never moves with a library version.

A value reaches the oracle (the ``CommGraph`` digest) through a
``SHOW(expr)`` line, which stands for a send to rank ``100 + expr``: a
concrete integer comes back as REPROC03 "targets rank 100+v" with the
line and the rank, an unknown one as REPROC04, one seen under an
unresolved branch as "conditionally out of range".

The golden digests (``tests/golden/interp_corpus_digests.json``) were
generated on the commit *before* the interpreter became a tree of
closures and are never edited: a kernel added later gets its digest
from that commit too (``git stash``-free recipe in
``tests/test_interp_corpus.py``).
"""

from __future__ import annotations

import random
import re
import textwrap
from typing import Any, Dict, List, Tuple

_SHOW = re.compile(r"^(\s*)SHOW\((.*)\)\s*$")

_PRELUDE = """\
import numpy as np
from repro.mpi.constants import ANY_SOURCE, ANY_TAG

def make():
    def kernel(mpi):
        rank = mpi.rank
        size = mpi.size
        rng = np.random.default_rng(7)
"""


def expand(source: str) -> str:
    """Rewrite every ``SHOW(expr)`` line into its send, line for line."""
    out = []
    for line in source.splitlines():
        m = _SHOW.match(line)
        if m:
            line = f"{m.group(1)}yield from mpi.send(None, 100 + ({m.group(2)}))"
        out.append(line)
    return "\n".join(out) + "\n"


def body(code: str) -> str:
    """A kernel body under the standard prelude (``rank``, ``size``,
    ``rng`` bound; ``np``, ``ANY_SOURCE``, ``ANY_TAG`` imported)."""
    text = textwrap.indent(textwrap.dedent(code).strip("\n"), " " * 8)
    return expand(_PRELUDE + text + "\n    return kernel\n")


def module(code: str) -> str:
    """A whole module source; must define the factory itself."""
    return expand(textwrap.dedent(code).strip("\n") + "\n")


#: name -> (source, analyze_source keyword arguments)
HAND: Dict[str, Tuple[str, Dict[str, Any]]] = {}


def _hand(name: str, source: str, **kwargs: Any) -> None:
    assert name not in HAND, name
    HAND[name] = (source, kwargs)


# ------------------------------------------------------------ expressions ---

_hand("names_constants", body("""
    a = 7
    SHOW(a)
    SHOW(undefined_name)
    SHOW(len([1, 2, 3]))
    SHOW(abs(-4))
    b = True
    SHOW(b)
    SHOW(None)
    c = ...
    SHOW(3 if c is ... else 4)
    SHOW(2.0)
    SHOW(int(2.5 * 2))
    s = "text"
    SHOW(len(s))
"""))

_hand("containers", body("""
    t = (1, rank, 3)
    SHOW(t[1])
    SHOW(len(t))
    items = [size, 2]
    items.append(5)
    SHOW(items[2] + len(items))
    s = {1, 2, 2, rank}
    SHOW(len(s))
    bad = {[1], 2}
    SHOW(bad)
    d = {"a": 1, "b": rank, **{"c": 3}, **undefined}
    SHOW(d["b"] + d["c"] + len(d))
    dk = {undefined: 1}
    SHOW(dk)
    du = {[1]: 2}
    SHOW(du)
    su = {undefined, 1}
    SHOW(su)
    star = (*items, 9)
    SHOW(len(star))
    lstar = [*items, 9]
    SHOW(len(lstar))
    empty = ()
    SHOW(len(empty) + len([]) + len({}))
"""))

_hand("fstrings", body("""
    name = f"r{rank}-{size:03d}"
    SHOW(len(name))
    u = f"{undefined}!"
    SHOW(len(u))
    SHOW(1 if f"{rank}" == str(rank) else 0)
    plain = f"plain"
    SHOW(len(plain))
    SHOW(len(f"{rank + 1}{'x' * 2}"))
"""))

_hand("lambda_namedexpr", body("""
    inc = lambda x, k=2, *, m=3: x + k * m
    SHOW(inc(1))
    SHOW(inc(1, 5))
    SHOW(inc(1, m=1))
    SHOW(inc(x=4, k=0))
    if (n := rank + 10) > 5:
        SHOW(n)
    vals = [y := 3, y + 1]
    SHOW(vals[1])
    const = lambda: 9
    SHOW(const())
    var = lambda *a, **k: len(a) + 10 * len(k)
    SHOW(var(1, 2, z=3))
    (lst := [0, 0])[1] = 4
    SHOW(lst[1])
"""))

_hand("yield_forms", body("""
    got = yield
    SHOW(got)
    got2 = yield rank
    SHOW(got2)
    r = yield from mpi.recv(None, (rank + 1) % size)
    SHOW(r)
    b = yield from mpi.barrier()
    SHOW(1 if b is None else 0)
    yield (yield 5)
"""))

_hand("ifexp_boolop", body("""
    SHOW(1 if rank == 0 else 2)
    SHOW(1 if undefined else 1)
    SHOW(1 if undefined else 2)
    SHOW(rank and 5)
    SHOW(rank or 7)
    SHOW(0 or undefined or 3)
    SHOW(1 and 2 and 3)
    SHOW(0 and undefined)
    SHOW(1 or undefined)
    SHOW(undefined and 0)
    x = [] or [1]
    SHOW(len(x))
    SHOW(3 if [] else 4)
    SHOW([1] if undefined else [1])
    y = (rank or 1) and (size and 2)
    SHOW(y)
"""))

_hand("unary", body("""
    SHOW(-rank)
    SHOW(+size)
    SHOW(~rank)
    SHOW(not rank)
    SHOW(not undefined)
    SHOW(-undefined)
    SHOW(-"s")
    SHOW(~1.5)
    arr = np.zeros(undefined)
    neg = -arr
    SHOW(neg.ndim)
    pos = +rng.random(3)
    SHOW(pos.nbytes)
    inv = ~arr
    SHOW(inv)
    SHOW(not arr)
    SHOW(not mpi)
    SHOW(-mpi)
    SHOW(int(-np.float64(2.0)))
    SHOW(- - rank)
"""))

_hand("binops", body("""
    SHOW(rank + 2)
    SHOW(9 - rank)
    SHOW(rank * 3)
    SHOW(int(7 / 2))
    SHOW(7 // 2)
    SHOW(7 % 3)
    SHOW(2 ** 5)
    SHOW(1 << 4)
    SHOW(256 >> 2)
    SHOW(6 | 1)
    SHOW(6 & 3)
    SHOW(6 ^ 3)
    SHOW(1 // 0)
    SHOW(1 % 0)
    SHOW(len("ab" * 3))
    SHOW(len([1] + [2, 3]))
    m = np.ones((2, 3)) @ np.ones((3, 4))
    SHOW(m.shape[1])
    SHOW(undefined + 1)
    SHOW(1 + undefined)
    SHOW(1 + mpi)
    SHOW("a" + 1)
    SHOW(True + True)
    SHOW(int(np.int64(3) * 2))
    SHOW(int(2.5 + rank))
    SHOW((1, 2) + (3,))
    SHOW(len((1, 2) + (3,)))
    SHOW(rank ^ 1)
    SHOW((rank + 1) % size)
"""))

_hand("abstract_binops", body("""
    a = rng.random((4, 3))
    b = rng.integers(0, 10, size=3)
    c = a + b
    SHOW(c.nbytes)
    SHOW((a * 2).shape[0])
    SHOW((a / b).nbytes)
    SHOW((b / b).nbytes)
    SHOW((b + True).nbytes)
    SHOW((b + 1.5).nbytes)
    SHOW((b * 2j).nbytes)
    SHOW((b + np.int64(1)).nbytes)
    SHOW((b + np.float64(1)).nbytes)
    SHOW((b + np.bool_(True)).nbytes)
    d = a @ rng.random((3, 5))
    SHOW(d.shape[1])
    e = a @ rng.random(3)
    SHOW(e.shape[0])
    e2 = rng.random(4) @ a
    SHOW(e2.shape[0])
    f = rng.random(3) @ rng.random(3)
    SHOW(f)
    g = a + rng.random((5, 5))
    SHOW(g.nbytes)
    h = a + np.ones((4, 1))
    SHOW(h.nbytes)
    h2 = np.ones((4, 1), dtype=np.float32) + rng.integers(0, 2, size=(4, 3), dtype=np.int32)
    SHOW(h2.nbytes)
    k = b + undefined
    SHOW(k.nbytes)
    SHOW(k.dtype)
    sc = a[0, 0] + 1
    SHOW(sc)
    z = rng.random(()) + 1
    SHOW(z)
    w = (a @ undefined)
    SHOW(w.nbytes)
    v3 = rng.random((2, 3, 4)) @ rng.random((4, 2))
    SHOW(v3.nbytes)
    SHOW((b << 1).nbytes)
    SHOW((a ** 2).nbytes)
    SHOW(("s" + b).nbytes)
"""))

_hand("compare", body("""
    SHOW(rank == 0)
    SHOW(rank != 0)
    SHOW(rank < 1)
    SHOW(rank <= 1)
    SHOW(rank > 1)
    SHOW(rank >= 1)
    SHOW(rank in (0, 2))
    SHOW(rank not in [0, 2])
    SHOW(0 <= rank < size)
    SHOW(0 <= rank < 1 < undefined)
    SHOW(1 < undefined < 0)
    SHOW(None is None)
    SHOW(rank is not None)
    SHOW(undefined is None)
    SHOW(None is not undefined)
    SHOW(1 < "a")
    SHOW(np.zeros(undefined) == 1)
    SHOW(1 is np.zeros(undefined))
    SHOW(mpi == mpi)
    SHOW(mpi is mpi)
    SHOW(mpi is not mpi)
    SHOW(np.array([1, 2]) == np.array([1, 2]))
    SHOW(3 in undefined)
    SHOW(3 in 5)
    SHOW("a" in "cat")
    SHOW([1, 2] == [1, 2])
    SHOW(1.0 == 1)
    SHOW(rank == 0 == 0)
"""))

_hand("calls_binding", body("""
    def f(a, b=2, *rest, c=3, **kw):
        return a + b * 10 + len(rest) * 100 + c * 1000 + len(kw) * 10000
    SHOW(f(1))
    SHOW(f(1, 5))
    SHOW(f(1, 5, 6, 7))
    SHOW(f(1, c=4))
    SHOW(f(1, z=1, y=2))
    SHOW(f(*[1, 2, 3]))
    SHOW(f(*(1, 2)))
    SHOW(f(*undefined))
    SHOW(f(1, **{"b": 7}))
    SHOW(f(1, **undefined))
    SHOW(f(1, **{3: 4}))
    SHOW(f(1, *[2], 3, c=0))
    def g(a, /, b, *, c):
        return a + b + c
    SHOW(g(1, 2, c=3))
    SHOW(g(1, b=2, c=3))
    SHOW(g(1, 2))
    def h(a, b):
        return a
    SHOW(h(1, 2, 3))
    SHOW(h(1))
    SHOW(h(b=1, a=9))
    SHOW(h(1, a=5))
    SHOW(h())
    def d(a, b=rank + 1, c=size * 2):
        return a + b + c
    SHOW(d(0))
    SHOW(d(0, c=0))
    def kwonly(*, p, q=2):
        return p * q
    SHOW(kwonly(p=3))
    SHOW(kwonly())
    def noret(a):
        a + 1
    SHOW(1 if noret(1) is None else 0)
    def bare():
        return
    SHOW(1 if bare() is None else 0)
"""))

_hand("attributes", body("""
    import math
    SHOW(mpi.rank)
    SHOW(mpi.size)
    SHOW(mpi.ANY_SOURCE)
    SHOW(mpi._interp)
    SHOW(mpi.events)
    SHOW(undefined.x.y)
    f = lambda: 1
    SHOW(f.__name__)
    SHOW(int(np.pi))
    SHOW(int(math.pi * 2))
    SHOW(math.nosuch)
    SHOW(int(np.float64(2.5) * 2))
    SHOW(int(np.int32(7)))
    SHOW(np.float64(undefined))
    SHOW(np.float64("zz"))
    SHOW(np.float64())
    SHOW(int(np.bool_(1)))
    SHOW(int(np.intp(3)))
    items = [1]
    ap = items.append
    ap(2)
    SHOW(len(items))
    SHOW((1).real)
    SHOW(len("abc".upper()))
    r = rng.random
    v = r(3)
    SHOW(v.nbytes)
    SHOW(rng.nosuch)
    a = rng.random((2, 3))
    SHOW(a.shape[1])
    SHOW(a.ndim)
    SHOW(a.size)
    SHOW(a.nbytes)
    SHOW(a.itemsize)
    SHOW(a.T.shape[0])
    SHOW(a.dtype)
    SHOW(a.real.nbytes)
    c = rng.random(2) * 1j
    SHOW(c.imag.nbytes)
    SHOW(c.real.nbytes)
    u = np.zeros(undefined)
    SHOW(u.shape)
    SHOW(u.ndim)
    SHOW(u.size)
    SHOW(u.nbytes)
    SHOW(u.T.nbytes)
    m = a.sum
    SHOW(m(axis=0).nbytes)
    nrm = np.linalg.norm
    SHOW(int(nrm(np.ones(4))))
    SHOW(1 if np.newaxis is None else 0)
    SHOW(np.random)
    SHOW(np.random.nosuch)
    SHOW(int(np.inf > 1))
    real = np.ones((2, 5))
    SHOW(real.shape[1])
    SHOW(real.nosuch)
"""))

_hand("subscripts", body("""
    items = [10, 20, 30]
    SHOW(items[1])
    SHOW(items[-1])
    SHOW(len(items[0:2]))
    SHOW(items[5])
    SHOW(items[undefined])
    SHOW(undefined[0])
    d = {"a": 1}
    SHOW(d["a"])
    SHOW(d["zz"])
    arr = np.arange(12).reshape(3, 4)
    SHOW(int(arr[1, 2]))
    SHOW(arr[1:, ::2].shape[1])
    SHOW(arr[undefined].nbytes)
    SHOW(arr[undefined].dtype)
    SHOW(arr["bad"])
    SHOW(arr[items[0] - 9:].shape[0])
    a = rng.random((4, 5, 6))
    SHOW(a[0].nbytes)
    SHOW(a[1:3].shape[0])
    SHOW(a[:, 2].nbytes)
    SHOW(a[..., 0].nbytes)
    SHOW(a[None, 0].shape[0])
    SHOW(a[0, 0, 0])
    SHOW(a[0, 0, 0, 0].nbytes)
    SHOW(a[a > 0].nbytes)
    SHOW(a[::2, 1:].shape[1])
    SHOW(a[undefined:2].nbytes)
    SHOW(a[np.int64(1)].nbytes)
    SHOW(a[True].nbytes)
    SHOW(a[1.5:].nbytes)
    SHOW(a[-1:].shape[0])
    SHOW(a[10:].shape[0])
    SHOW(a[:, :, None].shape[2])
    SHOW(a[0:1, 0:1, 0:1].nbytes)
    SHOW(a[[0, 1]].nbytes)
    SHOW(len("hello"[1:rank + 2]))
    SHOW(len("hello"[::undefined]))
    SHOW(len("hello"[::-1]))
    SHOW(len("hello"[:]))
    SHOW(len("hello"[np.int64(1):]))
    SHOW((1, 2, 3)[::2][1])
    SHOW(mpi[0])
    SHOW(f[0] if False else 1)
    SHOW(rng.random(undefined)[0])
    SHOW(np.zeros(undefined)[0].nbytes)
"""))

_hand("comprehensions", body("""
    sq = [i * i for i in range(4)]
    SHOW(sum(sq))
    ev = [i for i in range(6) if i % 2 == 0 if i > 0]
    SHOW(len(ev))
    pairs = [(i, j) for i in range(3) for j in range(i)]
    SHOW(len(pairs))
    st = {i % 3 for i in range(7)}
    SHOW(len(st))
    dc = {i: i * 2 for i in range(3)}
    SHOW(dc[2])
    g = sum(i for i in range(5))
    SHOW(g)
    un = [i for i in undefined]
    SHOW(un)
    uf = [i for i in range(3) if undefined]
    SHOW(uf)
    us = {i for i in undefined}
    SHOW(us)
    ud = {i: 1 for i in undefined}
    SHOW(ud)
    ug = list(i for i in undefined)
    SHOW(ug)
    ab = [row.nbytes for row in rng.random((3, 2))]
    SHOW(sum(ab))
    su = {[i] for i in range(2)}
    SHOW(su)
    du = {[i]: 1 for i in range(2)}
    SHOW(len(du))
    dk = {undefined: 1 for i in range(2)}
    SHOW(len(dk))
    sm = {undefined for i in range(2)}
    SHOW(sm)
    log = []
    _ = [log.append(i) for i in range(3) if undefined]
    SHOW(len(log))
    log2 = []
    _ = [log2.append(j) for i in undefined for j in range(2)]
    SHOW(len(log2))
    log3 = []
    _ = [log3.append(j) for i in range(2) for j in undefined]
    SHOW(len(log3))
    log4 = []
    _ = [log4.append(i) for i in undefined if i > 1 if False]
    SHOW(len(log4))
    i = 77
    _ = [i for i in range(3)]
    SHOW(i)
    mix = [x for x in range(3) if x == rank and undefined]
    SHOW(mix)
    fl = [x for x in range(3) if x == 5 or undefined if x > 0]
    SHOW(fl)
    tup = [a + b for a, b in [(1, 2), (3, 4)]]
    SHOW(tup[1])
    late = [lambda: i for i in range(3)]
    SHOW(late[0]())
    nested = [[j for j in range(i)] for i in range(3)]
    SHOW(len(nested[2]))
    outer = 5
    SHOW(sum(outer for _ in range(2)))
    SHOW(len([c for c in "abc"]))
    SHOW(len({k: v for k, v in {"a": 1}.items()}))
"""))


# ------------------------------------------------------------- statements ---

_hand("assign_targets", body("""
    a = b = 3
    SHOW(a + b)
    (x, y), z = (1, 2), 3
    SHOW(x + y * 10 + z * 100)
    [p, q] = [4, 5]
    SHOW(p * q)
    first, *rest = [1, 2, 3]
    SHOW(first)
    SHOW(rest)
    m, n = 1, 2, 3
    SHOW(m)
    u, v = undefined
    SHOW(u)
    items = [0, 0, 0]
    items[1] = 7
    items[rank % 3] += 2
    SHOW(items[1] + items[0])
    dd = {}
    dd["k"] = 5
    dd[undefined] = 1
    dd[[1]] = 2
    SHOW(len(dd) + dd["k"])
    arr = np.zeros(4)
    arr[1] = 3.0
    SHOW(int(arr[1]))
    arr[undefined] = 1
    SHOW(arr.nbytes)
    SHOW(arr[1])
    keep = np.zeros(3)
    keep[0] = undefined
    SHOW(keep.nbytes)
    arr2 = np.zeros((2, 2))
    arr2[0][1] = 5
    SHOW(int(arr2[0, 1]))
    arr2[0][undefined] = 1
    SHOW(int(arr2[0, 1]))
    obj.attr = 3
    SHOW(obj)
    items[10] = 1
    SHOW(len(items))
    ann: int = 5
    SHOW(ann)
    ann2: int
    SHOW(ann2)
    t = (1, 2)
    t[0] = 5
    SHOW(t[0])
    arr3 = np.zeros(3)
    arr3[0] = "x"
    arr3[7] = 1
    SHOW(int(arr3[0]))
    undefined_obj[0] = 1
    ab = rng.random(3)
    ab[0] = 1
    SHOW(ab.nbytes)
    for items[0] in range(3):
        pass
    SHOW(items[0])
    i, (j, k) = rank, (size, 0)
    SHOW(i + j + k)
    s1, s2 = "ab"
    SHOW(s1)
    l1, l2 = [1, 2]
    SHOW(l2)
    [*everything] = [1, 2]
    SHOW(everything)
"""))

_hand("augassign", body("""
    n = 1
    n += rank
    n *= 3
    n -= 1
    n //= 2
    n %= 5
    n **= 2
    n <<= 1
    n >>= 1
    n |= 8
    n &= 12
    n ^= 5
    SHOW(n)
    f = 8
    f /= 2
    SHOW(int(f))
    u += 1
    SHOW(u)
    items = [1, 2]
    items[0] += 10
    SHOW(items[0])
    d = {"a": 1}
    d["a"] *= 7
    SHOW(d["a"])
    d["new"] += 1
    SHOW(len(d))
    a = np.zeros(3)
    a += 1
    SHOW(int(a[0]))
    ab = rng.random(3)
    ab += 1
    SHOW(ab.nbytes)
    ab *= undefined
    SHOW(ab.nbytes)
    obj.x += 1
    w = 1
    w += undefined
    SHOW(w)
    mm = np.ones((2, 2))
    mm @= np.ones((2, 2))
    SHOW(int(mm[0, 0]))
    idx = [0]
    def nxt():
        idx[0] += 1
        return idx[0] % 2
    items[nxt()] += 100
    SHOW(items[0] + items[1])
    SHOW(idx[0])
"""))

_hand("if_known_unknown", body("""
    draw = rng.random(4)
    x = 1
    if draw[0] > 0.5:
        x = 2
        y = 5
        yield from mpi.send(None, 100)
    else:
        x = 2
        z = 6
    SHOW(x)
    SHOW(y)
    SHOW(z)
    if draw[1] > 0.5:
        w = 1
    else:
        w = 2
    SHOW(w)
    l1 = [1]
    if draw[2] > 0:
        l2 = l1
        l1.append(2)
    else:
        l2 = l1
    SHOW(len(l2))
    if undefined:
        pass
    if draw[0] > 0:
        if draw[1] > 0:
            q = 1
            SHOW(q)
        else:
            q = 1
    else:
        q = 1
    SHOW(q)
    if rank == 0:
        k = 1
    elif rank == 1:
        k = 2
    else:
        k = 3
    SHOW(k)
    if undefined:
        e1 = 1.0
    else:
        e1 = 1
    SHOW(e1)
    if undefined:
        e2 = [1, 2]
    else:
        e2 = [1, 2]
    SHOW(len(e2))
    if undefined:
        e3 = np.ones(2)
    else:
        e3 = np.ones(2)
    SHOW(e3)
    if undefined:
        e4 = mpi
    else:
        e4 = mpi
    SHOW(e4.rank)
    if undefined:
        def fn():
            return 1
    else:
        def fn():
            return 1
    SHOW(fn)
    if rng:
        SHOW(1)
    if mpi:
        SHOW(2)
    if np.ones(2):
        SHOW(3)
    if [undefined]:
        SHOW(4)
    if zip(undefined):
        SHOW(5)
    if np:
        SHOW(6)
    if draw:
        SHOW(7)
"""))

_hand("if_escapes", body("""
    def both_return(v):
        if v > 0:
            return 1
        else:
            return 2
        return 3
    SHOW(both_return(undefined))
    def one_return(v):
        if v > 0:
            return 1
        return 3
    SHOW(one_return(undefined))
    for i in range(3):
        if undefined:
            break
        SHOW(i)
    for i in range(3):
        if undefined:
            break
        else:
            break
        SHOW(99)
    SHOW(i)
    for i in range(2):
        if undefined:
            continue
        else:
            continue
        SHOW(98)
    def both_raise(v):
        if v:
            raise ValueError("a")
        else:
            raise ValueError("b")
    try:
        both_raise(undefined)
    except ValueError:
        SHOW(7)
    def mixed(v):
        if v:
            return 1
        else:
            raise ValueError("b")
        return 5
    SHOW(mixed(undefined))
    def nested(v):
        if v:
            if v > 1:
                return 1
            else:
                return 2
        else:
            return 3
    SHOW(nested(undefined))
    def same_return(v):
        if v:
            return 4
        else:
            return 4
    SHOW(same_return(undefined))
    for i in range(2):
        if undefined:
            break
        else:
            continue
        SHOW(97)
    SHOW(i)
"""))

_hand("unknown_loops", body("""
    draw = rng.random(4)
    n = int(draw[0] * 3)
    acc = 0
    for i in range(n):
        acc += 1
        yield from mpi.send(None, (rank + 1) % size)
    SHOW(acc)
    SHOW(i)
    k = 5
    while draw[1] > k:
        k = k - 1
        j = 2
    SHOW(k)
    SHOW(j)
    for a, b in undefined:
        c = a
    SHOW(c)
    SHOW(b)
    for row in rng.random((3, 2)):
        SHOW(row.nbytes)
    count = 0
    for row in rng.random((5000, 2)):
        count += 1
    SHOW(count)
    for _ in rng.random(undefined):
        pass
    for _ in rng.random(()):
        SHOW(60)
    while undefined:
        break
    else:
        SHOW(55)
    for _ in undefined:
        break
    else:
        SHOW(56)
    for _ in undefined:
        def inner():
            return 1
        lam = lambda: 2
        for t in range(2):
            tt = t
        (w := 4)
        ann: int = 3
        aug = 0
        aug += 1
        d = {}
        d["k"] = 1
        first, *others = [1, 2]
        with undefined as ctx:
            inside = 1
    SHOW(inner)
    SHOW(lam)
    SHOW(t)
    SHOW(tt)
    SHOW(w)
    SHOW(ann)
    SHOW(aug)
    SHOW(len(d))
    SHOW(first)
    SHOW(others)
    SHOW(ctx)
    SHOW(inside)
    for _ in undefined:
        return 5
    SHOW(61)
    m = 3
    while m > undefined:
        m -= 1
        if m == 1:
            break
    SHOW(m)
    for q in undefined:
        if undefined:
            qq = 1
        else:
            qq = 1
    SHOW(qq)
    total = 0
    for i in range(2):
        for _ in undefined:
            total = total + 1
        SHOW(i)
    SHOW(total)
"""))

_hand("concrete_loops", body("""
    import itertools
    tot = 0
    for i in range(4):
        if i == 1:
            continue
        if i == 3:
            break
        tot += i
    else:
        tot += 100
    SHOW(tot)
    for i in range(2):
        tot += 1
    else:
        tot += 100
    SHOW(tot)
    for ch in "ab":
        tot += 1
    for k in {"x": 1, "yy": 2}:
        tot += len(k)
    SHOW(tot)
    dig = 0
    for v in {3, 1, 2}:
        dig = dig * 10 + v
    SHOW(dig)
    names = ""
    for v in {"b", 1}:
        names = names + str(v)
    SHOW(len(names))
    SHOW(1 if names == "b1" else 0)
    for a in np.arange(3):
        tot += int(a)
    for i, (a, b) in enumerate(zip([1, 2], [3, 4])):
        tot += i * a * b
    SHOW(tot)
    for v in reversed([1, 2]):
        tot = tot * 2 + v
    for v in iter([1, 2]):
        tot += v
    for v in 5:
        tot += 1000
    SHOW(tot)
    for v in b"ab":
        dig += v
    SHOW(dig)
    for pair in itertools.product(range(2), range(2)):
        dig += pair[0] + pair[1]
    SHOW(dig)
    cnt = 0
    for v in itertools.count():
        cnt += 1
    SHOW(cnt)
    for v in frozenset([2, 1]):
        dig = dig * 10 + v
    SHOW(dig)
    n = 0
    while True:
        n += 1
        if n > 3:
            break
    else:
        n = 100
    SHOW(n)
    while n < 10:
        n += 1
        if n % 2:
            continue
        n += 1
    else:
        n += 50
    SHOW(n)
    while n > 1000:
        n -= 1
    SHOW(n)
    for i in range(3):
        for j in range(3):
            if j == 1:
                break
            n += 1
        else:
            n += 100
    SHOW(n)
    for i in []:
        SHOW(70)
    else:
        SHOW(71)
    for x, in [(1,), (2,)]:
        n += x
    SHOW(n)
    for d in ({"a": 1}, {"a": 2}):
        n += d["a"]
    SHOW(n)
"""))

_hand("try_raise", body("""
    try:
        raise ValueError("boom")
    except ValueError as exc:
        SHOW(1)
        SHOW(exc)
    else:
        SHOW(2)
    finally:
        SHOW(3)
    try:
        x = 1
    except Exception:
        x = 2
    else:
        SHOW(4)
    finally:
        SHOW(5)
    SHOW(x)
    try:
        try:
            raise KeyError("k")
        finally:
            SHOW(6)
    except KeyError:
        SHOW(7)
    try:
        try:
            raise KeyError("k")
        except KeyError:
            raise RuntimeError("again")
        except TypeError:
            SHOW(8)
    except RuntimeError:
        SHOW(9)
    def thrower():
        raise IndexError("deep")
    try:
        thrower()
        SHOW(20)
    except (IndexError, KeyError):
        SHOW(10)
    try:
        raise
    except Exception:
        SHOW(11)
    def tf():
        try:
            return 1
        finally:
            pass
    SHOW(tf())
    def tf2():
        try:
            return 1
        finally:
            return 2
    SHOW(tf2())
    for i in range(2):
        try:
            if i == 0:
                continue
            break
        finally:
            SHOW(12 + i)
    try:
        if undefined:
            raise ValueError("maybe")
        SHOW(13)
    except ValueError:
        SHOW(14)
    try:
        raise TypeError("first handler wins")
    except KeyError:
        SHOW(15)
    except TypeError:
        SHOW(16)
    try:
        pass
    finally:
        SHOW(17)
    try:
        raise ValueError
    except ValueError as named:
        pass
    SHOW(named)
"""))

_hand("with_assert_del_pass", body("""
    with open_thing() as fh:
        SHOW(1)
    SHOW(fh)
    with undefined:
        pass
    with (a_ctx := 5) as five, 6 as six:
        SHOW(five + six)
    with [1, 2] as (wa, wb):
        SHOW(wa + wb)
    assert rank >= 0, "msg"
    assert undefined
    assert False, undefined_call()
    x = 1
    del x
    SHOW(x)
    pass
    items = [1, 2]
    del items[0]
    SHOW(len(items))
    global late_global
    late_global = 4
    SHOW(late_global)
"""))

_hand("unsupported_statements", body("""
    class Thing:
        attr = 1
    SHOW(Thing)
    async def co():
        pass
    SHOW(co)
    zz = 0
    match rank:
        case 0:
            zz = 1
        case _:
            zz = 2
    SHOW(zz)
    async for item in undefined:
        pass
    SHOW(item)
    async with undefined as actx:
        pass
    SHOW(actx)
    @undefined_decorator
    def decorated(v):
        return v + 1
    SHOW(decorated(1))
"""))

_hand("closures", module("""
    import numpy as np
    COUNTER = 0
    TABLE = [n * n for n in range(4)]
    if COUNTER == 0:
        FLAG = 3
    else:
        FLAG = 4
    for _i in range(2):
        FLAG += 1

    def bump():
        global COUNTER
        COUNTER += 1
        return COUNTER

    def make(rounds=2, scale=1.5):
        total = 0

        def add(n):
            nonlocal total
            total += n
            return total

        def shadow(n):
            total = n
            return total

        def kernel(mpi):
            add(mpi.rank)
            add(5)
            SHOW(total)
            shadow(50)
            SHOW(total)
            bump()
            bump()
            SHOW(COUNTER)
            SHOW(FLAG + TABLE[3])
            SHOW(rounds)
            SHOW(int(scale * 2))
            def inner():
                nonlocal missing
                missing = 3
                return missing
            SHOW(inner())
            SHOW(missing)
            def deep():
                def deeper():
                    nonlocal total
                    total = 1000
                deeper()
            deep()
            SHOW(total)
            def setg():
                global FRESH
                FRESH = 8
            setg()
            SHOW(FRESH)
            def uncertain_nonlocal(v):
                nonlocal total
                if v:
                    total = 1
                else:
                    total = 2
            uncertain_nonlocal(undefined)
            SHOW(total)
        return kernel
"""), kwargs={"rounds": 3})

_hand("imports", module("""
    import math
    import os
    import os.path
    import numpy.random
    import numpy as np
    import numpy.linalg
    import itertools as it
    import repro.apps.skeletons
    import repro.apps.skeletons as sk
    from math import sqrt, pi as PI
    from repro.mpi.constants import ANY_SOURCE
    from repro.mpi import constants as C
    from repro.apps.skeletons import _lcg_next, pipeline, nosuchname
    from repro.apps.npb.common import class_params
    from os import getcwd
    from numpy import zeros, float64
    from . import skeletons
    from .npb import common
    from . import nosuchsibling
    import commtest as me
    from commtest import make as early

    CONST = 11

    def make():
        def kernel(mpi):
            SHOW(int(math.sqrt(16)))
            SHOW(os)
            SHOW(numpy)
            SHOW(repro)
            SHOW(int(sqrt(9)) + int(PI))
            SHOW(1 if ANY_SOURCE == C.ANY_SOURCE else 0)
            SHOW(_lcg_next(1) % 97)
            SHOW(sk._LCG_C % 97)
            SHOW(sk.nosuch)
            SHOW(nosuchname)
            SHOW(getcwd)
            SHOW(zeros(3).shape[0])
            SHOW(int(float64(2.0)))
            SHOW(skeletons)
            SHOW(common)
            SHOW(nosuchsibling)
            SHOW(me.CONST)
            SHOW(early)
            SHOW(len(list(it.chain([1], [2]))))
            SHOW(class_params)
            yield from pipeline(rounds=2, bytes_per_hop=16)(mpi)
            yield from sk.master_worker(rounds=1, work_bytes=8)(mpi)
        return kernel
"""))

_hand("nested_defs_generators", body("""
    def exchange(mpi, peer, n, tag=0):
        buf = np.empty(n)
        if peer < size:
            yield from mpi.sendrecv(np.zeros(n), peer, buf, peer, sendtag=tag, recvtag=tag)
        return n * 2
    got = yield from exchange(mpi, rank ^ 1, 4)
    SHOW(got)
    def fact(n):
        return 1 if n <= 1 else n * fact(n - 1)
    SHOW(fact(5))
    def depth(n):
        if n == 0:
            return 0
        return depth(n - 1) + 1
    SHOW(depth(40))
    def adder(k):
        def add(x):
            return x + k
        return add
    SHOW(adder(3)(4))
    fs = []
    for i in range(3):
        def f(x, i=i):
            return x * i
        fs.append(f)
    SHOW(fs[2](5))
    def late():
        return later()
    def later():
        return 6
    SHOW(late())
    def gen_loop(mpi, n):
        for t in range(n):
            yield from mpi.barrier()
        return n
    SHOW((yield from gen_loop(mpi, 2)))
    def outer(v):
        def mid():
            def innermost():
                return v * 2
            return innermost()
        return mid()
    SHOW(outer(21))
    def rebinding():
        v = 1
        def get():
            return v
        v = 2
        return get()
    SHOW(rebinding())
    apply = lambda fn, *a: fn(*a)
    SHOW(apply(adder(1), 1))
    SHOW(apply(max, 3, 9))
"""))


# ------------------------------------------------------ numpy and builtins ---

_hand("numpy_concrete", body("""
    a = np.zeros((2, 3))
    SHOW(a.shape[1])
    b = np.empty(4)
    SHOW(int(b[0]))
    c = np.empty_like(a)
    SHOW(int(c.sum()))
    d = np.zeros(3, dtype=np.int32)
    SHOW(d.nbytes)
    e = np.nosuch(3)
    SHOW(e)
    f = np.zeros(-1)
    SHOW(f)
    SHOW(int(np.sqrt(16)))
    SHOW(int(np.linalg.norm(np.ones(4))))
    x = np.fft.fft(np.ones(4))
    SHOW(x.nbytes)
    SHOW(np.zeros(3, dtype="float32").nbytes)
    SHOW(int(np.arange(rank + 2).sum()))
    SHOW(int(np.array([1, 2, 3])[::-1][0]))
    SHOW(int(np.prod((2, 3))))
    SHOW(np.zeros(2, dtype=np.float64).nbytes)
    SHOW(np.zeros((2, 5)).T.shape[0])
    tgt = np.zeros(3)
    np.add.at(tgt, [0, 1], 1)
    SHOW(int(tgt.sum()))
    SHOW(np.ones(3)[np.newaxis, :].shape[0])
    SHOW(np.array([[1, 2], [3]]))
    SHOW(np.zeros((2, 3), dtype=undefined))
    SHOW(np.empty((2, 2), dtype=np.uint8).nbytes)
    SHOW(int(np.random.default_rng(3) is not None))
    SHOW(np.full(3, 2.0).nbytes)
    SHOW(int(np.full(3, 2.0)[1]))
    SHOW(int(np.ones(4, dtype=bool).sum()))
    SHOW(int(np.concatenate([np.ones(2), np.ones(3)]).shape[0]))
    SHOW(np.concatenate([]))
    SHOW(int(np.int64(5)))
    SHOW(int(np.log2(8)))
    SHOW(int(np.ceil(2.1)))
"""))

_hand("numpy_abstract", body("""
    a = rng.random((4, 3))
    b = rng.integers(0, 5, size=(4, 3))
    cplx = a * 1j
    SHOW(np.zeros(undefined).nbytes)
    SHOW(np.ones((2, undefined)).nbytes)
    SHOW(np.zeros(undefined, dtype=np.int32).dtype)
    SHOW(np.full(undefined, 1.0).nbytes)
    SHOW(np.zeros_like(a).nbytes)
    SHOW(np.ones_like(a, dtype=np.int32).nbytes)
    SHOW(np.empty_like(b).nbytes)
    SHOW(np.full_like(a, 2).nbytes)
    SHOW(np.zeros_like(undefined).nbytes)
    SHOW(np.array(a).nbytes)
    SHOW(np.asarray([a, a]).nbytes)
    SHOW(np.ascontiguousarray(a).nbytes)
    SHOW(np.array([1, undefined]).nbytes)
    SHOW(np.array([[1, 2], [undefined, 4]]).nbytes)
    SHOW(np.array([[1, 2], [3, undefined, 5]]).nbytes)
    SHOW(np.array((a, np.ones((4, 3)))).nbytes)
    SHOW(np.array(undefined).nbytes)
    SHOW(np.array([]).nbytes)
    SHOW(np.array([a, 1]).nbytes)
    SHOW(np.arange(undefined).nbytes)
    SHOW(np.arange(undefined).dtype)
    SHOW(np.sqrt(a).nbytes)
    SHOW(np.exp(b).nbytes)
    SHOW(np.abs(cplx).nbytes)
    SHOW(np.absolute(cplx).nbytes)
    SHOW(np.isnan(a).nbytes)
    SHOW(np.maximum(a, rng.random(3)).nbytes)
    SHOW(np.maximum(a, 0).nbytes)
    SHOW(np.minimum(a, rng.random((2, 2))).nbytes)
    SHOW(np.sqrt(undefined))
    SHOW(np.sqrt(a[0, 0]))
    SHOW(np.sqrt(a.sum()))
    SHOW(np.tanh(a).nbytes)
    SHOW(np.clip(a, 0, 1).nbytes)
    SHOW(np.sum(a))
    SHOW(np.sum(a, axis=0).nbytes)
    SHOW(np.sum(a, 1).nbytes)
    SHOW(np.mean(a, axis=-1).nbytes)
    SHOW(np.sum(a, axis=5))
    SHOW(np.sum(a, axis=undefined))
    SHOW(np.linalg.norm(a))
    SHOW(np.argmax(b, axis=0).nbytes)
    SHOW(np.dot(a, rng.random((3, 2))).nbytes)
    SHOW(np.matmul(a, rng.random(3)).nbytes)
    SHOW(np.dot(a).nbytes)
    SHOW(np.dot(b, b.T).nbytes)
    SHOW(np.fft.fft(a).nbytes)
    SHOW(np.concatenate([a, a]).nbytes)
    SHOW(np.concatenate([a, a], axis=1).shape[1])
    SHOW(np.concatenate([a, np.ones((2, 3))]).nbytes)
    SHOW(np.concatenate([a, 5]).nbytes)
    SHOW(np.concatenate(a).nbytes)
    SHOW(np.concatenate([a, rng.random(3)]).nbytes)
    SHOW(np.concatenate([a, a], axis=7).nbytes)
    SHOW(np.concatenate([a, np.zeros(undefined)]).nbytes)
    SHOW(np.concatenate([a, b]).dtype)
    SHOW(np.concatenate((a, a), axis=-1).nbytes)
    SHOW(np.reshape(a, (3, 4)).shape[0])
    SHOW(np.reshape(a, undefined).nbytes)
    SHOW(np.reshape(a).nbytes)
    SHOW(np.broadcast_to(a, (2, 4, 3)).nbytes)
    SHOW(np.take(a, rng.integers(0, 3, size=5)).nbytes)
    SHOW(np.take(a).nbytes)
    SHOW(np.sort(a).nbytes)
    SHOW(np.cumsum(a).nbytes)
    SHOW(np.argsort(a).nbytes)
    SHOW(np.ravel(a).nbytes)
    SHOW(np.copy(a).nbytes)
    SHOW(np.bincount(b).nbytes)
    SHOW(np.where(a > 0))
    SHOW(np.where(undefined, a, a).nbytes)
    SHOW(np.where(undefined, a, rng.random(3)).nbytes)
    SHOW(np.where(undefined, a).nbytes)
    SHOW(1 if np.add.at(a, 0, 1) is None else 0)
    gen = np.random.default_rng(undefined)
    SHOW(gen.random(3).nbytes)
    SHOW(np.nosuch(a))
    SHOW(np.linalg.nosuch(a))
    SHOW(np.sum(undefined, axis=0))
    SHOW(np.zeros((2, 2), dtype=a.dtype).nbytes)
    SHOW(np.zeros(undefined, dtype="int32").nbytes)
    SHOW(np.zeros(undefined, dtype=float).dtype)
    SHOW(np.zeros(undefined, dtype=np.dtype("uint8")).nbytes)
    SHOW(np.sqrt(np.ones((2, 2)), out=undefined))
    SHOW(np.sum(np.ones((2, 2)), axis=undefined))
    SHOW(np.maximum(np.ones(3), undefined))
"""))

_hand("rng_methods", body("""
    SHOW(rng.standard_normal(3).nbytes)
    SHOW(rng.standard_normal((2, 2)).nbytes)
    SHOW(rng.standard_normal())
    SHOW(rng.random())
    SHOW(rng.random(5).nbytes)
    SHOW(rng.uniform(0, 1, 4).nbytes)
    SHOW(rng.uniform(0, 1, size=(2, 2)).nbytes)
    SHOW(rng.uniform(0, 1))
    SHOW(rng.normal(size=3).nbytes)
    SHOW(rng.exponential(1.0, 2).nbytes)
    SHOW(rng.exponential(1.0))
    SHOW(rng.standard_exponential(3).nbytes)
    SHOW(rng.integers(0, 10))
    SHOW(rng.integers(0, 10, 5).nbytes)
    SHOW(rng.integers(0, 10, size=(2, 3), dtype=np.int32).nbytes)
    SHOW(rng.integers(0, 10, size=2, dtype="uint8").nbytes)
    SHOW(rng.choice(5))
    SHOW(rng.choice(5, size=3).nbytes)
    SHOW(rng.choice(5, 3))
    SHOW(rng.permutation(6).nbytes)
    SHOW(rng.permutation([1, 2]))
    items = [1, 2]
    SHOW(1 if rng.shuffle(items) is None else 0)
    SHOW(rng.bytes(4))
    SHOW(rng.random(undefined))
    SHOW(rng.random(True))
    SHOW(rng.random([2, 3]).nbytes)
    SHOW(rng.random((2, True)))
    other = np.random.default_rng(rank)
    SHOW(other.random(2).nbytes)
"""))

_hand("array_methods", body("""
    a = rng.random((4, 3))
    u = np.zeros(undefined)
    SHOW(a.copy().nbytes)
    SHOW(a.astype(np.float32).nbytes)
    SHOW(a.astype("int32").nbytes)
    SHOW(a.astype(int).dtype)
    SHOW(a.astype(bool).nbytes)
    SHOW(a.astype(complex).nbytes)
    SHOW(a.astype(a.dtype).nbytes)
    SHOW(a.astype().nbytes)
    SHOW(a.ascontiguousarray().nbytes)
    SHOW(a.conj().nbytes)
    SHOW(a.round().nbytes)
    SHOW(a.ravel().shape[0])
    SHOW(a.flatten().shape[0])
    SHOW(u.ravel().nbytes)
    SHOW(a.reshape(6, 2).shape[0])
    SHOW(a.reshape((2, -1)).shape[1])
    SHOW(a.reshape(-1).shape[0])
    SHOW(a.reshape(5, -1).nbytes)
    SHOW(a.reshape(-1, -1).nbytes)
    SHOW(a.reshape(undefined).nbytes)
    SHOW(a.reshape(np.int64(12)).shape[0])
    SHOW(a.reshape(0, -1).nbytes)
    SHOW(a.reshape("x").nbytes)
    SHOW(u.reshape(2, -1).nbytes)
    SHOW(u.reshape(2, 3).nbytes)
    SHOW(a.transpose().shape[0])
    SHOW(a.transpose(1, 0).shape[0])
    SHOW(a.transpose((1, 0)).shape[1])
    SHOW(a.transpose(5, 0).nbytes)
    SHOW(u.transpose().nbytes)
    SHOW(a.sum())
    SHOW(a.sum(axis=0).nbytes)
    SHOW(a.sum(1).nbytes)
    SHOW(a.max(axis=-1).nbytes)
    SHOW(a.mean(axis=9))
    SHOW(a.dot(rng.random((3, 2))).nbytes)
    SHOW(a.dot(np.ones((3, 5))).nbytes)
    SHOW(a.dot(5).nbytes)
    SHOW(a.dot())
    SHOW(a.all())
    SHOW(a.any())
    SHOW(a.item())
    SHOW(a.tolist())
    SHOW(1 if a.sort() is None else 0)
    SHOW(1 if a.fill(0) is None else 0)
    SHOW(1 if a.partition(2) is None else 0)
    SHOW(a.take(rng.integers(0, 3, size=5)).nbytes)
    SHOW(a.take([0, 1]).nbytes)
    SHOW(a.take(3))
    SHOW(a.take(np.int64(3)))
    SHOW(a.take().nbytes)
    SHOW(a.nosuch())
    SHOW(a.std(axis=True).nbytes)
    SHOW(a.argmax(axis=0).nbytes)
    SHOW(a.min(0).nbytes)
    SHOW(u.sum(axis=0))
"""))

_hand("builtins_abstract", body("""
    a = rng.random((4, 3))
    SHOW(len(a))
    SHOW(len(np.zeros(undefined)))
    SHOW(len(rng.random(())))
    SHOW(len(undefined))
    SHOW(len(zip(undefined)))
    SHOW(len(5))
    SHOW(len())
    SHOW(len([undefined, 1]))
    SHOW(len({"a": undefined}))
    SHOW(int(undefined))
    SHOW(float(a))
    SHOW(bool(undefined))
    SHOW(str(undefined))
    SHOW(complex(undefined))
    SHOW(int())
    SHOW(int("12"))
    SHOW(int("zz"))
    SHOW(list(undefined))
    SHOW(sorted(undefined))
    SHOW(min(undefined, 1))
    SHOW(max(a))
    SHOW(sum([undefined]))
    SHOW(abs(undefined))
    SHOW(range(undefined))
    SHOW(tuple(undefined))
    SHOW(set(undefined))
    SHOW(dict(undefined))
    z = zip(undefined, [1])
    SHOW(z)
    SHOW(z())
    SHOW(z.x)
    SHOW(z[0])
    SHOW(enumerate(undefined))
    double = lambda v: v * 2
    SHOW(map(double, [1, 2]))
    SHOW(filter(None, undefined))
    SHOW(reversed(undefined))
    SHOW(1 if print(undefined) is None else 0)
    SHOW(isinstance(undefined, int))
    SHOW(isinstance(rank, int))
    SHOW(5())
    SHOW("s"())
    SHOW(undefined())
    SHOW(divmod(7, 2)[0])
    SHOW(max([1, 2], key=double))
    SHOW(sorted([3, 1])[0])
    SHOW(dict(a=1)["a"])
    SHOW(max(rank, 3))
    SHOW(round(2.6))
    SHOW(pow(2, 3))
    SHOW(getattr(undefined, "x"))
    SHOW(id)
    items = [1]
    items.append(undefined)
    SHOW(len(items))
    d = {}
    d.update({"k": undefined})
    SHOW(len(d))
    s = set()
    s.add(undefined)
    SHOW(len(s))
    SHOW(items.extend(undefined))
    SHOW(len(items))
    d.setdefault("lst", []).append(1)
    SHOW(len(d["lst"]))
    items.insert(0, undefined)
    SHOW(len(items))
    s.discard(1)
    ba = bytearray()
    ba.extend(b"ab")
    SHOW(len(ba))
    SHOW(items.pop())
    SHOW(len(items))
    items.remove(undefined)
    SHOW(len(items))
    nums = [3, 1, 2]
    nums.sort()
    SHOW(nums[0])
    SHOW(nums.index(undefined))
    SHOW(nums.count(1))
    SHOW(len("a,b".split(",")))
    SHOW(len("-".join(["a", "b"])))
    SHOW(len("%d" % rank))
    SHOW("x".join(undefined))
    SHOW(d.get("nosuch", 7))
    SHOW(d.get(undefined, 7))
    SHOW(len(list(d.items())))
    SHOW(sum(range(4)))
    SHOW(all([1, 1]))
    SHOW(any([]))
    SHOW(float("2.5") * 2 == 5.0)
    SHOW(str(12)[1])
    SHOW(int(str(12)[1]))
    SHOW(bool([]))
    SHOW(list((1, 2))[1])
    SHOW(tuple([4, 5])[0])
    SHOW(type(rank))
    SHOW(mpi.send.__name__)
"""))


# ------------------------------------------------------------------- MPI ---

_hand("mpi_all_methods", body("""
    right = (rank + 1) % size
    left = (rank - 1) % size
    buf = np.empty(8)
    yield from mpi.send(np.zeros(8), right, tag=1)
    yield from mpi.recv(buf, left, tag=1)
    r1 = yield from mpi.isend(np.zeros(2), right, 2)
    r2 = yield from mpi.irecv(buf, left, 2)
    SHOW(r1)
    yield from mpi.wait(r1)
    w = yield from mpi.waitall([r1, r2])
    SHOW(1 if w is None else 0)
    flag = yield from mpi.test(r2)
    SHOW(flag)
    yield from mpi.ssend(b"abcd", right)
    yield from mpi.recv(buf, left)
    yield from mpi.bsend(bytearray(3), right, 3)
    yield from mpi.recv(None, left, 3)
    yield from mpi.rsend(3.5, right, tag=4)
    yield from mpi.recv(None, left, tag=4)
    q1 = yield from mpi.issend(True, right, 5)
    yield from mpi.recv(None, left, 5)
    q2 = yield from mpi.ibsend(2 + 3j, right, 6)
    yield from mpi.recv(None, left, 6)
    yield from mpi.send(7, right, 7)
    yield from mpi.recv(buf, ANY_SOURCE, ANY_TAG)
    yield from mpi.send("abc", right, 8)
    yield from mpi.recv(buf, source=left, tag=ANY_TAG)
    yield from mpi.send([1, 2], right, 9)
    q3 = yield from mpi.irecv(source=ANY_SOURCE)
    yield from mpi.send(np.float64(1.0), right, 10)
    yield from mpi.irecv(buf)
    yield from mpi.send(np.bool_(True), np.int64(right), np.int64(11))
    yield from mpi.recv(buf, np.int64(left), 11)
    yield from mpi.sendrecv(np.zeros(4), right, buf, left, sendtag=5, recvtag=5)
    yield from mpi.sendrecv(np.zeros(4), right)
    yield from mpi.sendrecv(rng.random(3), right, None, left, 12, 12)
    p = yield from mpi.iprobe()
    SHOW(p)
    yield from mpi.iprobe(left, 3)
    yield from mpi.iprobe(source=ANY_SOURCE, tag=1)
    yield from mpi.barrier()
    yield from mpi.bcast(buf, root=0)
    yield from mpi.bcast(buf, 1 % size)
    yield from mpi.bcast(buf)
    yield from mpi.reduce(np.zeros(4), buf, root=size - 1)
    yield from mpi.reduce(np.zeros(4))
    yield from mpi.allreduce(np.zeros(2), buf)
    yield from mpi.allreduce(rng.random(2), buf, op=None)
    yield from mpi.allgather(np.zeros(2), np.empty(2 * size))
    yield from mpi.alltoall(np.zeros(size * 2), np.empty(size * 2))
    yield from mpi.alltoallv(np.zeros(4))
    yield from mpi.alltoallv(np.zeros(4), [1] * size, None, buf, [1] * size, None)
    yield from mpi.gather(np.zeros(2), np.empty(2 * size), root=0)
    yield from mpi.gather(np.zeros(2), root=size - 1)
    yield from mpi.scatter(np.zeros(2 * size), np.empty(2), root=0)
    yield from mpi.scatter(np.zeros(2 * size), np.empty(2))
    c = yield from mpi.compute(5.0)
    SHOW(1 if c is None else 0)
    t = mpi.wtime()
    SHOW(t)
    yield from mpi.send(data=np.zeros(1), dest=right, tag=0, comm=None, mode=None)
    yield from mpi.recv(buf=buf, source=left, tag=0, comm=None)
    args = (np.zeros(3), right)
    yield from mpi.send(*args, **{"tag": 13})
    yield from mpi.recv(buf, left, 13)
    snd = mpi.send
    yield from snd(np.zeros(5), right, 14)
    yield from mpi.recv(buf, left, 14)
"""))

_hand("mpi_unresolved", body("""
    right = (rank + 1) % size
    yield from mpi.bcast(np.zeros(2), root=undefined)
    yield from mpi.reduce(np.zeros(2), None, root=1.0)
    yield from mpi.gather(np.zeros(2), None, root=undefined)
    yield from mpi.scatter(np.zeros(2), None, undefined)
    yield from mpi.send(np.zeros(1), 1.0)
    yield from mpi.send(np.zeros(1), True)
    yield from mpi.send(np.zeros(1), right, tag=undefined)
    yield from mpi.send(np.zeros(1), right, tag=ANY_TAG)
    yield from mpi.recv(None, undefined)
    yield from mpi.recv(None, right, undefined)
    yield from mpi.iprobe(undefined)
    yield from mpi.sendrecv(None, undefined, None, undefined)
    yield from mpi.send(undefined, right)
    yield from mpi.allreduce(undefined)
    yield from mpi.send(np.zeros(1), -1)
    yield from mpi.recv(None, size)
    yield from mpi.send(np.zeros(1), rank)
    yield from mpi.recv(None, rank)
    if undefined:
        yield from mpi.send(np.zeros(1), size + 3)
        yield from mpi.barrier()
    yield from mpi.nosuch(1)
    mpi.barrier()
"""))

_hand("multiline_diagnostics", body("""
    if rank == 0:
        yield from mpi.send(
            np.zeros(4),
            size + 1,
            tag=7,
        )
    yield from mpi.sendrecv(
        np.zeros(2),
        undefined,
        None,
        (rank - 1) % size,
    )
    yield from mpi.send(
        np.zeros(2), size +
        2)
    yield from mpi.send(np.zeros(2),
                        dest=size + 3,
                        tag=(
                            1 +
                            2))
    dest = size + 4
    yield from mpi.send(
        np.zeros(2),
        dest
    )
    yield from mpi.bcast(
        np.zeros(2),
        root=undefined
        if rank else
        undefined,
    )
"""))

_hand("multiline_unmatched", body("""
    yield from mpi.barrier()
    yield from mpi.recv(
        np.empty(2),
        source=(rank + 1)
        % size,
        tag=9)
"""))

_hand("deadlock_ring", body("""
    left = (rank - 1) % size
    right = (rank + 1) % size
    buf = np.empty(4)
    yield from mpi.recv(buf,
                        left)
    yield from mpi.send(np.zeros(4), right)
"""))

_hand("plain_function_kernel", module("""
    import numpy as np

    def make(n=2):
        def kernel(mpi):
            mpi.barrier()
            for peer in range(mpi.size):
                if peer != mpi.rank:
                    mpi.send(np.zeros(n), peer)
            for peer in range(mpi.size):
                if peer != mpi.rank:
                    mpi.recv(np.empty(n), peer)
            return 0
        return kernel
"""), kwargs={"n": 3})

_hand("restore_hazard", body("""
    acc = 0
    for i in range(3):
        if undefined:
            acc = acc + 1
        else:
            acc = acc + 1
        t = acc * 2
    SHOW(acc)
    SHOW(t)
    def reader():
        return acc
    if undefined:
        acc = 10
    else:
        acc = 10
    SHOW(reader())
    vals = [acc for _ in range(2) if (undefined or True)]
    SHOW(vals)
    k = 0
    while k < 3:
        if undefined:
            pass
        k += 1
    SHOW(k)
    SHOW((acc if undefined else acc) + k)
    x = rank
    x += (1 if undefined else 1)
    SHOW(x)
"""))


_hand("corner_cases", body("""
    import math
    from math import nosuchfunc
    SHOW(nosuchfunc)
    a = rng.random((4, 3))
    SHOW(len([a].__repr__()))
    SHOW(np.array([[], [undefined]]).nbytes)
    deep = [[[[[[[[1]]]]]]]]
    SHOW(len(deep + []))
    SHOW(np.sqrt(rng.random(())))
    got = 0
    for v in map(int, ["1", "x"]):
        got += v
    SHOW(got)
    SHOW([j for i in range(2) if undefined for j in undefined])
    SHOW(a.reshape(2, undefined).nbytes)
    SHOW(a[::0].nbytes)
    SHOW(a[::-1].shape[0])
    SHOW(math.floor(2.5))
"""))


# ---------------------------------------------------------------- errors ---

_hand("raise_uncaught", body("""
    yield from mpi.barrier()
    if rank == size - 1:
        raise ValueError("rank %d gives up" % rank)
    yield from mpi.barrier()
"""))

_hand("raise_bare_uncaught", body("""
    raise
"""))

_hand("raise_in_helper", body("""
    def helper(n):
        if n > 1:
            raise RuntimeError(
                "too big", n)
        return n
    SHOW(helper(1))
    SHOW(helper(2))
"""))

_hand("raise_both_arms_uncaught", body("""
    if undefined:
        raise KeyError("a")
    else:
        raise KeyError("b")
"""))

_hand("raise_one_arm_swallowed", body("""
    if undefined:
        raise KeyError("a")
    SHOW(1)
    for _ in undefined:
        raise KeyError("b")
    SHOW(2)
"""))

_hand("raise_module_level", module("""
    def make():
        def kernel(mpi):
            yield from mpi.barrier()
        return kernel
    raise ImportError("no")
"""))

_hand("break_outside_loop", body("""
    yield from mpi.barrier()
    break
"""))

_hand("continue_outside_loop", module("""
    def make():
        continue
"""))

_hand("return_at_module_level", module("""
    def make():
        def kernel(mpi):
            yield from mpi.barrier()
        return kernel
    return 5
"""))

_hand("factory_missing", module("""
    def other():
        return None
"""))

_hand("factory_not_callable", module("""
    make = 5
"""))

_hand("factory_returns_none", module("""
    def make():
        pass
"""))

_hand("module_not_interpretable", module("""
    def make():
        return None
"""), module_name="numpy")

_hand("import_missing_interpreted_module", module("""
    from repro.apps.nosuchmodule import thing

    def make():
        return thing
"""))

_hand("import_missing_real_module", module("""
    def make():
        import repro.nosuchpackage
        return None
"""))

_hand("call_depth_exceeded", body("""
    forever = lambda n: forever(n + 1)
    SHOW(forever(0))
"""))

_hand("call_depth_inside_augassign_target", body("""
    forever = lambda n: forever(n + 1)
    items = [0]
    items[forever(0)] += 1
    SHOW(items[0])
"""))

_hand("while_iteration_cap", body("""
    yield from mpi.barrier()
    while True:
        pass
"""))


# ------------------------------------------------------ divergent ranks ---
# Kernels whose ranks part ways: per-rank loop counts, stores, aliasing,
# errors on some ranks only.  They are pinned rank by rank (event stream
# or error) in ``tests/golden/rank_events_digests.json``, not in the
# graph golden above.

#: name -> (source, analyze_source keyword arguments)
DIVERGENT: Dict[str, Tuple[str, Dict[str, Any]]] = {}


def _divergent(name: str, source: str, **kwargs: Any) -> None:
    assert name not in DIVERGENT, name
    DIVERGENT[name] = (source, kwargs)


_divergent("rank_loop_counts", body("""
    total = 0
    for i in range(rank):
        total += i
        yield from mpi.send(None, (rank + i) % size, tag=i)
    SHOW(total)
    k = 0
    while k < rank % 3:
        k += 1
        yield from mpi.barrier()
    SHOW(k)
    lens = [j for j in range(rank)]
    SHOW(len(lens))
    sq = {j: j * rank for j in range(rank % 2 + 1)}
    SHOW(len(sq) + sq[0])
    picked = [p for p in range(size) if p != rank and (p + rank) % 2 == 0]
    for p in picked:
        yield from mpi.send(None, p, tag=7)
    SHOW(sum(x * x for x in range(rank % 4)))
"""))

_divergent("rank_indexed_stores", body("""
    slots = [0] * size
    slots[rank] = rank + 1
    SHOW(sum(slots))
    table = {}
    table[rank % 2] = rank
    table["all"] = size
    SHOW(len(table) + table[rank % 2])
    grid = [[0] * 2 for _ in range(size)]
    grid[rank][rank % 2] += 5
    SHOW(sum(grid[rank]) + sum(grid[0]))
    mine = [rank, rank + 1]
    mine[0] = 7
    mine.append(rank)
    SHOW(mine[0] + mine[2] * 10 + len(mine))
    coord = list((rank, size))
    coord[0] += 3
    SHOW(coord[0] + coord[1])
    arr = np.full(3, float(rank))
    arr[0] = 5.0
    SHOW(int(arr.sum()))
    d = {"r": rank}
    d["s"] = rank * 2
    SHOW(d["r"] + d["s"])
"""))

_divergent("aliased_rows", body("""
    rows = [[0], [0], [0]]
    row = rows[rank % 2]
    row.append(rank)
    SHOW(len(rows[0]) * 10 + len(rows[1]))
    other = rows[(rank + 1) % 2]
    SHOW(len(other))
    again = rows[rank % 2]
    again.append(1)
    SHOW(len(row))
    cells = [np.zeros(2), np.zeros(2)]
    cell = cells[rank % 2]
    cell[0] = rank + 1
    SHOW(int(cells[0][0]) * 10 + int(cells[1][0]))
"""))

_divergent("fstring_rank", body("""
    label = f"rank-{rank}"
    SHOW(len(label))
    parity = f"{rank % 2}"
    SHOW(int(parity))
    if label == "rank-1":
        SHOW(1)
    SHOW(len(f"{rank}{size}{undefined}"))
    SHOW(len(f"{'x' * rank}"))
"""))

_divergent("divmod_unpack", body("""
    i, j = divmod(rank, 2)
    SHOW(i * 10 + j)
    q, *rest = (rank, rank + 1, rank + 2)
    SHOW(q)
    SHOW(rest)
    (a, b), c = (rank, size), rank % 3
    SHOW(a + b + c)
    u, v = rank
    SHOW(u)
    x, y = (rank, rank) if rank % 2 else (rank, rank, rank)
    SHOW(x)
    yield from mpi.sendrecv(None, (i + j) % size, None, (i - j) % size)
"""))

_divergent("raise_one_rank", body("""
    yield from mpi.barrier()
    if rank == 1:
        raise RuntimeError("only one")
    yield from mpi.send(None, (rank + 1) % size)
"""))

_divergent("budget_some_ranks", body("""
    yield from mpi.barrier()
    if rank == size - 1:
        while True:
            pass
    SHOW(rank)
"""))

_divergent("depth_some_ranks", body("""
    forever = lambda n: forever(n + 1)
    yield from mpi.barrier()
    if rank % 2 == 1:
        forever(0)
    if rank >= 2:
        raise ValueError("late")
    SHOW(rank)
"""))

_divergent("budget_before_depth", body("""
    forever = lambda n: forever(n + 1)
    if rank == 2:
        forever(0)
    if rank == 1:
        while True:
            pass
    SHOW(rank)
"""))

_divergent("unknown_some_ranks", body("""
    draw = rng.random(2)
    x = draw[0] if rank % 2 else 1.0
    if x > 0.5:
        yield from mpi.send(None, (rank + 1) % size)
    SHOW(1 if x else 0)
    v = undefined if rank == 0 else 2
    while v > 0:
        v = v - 1
        yield from mpi.barrier()
    SHOW(v)
    for t in (undefined if rank == 1 else range(2)):
        yield from mpi.send(None, t)
    w = rank if draw[1] > 0.5 else rank
    SHOW(w)
    n = 0
    if draw[1] > 0.5:
        n = rank + 1
    else:
        n = rank + 1
    SHOW(n)
    SHOW(rank if undefined else rank + 1)
"""))

_divergent("ifexp_boolop_effects", body("""
    log = []
    def note(v):
        log.append(v)
        return v
    a = note(1) if rank % 2 else note(2)
    b = rank > 0 and note(3)
    c = rank or note(4)
    SHOW(len(log) * 10 + a)
    SHOW(b)
    SHOW(c)
    d = (lambda: note(5))() if rank == 1 else 0
    SHOW(len(log) + d)
    e = rank % 3 == 0 or rank % 3 == 1 and note(6)
    SHOW(e)
    SHOW(len(log))
"""))

_divergent("lifted_values", body("""
    pick = [max, min][rank % 2]
    SHOW(pick(3, 9))
    def f(*a, **k):
        return len(a) * 10 + len(k)
    SHOW(f(*[rank] * (rank % 2 + 1)))
    SHOW(f(x=rank, **{"y": rank}))
    view = np.ones(size)[rank:rank + 1]
    SHOW(int(view.copy().sum()))
    SHOW(int(np.arange(rank + 1).sum()))
    seq = sorted([rank, 0, size])
    SHOW(seq[1])
    s = str(rank) + "x"
    SHOW(len(s.upper()))
    SHOW(int(np.sqrt(float(rank * rank))))
    t = (rank, [rank])
    SHOW(t[1][0])
    SHOW(-rank + ~rank + abs(-rank))
    SHOW(not rank)
    SHOW(1 if 0 <= rank < 2 else 0)
    SHOW(rank < 1 < size)
    g = np.random.default_rng(rank)
    SHOW(g.random(rank + 1).nbytes)
    h = rng.random((size, 2))[rank]
    SHOW(h.nbytes)
    sl = slice(rank, rank + 2)
    SHOW(len([1, 2, 3, 4][sl]))
    grow = []
    grow.append(rank)
    SHOW(grow[0])
    tag = 3 if rank else 4
    yield from mpi.send(np.zeros(rank + 1), (rank + 1) % size, tag=tag)
    yield from mpi.recv(np.empty(rank + 1), ANY_SOURCE if rank % 2 else (rank - 1) % size)
    yield from mpi.bcast(np.zeros(2), root=rank % 2)
    yield from mpi.reduce(np.zeros(rank + 1), None, root=0)
"""))


# Merge hazards: where the ranks of a pass part on a condition, both
# arms run in one pass and re-join (``Interp.fork``).  Each kernel below
# exercises a way that join could go wrong, or a refusal that must send
# the pass back to narrowing.

_divergent("join_lu_grid", body("""
    rows, cols = (3, 2) if size >= 6 else (1, size)
    if rank < rows * cols:
        i, j = divmod(rank, cols)
        north = (i - 1) * cols + j if i > 0 else None
        south = (i + 1) * cols + j if i < rows - 1 else None
        west = rank - 1 if j > 0 else None
        east = rank + 1 if j < cols - 1 else None
        seen = 0

        def sweep(first, second, later, last, tag):
            nonlocal seen
            top = np.zeros(4)
            left = np.zeros(4)
            if first is not None:
                top = np.empty(4)
                yield from mpi.recv(top, source=first, tag=tag)
                seen += 1
            if second is not None:
                left = np.empty(4)
                yield from mpi.recv(left, source=second, tag=tag + 1)
            out = top + left
            if later is not None:
                yield from mpi.send(out, later, tag=tag)
            if last is not None:
                yield from mpi.send(out[:2], last, tag=tag + 1)
            return out

        for _ in range(2):
            got = yield from sweep(north, west, south, east, 60)
            yield from sweep(south, east, north, west, 62)
        SHOW(seen)
        SHOW(len(got))
        SHOW(north if north is not None else -1)
        SHOW(east if east is not None else -2)
    yield from mpi.barrier()
"""))

_divergent("join_loop_carried", body("""
    acc = 0
    last = -1
    for k in range(4):
        if (rank + k) % 3 == 0:
            acc = acc + k
            last = k
        else:
            acc = acc - 1
        SHOW(acc + 10)
        yield from mpi.send(None, (rank + acc) % size, tag=k)
    SHOW(last + 1)
    hops = 0
    peer = rank
    while hops < 3:
        peer = peer + 1 if peer % 2 else peer + 2
        hops += 1
    SHOW(peer)
"""))

_divergent("join_one_arm_binding", body("""
    if rank % 2:
        fresh = rank * 3
    SHOW(fresh)
    outer = 1

    def inner():
        if rank > 1:
            outer = 7
        return outer
    SHOW(inner())
    if rank == 0:
        both = 1
        extra = 2
    else:
        both = 2
        extra = 3
    SHOW(both * 10 + extra)
    for k in range(2):
        if (rank + k) % 2:
            late = k
    SHOW(late)
"""))

_divergent("join_inplace_containers", body("""
    shared = [0]
    alias = shared
    if rank % 2:
        shared.append(rank)
    SHOW(len(alias))
    arr = np.zeros(3)
    view = arr
    if rank > 0:
        arr += 1
    SHOW(int(arr.sum()) * 10 + int(view.sum()))
    lst = [1]
    other = lst
    if rank < 2:
        lst += [rank]
    SHOW(len(lst) * 10 + len(other))
    grid = [[0], [0]]
    if rank % 2 == 0:
        row = grid[0]
    else:
        row = grid[1]
    row.append(rank)
    SHOW(len(grid[0]) * 10 + len(grid[1]))
    table = {"k": 0}
    if rank == 1:
        table["k"] = 5
    SHOW(table["k"])
"""))

_divergent("join_helper_mutates_closure", body("""
    log = []

    def note(v):
        log.append(v)
        return v
    if rank % 2:
        a = note(rank)
    else:
        a = 0
    SHOW(len(log) * 10 + a)
    counter = {"n": 0}

    def bump():
        counter["n"] = counter["n"] + 1
    if rank > 1:
        bump()
    SHOW(counter["n"])
    seq = iter(range(10))
    if rank % 3 == 0:
        first = next(seq)
    else:
        first = -1
    SHOW(first + 1)
    SHOW(next(seq))
    pairs = [(0, 1), (2, 3)]
    if rank % 2:
        total = sum(x for x, _ in zip([1, 2], pairs))
    else:
        total = len(list(enumerate(pairs)))
    SHOW(total)

    def set_outer():
        nonlocal a
        a = 99
    if rank == 1:
        set_outer()
    SHOW(a)
"""))

_divergent("join_escapes", body("""
    total = 0
    for k in range(5):
        if k == rank % 4:
            break
        if (k + rank) % 2:
            continue
        total = total + k
    SHOW(total)

    def early(x):
        if x > 2:
            return x * 2
        y = x + 1
        return y
    SHOW(early(rank))
    try:
        if rank == 2:
            raise ValueError("two")
        note = 1
    except ValueError:
        note = 2
    SHOW(note)
    if rank == size - 1:
        return
    SHOW(rank)
"""))

_divergent("join_nested", body("""
    if rank % 2 == 0:
        if rank % 4 == 0:
            kind = 0
            yield from mpi.send(None, (rank + 1) % size, tag=1)
        else:
            kind = 1
        tag = 10
    else:
        kind = 2 if rank > 2 else 3
        tag = 20
    SHOW(kind * 100 + tag)
    yield from mpi.send(None, (rank + kind) % size, tag=tag)
    if rank > 0:
        if rank > 2:
            if rank > 4:
                depth = 3
            else:
                depth = 2
        else:
            depth = 1
    else:
        depth = 0
    SHOW(depth)
"""))

_divergent("join_exprs_with_calls", body("""
    made = []

    def peer(k):
        yield from mpi.send(None, (rank + k) % size, tag=k)
        return k

    def keep(v):
        made.append(v)
        return v
    a = (yield from peer(1)) if rank % 2 else (yield from peer(2))
    SHOW(a)
    b = rank > 1 and (yield from peer(3))
    SHOW(b)
    c = (rank % 3 == 0) or (yield from peer(4)) or (yield from peer(5))
    SHOW(c)
    d = len([rank] * rank) if rank else abs(-5)
    SHOW(d)
    e = (rank < 2 and (w := rank + 10)) or size
    SHOW(e)
    f = keep(rank) if rank % 2 else 0
    SHOW(len(made) * 10 + f)
    g = rank % 2 == 0 and keep(7)
    SHOW(len(made))
    SHOW(g)
    yield from mpi.bcast(np.zeros(2), root=0 if rank % 2 else 0)
"""))

_divergent("join_budget_arm", body("""
    yield from mpi.barrier()
    if rank % 3 == 1:
        yield from mpi.send(None, (rank + 1) % size, tag=3)
        while True:
            pass
    else:
        yield from mpi.recv(None, (rank - 1) % size, tag=3)
    SHOW(rank)
"""))


_divergent("join_uncertain_inside_arm", body("""
    peer = (rank + 1) % size
    draw = rng.random(2)
    if rank % 2:
        if draw[0] > 0.5:
            x = 1
        else:
            x = 2
    else:
        x = 3
    SHOW(peer)
    yield from mpi.send(None, peer, tag=1)
    SHOW(x)
"""))

_divergent("join_nonlocal_callee", body("""
    a = rank

    def set_outer():
        nonlocal a
        a = 99
    if rank == 1:
        set_outer()
    SHOW(a)
"""))

_divergent("join_bound_at_run_time", body("""
    if rank % 2:
        if size > 100:
            late = 1
    else:
        late = 2
    SHOW(1 if late is None else 3)
"""))

_divergent("join_numpy_writes", body("""
    buf = np.zeros(2)
    acc = np.zeros(2)

    def fill(v):
        np.copyto(buf, v)
    if rank % 2:
        fill(np.ones(2))
    SHOW(int(buf.sum()))
    if rank > 1:
        np.add(acc, 1.0, out=acc)
    SHOW(int(acc.sum()))
"""))

_divergent("join_owned_per_rank", body("""
    k = rank // 2
    row = [k, k]
    row[0] = rank
    SHOW(row[0] * 10 + row[1])
    cells = {"k": k}
    cells["k"] = rank
    SHOW(cells["k"])
"""))

_divergent("join_shared_rows", body("""
    rows = [[0], [0]]
    if rank % 2:
        row = rows[rank // 2 % 2]
    else:
        row = rows[(rank // 2 + 1) % 2]
    row[0] = rank
    SHOW(row[0])
    SHOW(rows[0][0] * 10 + rows[1][0])
"""))


# ---------------------------------------------------------- seeded grammar ---

GENERATED_SEEDS = range(200)

_GEN_HEADER = """\
import numpy as np
from repro.mpi.constants import ANY_SOURCE, ANY_TAG

_A = 1103515245
_C = 12345
_M = 1 << 31


def _next(state):
    return (_A * state + _C) % _M


def make(rounds={rounds}, base={base}, seed={seed}):
"""

#: helper generators a kernel may call; each is (name, source lines)
_HELPERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("push", (
        "def push(mpi, peer, n, tag=0):",
        "    yield from mpi.send(np.zeros(n, dtype=np.uint8), peer, tag=tag)",
        "    return n",
    )),
    ("pull", (
        "def pull(mpi, peer, n, tag=0):",
        "    buf = np.empty(n, dtype=np.uint8)",
        "    yield from mpi.recv(buf, source=peer, tag=tag)",
        "    return buf",
    )),
    ("swap", (
        "def swap(mpi, to, frm, n, tag=0):",
        "    buf = np.empty(n)",
        "    yield from mpi.sendrecv(np.zeros(n), to, buf, frm,",
        "                            sendtag=tag, recvtag=tag)",
        "    return buf",
    )),
    ("fan", (
        "def fan(mpi, root, n, tag=0):",
        "    if mpi.rank == root:",
        "        for w in range(mpi.size):",
        "            if w != root:",
        "                yield from mpi.send(np.zeros(n), w, tag=tag)",
        "    else:",
        "        yield from mpi.recv(np.empty(n), root, tag=tag)",
    )),
)


class _Gen:
    """One kernel drawn from the grammar; ``lines`` is its ``kernel``
    body, indented relative to the ``def kernel`` line."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.lines: List[str] = []
        self.helpers: List[str] = []
        self.uid = 0
        self.draws = 0

    # -- drawing -------------------------------------------------------
    def pick(self, *options: Any) -> Any:
        return options[self.rng.randrange(len(options))]

    def small(self, lo: int, hi: int) -> int:
        return lo + self.rng.randrange(hi - lo + 1)

    def fresh(self, stem: str) -> str:
        self.uid += 1
        return f"{stem}{self.uid}"

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def helper(self, name: str) -> str:
        if name not in self.helpers:
            self.helpers.append(name)
        return name

    # -- expressions ---------------------------------------------------
    def size_expr(self, loop_vars: Tuple[str, ...]) -> str:
        kind = self.rng.randrange(7)
        if kind == 0:
            return str(self.small(1, 64))
        if kind == 1:
            return "n"
        if kind == 2:
            return f"{self.small(1, 8)} + (rank * {self.small(1, 5)}) % {self.small(2, 7)}"
        if kind == 3:
            return f"plan[{self.small(0, 1)}][1]"
        if kind == 4 and loop_vars:
            return f"{self.small(1, 4)} * ({self.pick(*loop_vars)} + 1)"
        if kind == 5:
            return f"base + {self.small(0, 9)}"
        return f"max(1, n // {self.small(1, 4)})"

    def tag(self) -> str:
        return str(self.small(0, 9))

    def draw(self) -> str:
        """An unknown scalar drawn from the abstract rng."""
        self.draws += 1
        return f"draw[{self.rng.randrange(6)}]"

    # -- statements ----------------------------------------------------
    def block(self, depth: int, nest: int, loop_vars: Tuple[str, ...],
              count: int) -> None:
        for _ in range(count):
            self.statement(depth, nest, loop_vars)

    def statement(self, depth: int, nest: int,
                  loop_vars: Tuple[str, ...]) -> None:
        leaf = (self.ring_shift, self.pair, self.collective, self.local_arith,
                self.helper_call, self.nonblocking, self.wildcard_gather,
                self.abstract_payload, self.peers_comprehension,
                self.dict_neighbours, self.lambda_peer)
        nested = (self.plan_rounds, self.hypercube, self.data_branch,
                  self.unknown_count_loop, self.rank_branch, self.nested_for,
                  self.try_guard, self.unknown_while)
        rare = (self.data_dest, self.out_of_range, self.early_return)
        roll = self.rng.random()
        if roll < 0.06:
            self.pick(*rare)(depth, nest, loop_vars)
        elif nest > 0 and roll < 0.5:
            self.pick(*nested)(depth, nest - 1, loop_vars)
        else:
            self.pick(*leaf)(depth, nest, loop_vars)

    def ring_shift(self, depth, nest, loop_vars):
        k = self.small(1, 3)
        n, t = self.size_expr(loop_vars), self.tag()
        buf = self.fresh("buf")
        self.emit(depth, f"{buf} = np.empty({n})")
        self.emit(depth, f"yield from mpi.sendrecv(np.zeros({n}), (rank + {k}) % size,")
        self.emit(depth, f"                        {buf}, (rank - {k}) % size,")
        self.emit(depth, f"                        sendtag={t}, recvtag={t})")

    def pair(self, depth, nest, loop_vars):
        a, b = self.small(0, 6), self.small(0, 6)
        n, t = self.size_expr(loop_vars), self.tag()
        self.emit(depth, f"if rank == {a} % size:")
        self.emit(depth + 1, f"yield from mpi.send(np.zeros({n}), {b} % size, tag={t})")
        self.emit(depth, f"elif rank == {b} % size:")
        self.emit(depth + 1, f"yield from mpi.recv(np.empty({n}), {a} % size, tag={t})")

    def collective(self, depth, nest, loop_vars):
        n = self.size_expr(loop_vars)
        root = self.pick("0", "size - 1", "plan[0][0]", f"{self.small(0, 9)} % size")
        kind = self.rng.randrange(9)
        if kind == 0:
            self.emit(depth, "yield from mpi.barrier()")
        elif kind == 1:
            self.emit(depth, f"yield from mpi.bcast(np.zeros({n}), root={root})")
        elif kind == 2:
            self.emit(depth, f"yield from mpi.reduce(np.zeros({n}), np.empty({n}), root={root})")
        elif kind == 3:
            self.emit(depth, f"yield from mpi.allreduce(np.zeros({n}), np.empty({n}))")
        elif kind == 4:
            self.emit(depth, f"yield from mpi.allgather(np.zeros({n}), np.empty(({n}) * size))")
        elif kind == 5:
            self.emit(depth, f"yield from mpi.alltoall(np.zeros(({n}) * size), "
                             f"np.empty(({n}) * size))")
        elif kind == 6:
            self.emit(depth, f"yield from mpi.gather(np.zeros({n}), np.empty(({n}) * size), "
                             f"root={root})")
        elif kind == 7:
            self.emit(depth, f"yield from mpi.scatter(np.zeros(({n}) * size), np.empty({n}), "
                             f"root={root})")
        else:
            self.emit(depth, f"yield from mpi.alltoallv(np.zeros({n}))")

    def local_arith(self, depth, nest, loop_vars):
        a, b, c = self.small(1, 9), self.small(0, 5), self.small(0, 30)
        self.emit(depth, f"n = (n * {a} + rank * {b} + {c}) % 97 + 1")

    def helper_call(self, depth, nest, loop_vars):
        n, t = self.size_expr(loop_vars), self.tag()
        kind = self.rng.randrange(4)
        if kind == 0:
            k = self.small(1, 2)
            self.helper("swap")
            self.emit(depth, f"yield from swap(mpi, (rank + {k}) % size, "
                             f"(rank - {k}) % size, {n}, tag={t})")
        elif kind == 1:
            self.helper("fan")
            self.emit(depth, f"yield from fan(mpi, {self.small(0, 7)} % size, {n}, {t})")
        elif kind == 2:
            self.helper("push")
            self.helper("pull")
            self.emit(depth, "if rank % 2 == 0 and rank + 1 < size:")
            self.emit(depth + 1, f"got = yield from push(mpi, rank + 1, {n}, tag={t})")
            self.emit(depth + 1, "n = n + got % 3")
            self.emit(depth, "elif rank % 2 == 1:")
            self.emit(depth + 1, f"yield from pull(mpi, rank - 1, {n}, {t})")
        else:
            self.helper("push")
            self.emit(depth, f"yield from push(mpi, (rank + 1) % size, {n})")
            self.emit(depth, f"yield from mpi.recv(np.empty({n}, dtype=np.uint8), "
                             "(rank - 1) % size)")

    def nonblocking(self, depth, nest, loop_vars):
        n, t = self.size_expr(loop_vars), self.tag()
        reqs = self.fresh("reqs")
        self.emit(depth, f"{reqs} = []")
        self.emit(depth, f"req = yield from mpi.isend(np.zeros({n}), (rank + 1) % size, {t})")
        self.emit(depth, f"{reqs}.append(req)")
        self.emit(depth, f"req = yield from mpi.irecv(np.empty({n}), (rank - 1) % size, {t})")
        self.emit(depth, f"{reqs}.append(req)")
        self.emit(depth, self.pick(f"yield from mpi.waitall({reqs})",
                                   f"yield from mpi.wait({reqs}[0])"))

    def wildcard_gather(self, depth, nest, loop_vars):
        n, t = self.size_expr(loop_vars), self.tag()
        self.emit(depth, "if rank == 0:")
        self.emit(depth + 1, "for _w in range(size - 1):")
        self.emit(depth + 2, f"yield from mpi.recv(np.empty({n}), ANY_SOURCE, tag={t})")
        self.emit(depth, "else:")
        self.emit(depth + 1, f"yield from mpi.send(np.zeros({n}), 0, tag={t})")

    def abstract_payload(self, depth, nest, loop_vars):
        a, b = self.small(1, 6), self.small(1, 6)
        v = self.fresh("v")
        self.emit(depth, f"{v} = rng.random(({a}, {b}))")
        payload = self.pick(f"{v}[0]", f"{v}.T", f"{v} * 2", f"{v}.ravel()",
                            f"{v}[:, 0] + 1", f"np.sqrt({v})", f"{v}.sum(axis=0)")
        self.emit(depth, f"yield from mpi.send({payload}, (rank + 1) % size, tag=1)")
        self.emit(depth, f"yield from mpi.recv(np.empty_like({v}), (rank - 1) % size, tag=1)")

    def peers_comprehension(self, depth, nest, loop_vars):
        m, c = self.small(2, 3), self.small(0, 2)
        n, t = self.size_expr(loop_vars), self.tag()
        peers = self.fresh("peers")
        self.emit(depth, f"{peers} = [p for p in range(size)")
        self.emit(depth, f"          if p != rank and (p + rank) % {m} == {c} % {m}]")
        self.emit(depth, f"for p in {peers}:")
        self.emit(depth + 1, f"yield from mpi.send(np.zeros({n}), p, tag={t})")
        self.emit(depth, f"for p in {peers}:")
        self.emit(depth + 1, f"yield from mpi.recv(np.empty({n}), p, tag={t})")

    def dict_neighbours(self, depth, nest, loop_vars):
        n = self.size_expr(loop_vars)
        nbrs = self.fresh("nbrs")
        self.emit(depth, f'{nbrs} = {{"l": (rank - 1) % size, "r": (rank + 1) % size}}')
        self.emit(depth, f"for key in sorted({nbrs}):")
        self.emit(depth + 1, f"yield from mpi.send(np.zeros({n}), {nbrs}[key], "
                             'tag=len(key))')
        self.emit(depth, f"for key in sorted({nbrs}, reverse=True):")
        self.emit(depth + 1, f"yield from mpi.recv(np.empty({n}), {nbrs}[key], tag=1)")

    def lambda_peer(self, depth, nest, loop_vars):
        k = self.small(1, 3)
        n, t = self.size_expr(loop_vars), self.tag()
        fn = self.fresh("nxt")
        self.emit(depth, f"{fn} = lambda r, k={k}: (r + k) % size")
        self.emit(depth, f"yield from mpi.sendrecv(np.zeros({n}), {fn}(rank), None,")
        self.emit(depth, f"                        {fn}(rank, -{k}), {t}, {t})")

    def plan_rounds(self, depth, nest, loop_vars):
        r = self.fresh("r")
        self.emit(depth, f"for {r} in range(rounds):")
        self.emit(depth + 1, f"root, nb = plan[{r}]")
        self.emit(depth + 1, "if rank == root:")
        self.emit(depth + 2, "for w in range(size):")
        self.emit(depth + 3, "if w != root:")
        self.emit(depth + 4, f"yield from mpi.send(np.zeros(nb, dtype=np.uint8), w, tag={r})")
        self.emit(depth + 1, "else:")
        self.emit(depth + 2, f"yield from mpi.recv(np.empty(nb, dtype=np.uint8), root, tag={r})")
        if self.rng.random() < 0.5:
            self.block(depth + 1, nest, loop_vars + (r,), 1)

    def hypercube(self, depth, nest, loop_vars):
        n = self.size_expr(loop_vars)
        mask = self.fresh("mask")
        self.emit(depth, f"{mask} = 1")
        self.emit(depth, f"while {mask} < size:")
        self.emit(depth + 1, f"partner = rank ^ {mask}")
        self.emit(depth + 1, "if partner < size:")
        self.emit(depth + 2, f"yield from mpi.sendrecv(np.zeros({n}), partner, None, partner,")
        self.emit(depth + 2, f"                        sendtag={mask}, recvtag={mask})")
        self.emit(depth + 1, f"{mask} *= 2")

    def data_branch(self, depth, nest, loop_vars):
        self.emit(depth, f"if {self.draw()} > 0.5:")
        self.block(depth + 1, nest, loop_vars, self.small(1, 2))
        if self.rng.random() < 0.6:
            self.emit(depth, "else:")
            self.block(depth + 1, nest, loop_vars, 1)

    def unknown_count_loop(self, depth, nest, loop_vars):
        i = self.fresh("u")
        self.emit(depth, f"for {i} in range(int({self.draw()} * 3)):")
        self.block(depth + 1, nest, loop_vars, 1)

    def unknown_while(self, depth, nest, loop_vars):
        x = self.fresh("x")
        self.emit(depth, f"{x} = {self.draw()}")
        self.emit(depth, f"while {x} > 0.1:")
        self.block(depth + 1, nest, loop_vars, 1)
        self.emit(depth + 1, f"{x} = {x} / 2")

    def rank_branch(self, depth, nest, loop_vars):
        m = self.small(2, 3)
        cond = self.pick(f"rank % {m} == {self.small(0, 1)}", f"rank < {self.small(1, 3)}",
                         "rank == size - 1", f"rank >= size // {m}")
        self.emit(depth, f"if {cond}:")
        self.block(depth + 1, nest, loop_vars, self.small(1, 2))
        if self.rng.random() < 0.7:
            self.emit(depth, "else:")
            self.block(depth + 1, nest, loop_vars, self.small(1, 2))

    def nested_for(self, depth, nest, loop_vars):
        i, j = self.fresh("i"), self.fresh("j")
        self.emit(depth, f"for {i} in range({self.small(1, 3)}):")
        if self.rng.random() < 0.5:
            self.emit(depth + 1, f"for {j} in range({i} + {self.small(1, 2)}):")
            self.block(depth + 2, nest, loop_vars + (i, j), 1)
        else:
            self.block(depth + 1, nest, loop_vars + (i,), self.small(1, 2))
        if self.rng.random() < 0.3:
            self.emit(depth + 1, f"if {i} == {self.small(0, 2)}:")
            self.emit(depth + 2, self.pick("break", "continue"))

    def try_guard(self, depth, nest, loop_vars):
        self.emit(depth, "try:")
        self.emit(depth + 1, f"if rank == {self.small(0, 4)}:")
        self.emit(depth + 2, 'raise ValueError("guard")')
        self.block(depth + 1, nest, loop_vars, 1)
        self.emit(depth, "except ValueError:")
        self.block(depth + 1, nest, loop_vars, 1)
        if self.rng.random() < 0.4:
            self.emit(depth, "finally:")
            self.emit(depth + 1, "n = n + 1")

    def data_dest(self, depth, nest, loop_vars):
        n = self.size_expr(loop_vars)
        self.emit(depth, f"dest = int({self.draw()} * size) % size")
        self.emit(depth, f"yield from mpi.send(np.zeros({n}), dest, tag=2)")
        self.emit(depth, f"yield from mpi.recv(np.empty({n}), ANY_SOURCE, tag=2)")

    def out_of_range(self, depth, nest, loop_vars):
        self.emit(depth, f"if rank == {self.small(0, 4)} % size:")
        self.emit(depth + 1, f"yield from mpi.send(np.zeros(1), rank + size + {self.small(0, 2)})")

    def early_return(self, depth, nest, loop_vars):
        self.emit(depth, f"if rank >= {self.small(2, 6)}:")
        self.emit(depth + 1, "return rank")


def generated_kernel(seed: int) -> str:
    """The module source of grammar kernel ``seed`` (factory ``make``)."""
    gen = _Gen(seed)
    gen.block(0, gen.small(1, 3), (), gen.small(3, 7))
    out = [_GEN_HEADER.format(rounds=gen.small(2, 4), base=gen.small(1, 32),
                              seed=gen.small(1, 9999))]
    for name, source in _HELPERS:
        if name in gen.helpers:
            out.extend("    " + line for line in source)
            out.append("")
    out.extend("    " + line for line in (
        "def kernel(mpi):",
        "    rank = mpi.rank",
        "    size = mpi.size",
        "    rng = np.random.default_rng(seed)",
        "    draw = rng.random(6)",
        "    n = base",
        "    state = seed % _M",
        "    plan = []",
        "    for _r in range(rounds):",
        "        state = _next(state)",
        "        plan.append((state % size, 4 + state % 61))",
    ))
    out.extend("        " + line for line in gen.lines)
    out.append("        return n")
    out.append("")
    out.append("    return kernel")
    return "\n".join(out) + "\n"
