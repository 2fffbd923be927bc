"""Count-based test helpers: wrap a function to count its calls, or a
class to remember its instances, for the length of one test."""

from __future__ import annotations

import collections
import contextlib
import sys


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` to count its calls; returns the counter box."""
    original = getattr(owner, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def record_instances(monkeypatch, module, cls):
    """Replace ``module.<cls>`` by a subclass remembering its instances."""
    made = []

    class Recorded(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(module, cls.__name__, Recorded)
    return made


class FrameCount:
    """What one :func:`count_frames` block saw."""

    def __init__(self):
        #: Python frames entered (calls and generator resumes) in files
        #: whose path contains the prefix
        self.frames = 0
        #: the same, by ``(function name, caller's function name)``
        self.by_name = collections.Counter()
        #: the same, by the directory (or file) right after the prefix:
        #: the package, when the prefix is ``"/repro/"``
        self.by_layer = collections.Counter()
        #: numpy functions and ndarray methods called from anywhere
        self.numpy_calls = 0


@contextlib.contextmanager
def count_frames(prefix):
    """Count, by ``sys.setprofile``, the Python frames entered in files
    under ``prefix`` (a path fragment such as ``"repro/sim"``) and the
    numpy C functions and methods called while the block runs."""
    seen = FrameCount()

    def profiler(frame, event, arg):
        if event == "call":
            code = frame.f_code
            path = code.co_filename
            if prefix in path:
                seen.frames += 1
                seen.by_layer[
                    path.partition(prefix)[2].partition("/")[0]] += 1
                back = frame.f_back
                seen.by_name[
                    code.co_name, back.f_code.co_name if back else ""] += 1
        elif event == "c_call":
            owner = getattr(arg, "__self__", None)
            module = (getattr(arg, "__module__", None)
                      or type(owner).__module__)
            if module.partition(".")[0] == "numpy":
                seen.numpy_calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        yield seen
    finally:
        sys.setprofile(previous)


@contextlib.contextmanager
def count_lines(path):
    """Count, by ``sys.settrace``, the source lines executed in files
    whose path ends with ``path`` while the block runs: the work done
    inline in loops, which a frame count cannot see.  Yields a
    one-item list holding the count."""
    lines = [0]

    def local(frame, event, arg):
        if event == "line":
            lines[0] += 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.endswith(path) else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        yield lines
    finally:
        sys.settrace(previous)
