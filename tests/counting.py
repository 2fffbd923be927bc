"""Count-based test helpers: wrap a function to count its calls, or a
class to remember its instances, for the length of one test."""

from __future__ import annotations


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
