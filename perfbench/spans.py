"""In-memory spans for the traced run.

Spans are recorded from the benchmark's own code: around its direct calls
into mmudn, and around the public functions ``mmudn.simulator`` looks up in
its own namespace, which ``Tracer.patched`` replaces for the duration of a
traced pass and restores afterwards.  Spans stay in memory; the benchmark
reduces them to per-layer figures when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name, parent, attrs):
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs):
        s = Span(name, self._stack[-1] if self._stack else None, attrs)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def enclosing(self, key: str):
        """The value of ``key`` on the innermost open span that carries it."""
        for s in reversed(self._stack):
            if key in s.attrs:
                return s.attrs[key]
        return None

    @contextmanager
    def patched(self, module, hooks: dict):
        """Replace ``module.<attr>`` by a spanned wrapper for each
        ``attr: (span_name, before, after)``: ``before(args)`` gives the
        span's attributes at entry, so nested spans can read them, and
        ``after(span, args, result)`` runs once the span has closed, to attach
        counts without timing them."""
        originals = {attr: getattr(module, attr) for attr in hooks}
        for attr, (name, before, after) in hooks.items():
            setattr(module, attr, self._wrap(originals[attr], name, before, after))
        try:
            yield
        finally:
            for attr, fn in originals.items():
                setattr(module, attr, fn)

    def _wrap(self, fn, name, before, after):
        def wrapper(*args, **kwargs):
            with self.span(name, **(before(args) if before else {})) as s:
                out = fn(*args, **kwargs)
            if after is not None:
                after(s, args, out)
            return out

        return wrapper

    def self_time(self, names) -> float:
        """Summed duration of the named spans minus the time covered by their
        direct children (children never overlap: traced passes use one worker)."""
        names = set(names)
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None and s.parent.name in names:
                child_time[id(s.parent)] = child_time.get(id(s.parent), 0.0) + s.duration
        return sum(s.duration - child_time.get(id(s), 0.0) for s in self.spans if s.name in names)

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def attr_sum(self, name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in self.spans if s.name == name)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]
