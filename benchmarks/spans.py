"""In-memory span tracing of calls into urbanet's modules.

Wrappers are installed on the names each calling module binds (for
example ``trainer._forward`` and ``evaluate._forward`` are separate
bindings of the same function), so only calls that cross a module
boundary become spans.  Spans carry a parent id; a span's self time is
its duration minus the part of it that its children cover.  Nothing under
``src/`` is changed: every wrapper is installed and removed from here.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one thread; ``wrap`` and ``installed``
    put span-recording wrappers on named bindings."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(sid, parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(sid)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, counter=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``counter(args, kwargs, result)`` may return attributes (work
        counts) stored on the span after the call returns.
        """
        # a class attribute is read from __dict__ so restore puts back the
        # exact object (function, staticmethod, ...) that was there
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
            if counter is not None:
                span.attrs.update(counter(args, kwargs, result))
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, bindings):
        """Wrap every ``(module, attribute path, span name, counter)``."""
        try:
            for module_name, path, name, counter in bindings:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                self.wrap(owner, attr, name, counter)
            yield self
        finally:
            self.restore()

    def write(self, path) -> None:
        rows = [
            {"id": s.id, "parent": s.parent, "name": s.name,
             "start": s.start, "end": s.end, "attrs": s.attrs}
            for s in self.spans
        ]
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(rows, fh)
        os.replace(tmp, path)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = s.duration - covered
    return out


@dataclass
class NameTotals:
    calls: int = 0
    total: float = 0.0
    self: float = 0.0
    attrs: dict = field(default_factory=dict)


def totals_by_name(spans: list[Span]) -> dict[str, NameTotals]:
    """Per span name: call count, summed duration, summed self time, and
    summed attributes."""
    own = self_times(spans)
    out: dict[str, NameTotals] = {}
    for s in spans:
        t = out.setdefault(s.name, NameTotals())
        t.calls += 1
        t.total += s.duration
        t.self += own[s.id]
        for key, value in s.attrs.items():
            t.attrs[key] = t.attrs.get(key, 0) + value
    return out
