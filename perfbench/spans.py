"""Span tracer that measures the program's layers from outside.

The benchmark never edits the program to time it.  Instead a
:class:`Tracer` replaces a public function or method with a wrapper
that records a span (name, start, end, parent, trace id) around each
call, or only counts the call, and :meth:`Tracer.uninstall` puts every
original back.  Spans stay in memory; :func:`self_times` turns them
into per-name self time (a span's duration minus the part its child
spans cover), so nested and recursive spans are never counted twice.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 for a root
    trace: str       # circuit or job the span belongs to


class Tracer:
    """In-memory spans plus call counters and summed call measures."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.calls: Counter = Counter()
        self.values: Counter = Counter()
        self.trace = ""
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.trace))
        self.calls[name] += 1
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = self.clock()

    def timed(self, name: str, fn: Callable,
              measure: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span.  ``measure(values, result, args)``
        runs after every call, also one that raised (``result`` is then
        ``None``), and may add to :attr:`values`."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = None
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
                return result
            finally:
                if measure is not None:
                    measure(self.values, result, args)
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count its calls only (no span, for hot
        helpers whose time belongs to the span around them)."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, make: Callable[[Callable], Callable]
              ) -> None:
        """Replace ``owner.attr`` by ``make(original)``.

        Class attributes keep their descriptor kind, so a classmethod
        stays a classmethod.  Module attributes are patched at the
        module that imported the name, which is where callers look it
        up.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the time its direct
    children cover; children of one span never overlap because calls
    nest on one thread.
    """
    covered = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    totals: Dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        totals[span.name] += (span.end - span.start) - covered[index]
    return dict(totals)


def root_total(spans: List[Span]) -> float:
    """Wall time covered by root spans."""
    return sum(s.end - s.start for s in spans if s.parent < 0)


def spans_to_json(spans: List[Span]) -> list:
    return [[s.name, s.start, s.end, s.parent, s.trace] for s in spans]
