"""Spans around calls into qndsim's layers, installed from outside the package.

Every wrapper replaces one module or class attribute for the duration of
a traced request and restores it afterwards. A span records its name,
start, end, parent span and request; spans stay in memory until
:meth:`Tracer.write` saves them. A target that no longer exists is
reported as missing, and the metrics that depend on it are left out of
the result instead of failing the run.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    parent: int | None
    request: int
    name: str
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.request = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._targets: list = []
        self._saved: list = []

    # -- span bookkeeping ------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # worker threads inherit the main thread's innermost span
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(next(self._ids), parent, self.request, name, 0.0)
        stack.append(span.sid)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    # -- wrappers ----------------------------------------------------------

    def add_target(self, owner, attr: str, make) -> None:
        """Register a patch of ``owner.attr`` by ``make(original)``.

        A target that is not an attribute of ``owner`` itself is recorded
        in ``missing`` and skipped.
        """
        label = "%s.%s" % (getattr(owner, "__name__", owner), attr)
        if owner is None or not callable(vars(owner).get(attr)):
            self.missing.append(label)
            return
        self._targets.append((owner, attr, make))

    def spanned(self, fn, name: str, before=None, after=None):
        """``fn`` wrapped in a span called ``name``.

        ``before(args, kwargs)`` returns a state handed to
        ``after(span, state, result)``, which may fill ``span.info``.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after:
                after(span, state, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for owner, attr, make in self._targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- queries -----------------------------------------------------------

    def named(self, *names, requests=None) -> list[Span]:
        return [
            s for s in self.spans
            if s.name in names and (requests is None or s.request in requests)
        ]

    def children_index(self) -> dict[int, list[Span]]:
        index: dict[int, list[Span]] = {}
        for s in self.spans:
            index.setdefault(s.parent, []).append(s)
        return index

    def self_time(self, span: Span, index: dict[int, list[Span]]) -> float:
        """Duration minus the part of it covered by direct children."""
        kids = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in index.get(span.sid, ())
        ]
        return span.duration - union_length(k for k in kids if k[1] > k[0])

    def write(self, path) -> None:
        """Save every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(
                    [s.request, s.sid, s.parent, s.name, s.start, s.end, s.info]
                ) + "\n")
