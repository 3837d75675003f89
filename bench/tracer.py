"""In-memory span tracer that wraps module attributes from outside the
program: no code under ``src/`` knows it is being traced.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at top level).  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
        stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spans[index][1:3] = start, perf_counter()
            stack.pop()

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Record calls of ``owner.attr`` as spans called ``name`` while the
        tracer is installed."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        self._patches.append((owner, attr, original, traced))

    @contextmanager
    def installed(self):
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)
        try:
            yield self
        finally:
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while one is open")
        spans = list(self.spans)
        self.spans.clear()
        return spans


def durations(spans: list[list], name: str) -> list[float]:
    return [end - start for n, start, end, _ in spans if n == name]


def self_times(spans: list[list], name: str) -> list[float]:
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (n, start, end, _) in enumerate(spans) if n == name]
