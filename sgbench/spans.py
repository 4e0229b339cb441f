"""In-memory span recorder that wraps library functions from the outside.

The library is not instrumented. Instead the harness replaces a public
function at the attribute its caller looks up at call time (a module
global such as ``dualtrack.rank``, a class attribute such as
``SIDCache.get``, or an instance attribute such as a generator's
``generate``) with a wrapper that records a span around the original.

A span is (span_id, parent_id, request_id, name, start, end, info).
Spans nest through a per-thread stack; a span opened with an empty stack
starts a new request unless a ``link`` hands it a parent from another
thread (the enhance track runs on worker threads). ``info`` is a small
value computed from the call's arguments and result, such as a length.
Spans stay in memory and are written out once, at exit.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import NamedTuple

RAISED = "raised"


class Span(NamedTuple):
    span_id: int
    parent_id: int        # 0 for a root span
    request_id: int
    name: str
    start: float
    end: float
    info: object

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object, bool]] = []

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple[int, int] | None:
        """(span_id, request_id) of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name: str, fn, args, kwargs, info=None, link=None):
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent, request = stack[-1]
        else:
            linked = link(args, kwargs) if link is not None else None
            parent, request = linked if linked is not None else (0, span_id)
        stack.append((span_id, request))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, request, name, start, end, RAISED))
            raise
        end = time.perf_counter()
        stack.pop()
        note = info(args, kwargs, result) if info is not None else None
        self.spans.append(Span(span_id, parent, request, name, start, end, note))
        return result

    def wrap(self, owner, attr: str, name: str, info=None, link=None):
        """Replace owner.attr with a recording wrapper; undone by unwrap_all()."""
        original = getattr(owner, attr)
        own = attr in vars(owner)
        raw = vars(owner)[attr] if own else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, info, link)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, raw, own))
        return wrapper

    def unwrap_all(self):
        while self._undo:
            owner, attr, raw, own = self._undo.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s._asdict(), default=str) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    covered: dict[int, float] = {}
    by_id = {s.span_id: s for s in spans}
    for s in spans:
        parent = by_id.get(s.parent_id)
        if parent is None:
            continue
        overlap = min(s.end, parent.end) - max(s.start, parent.start)
        if overlap > 0:
            covered[parent.span_id] = covered.get(parent.span_id, 0.0) + overlap
    return {s.span_id: max(0.0, s.duration - covered.get(s.span_id, 0.0)) for s in spans}
