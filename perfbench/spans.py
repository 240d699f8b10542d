"""Benchmark-side spans around calls into the program's layers.

The program is not modified: :meth:`SpanLog.instrument` swaps a
module- or class-level attribute (a public function such as
``Engine.prepare`` or ``Store.lookup_verdict``) for a wrapper that
records a span, and puts the original back on exit.  Spans are kept in
memory and written out as JSON lines when the run ends.

A layer's *self time* is its span's duration minus the time its child
spans cover, so nested layers (``execute`` calling ``prepare`` calling
the result cache) are not counted twice.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager


class SpanLog:
    """An in-memory span recorder.

    Each span is ``(request, id, parent, name, start, end)`` with times
    from ``time.perf_counter``.  ``request`` groups the spans of one
    operation (set by :meth:`request`).
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = 0
        self._lock = threading.Lock()
        self.current_request = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        with self._lock:
            self._ids += 1
            sid = self._ids
        stack = self._stack()
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((self.current_request, sid, parent, name,
                               start, end))

    @contextmanager
    def request(self, number: int):
        """Group the spans of one operation under a root span."""
        self.current_request = number
        with self.span("request"):
            yield

    def wrap(self, fn, name: str):
        """``fn`` with a span around every call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def instrument(self, targets):
        """Patch ``(owner, attribute, span name)`` targets for the body.

        ``owner`` is a module or a class; the attribute is looked up in
        its ``__dict__`` so a patched method is restored exactly.
        """
        saved = []
        try:
            for owner, attr, name in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------------

    def totals(self) -> dict:
        """``{name: {"count", "seconds", "self_seconds"}}`` over all spans."""
        child_time: dict[int, float] = {}
        for __, __, parent, __, start, end in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, dict] = {}
        for __, sid, __, name, start, end in self.spans:
            row = out.setdefault(name, {"count": 0, "seconds": 0.0,
                                        "self_seconds": 0.0})
            row["count"] += 1
            row["seconds"] += end - start
            row["self_seconds"] += (end - start) - child_time.get(sid, 0.0)
        return out

    def write_jsonl(self, path) -> None:
        """Write every span as ``[request, id, parent, name, start_us,
        duration_us]``, one per line, times relative to the first span."""
        base = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for req, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps(
                    [req, sid, parent, name,
                     round((start - base) * 1e6, 3),
                     round((end - start) * 1e6, 3)]) + "\n")
