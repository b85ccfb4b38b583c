"""Spans recorded around calls into tplab, kept in memory, and the self
time of each span.

A span opened in a thread that has no open span of its own is a child of
the innermost open span of the thread that created the tracer.  tplab fans
work out to a thread pool and blocks until it returns (fork-join), so that
span is the call that caused the work.
"""

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: "Span" = None
    end: float = None
    attrs: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    @property
    def duration(self):
        return self.end - self.start

    def self_time(self):
        """Duration minus the part of it that child spans cover.

        Children running in other threads may overlap each other, so the
        covered part is the length of the union of their intervals.
        """
        covered = 0.0
        reach = self.start
        for child in sorted(self.children, key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.duration - covered

    def ancestors(self):
        node = self.parent
        while node is not None:
            yield node
            node = node.parent


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._home = threading.get_ident()
        self._home_stack = []
        self._local = threading.local()

    def _stack(self):
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, **attrs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._home_stack[-1]
            except IndexError:
                parent = None
        span = Span(name, self.clock(), parent, attrs=attrs)
        if parent is not None:
            parent.children.append(span)
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span):
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError("span %r closed out of order" % span.name)
        stack.pop()

    @contextmanager
    def span(self, name, **attrs):
        s = self.open(name, **attrs)
        try:
            yield s
        finally:
            self.close(s)

    def wrap(self, fn, name, annotate=None):
        """fn with every call recorded as a span called name.

        annotate(span, fn, args, kwargs, result, exc) may add attributes
        once the call has returned or raised; its cost falls outside the
        span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(s)
                if annotate is not None:
                    annotate(s, fn, args, kwargs, None, exc)
                raise
            self.close(s)
            if annotate is not None:
                annotate(s, fn, args, kwargs, result, None)
            return result

        return traced
