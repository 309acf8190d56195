"""In-memory span recorder that wraps ``repro`` layer functions from outside.

The traced run replaces public functions and methods of each ``repro.*``
layer with timing wrappers.  Each call becomes a span holding its name,
start, end, parent and thread.  Nothing inside the program changes: the
wrappers sit on module attributes and class methods, and :meth:`Tracer.close`
puts the originals back.

A span's *self time* is its duration minus the union of its children's
intervals.  Children on other threads (compile_batch fans backends out over
a thread pool) hang off the span that was open on the thread that started
the tracer, so the union, not the sum, keeps overlapping children from
being subtracted twice.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "self_times", "union_length"]


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


class _Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "owner", "children", "self_time")

    def __init__(self, name, parent, owner):
        self.name = name
        self.parent = parent
        self.owner = owner
        self.thread = threading.get_ident()
        self.children: list[tuple[float, float]] = []  # child intervals
        self.self_time = 0.0
        self.start = time.perf_counter()
        self.end = None

    def finish(self) -> None:
        """Close the span; every child has ended by now, so self time is final."""
        self.end = time.perf_counter()
        clipped = [(max(s, self.start), min(e, self.end)) for s, e in self.children]
        self.self_time = (self.end - self.start) - union_length(
            [(s, e) for s, e in clipped if e > s]
        )
        self.children = []


class Tracer:
    """Records spans around wrapped callables until :meth:`close`."""

    def __init__(self):
        self.spans: list[_Span] = []
        self._local = threading.local()
        self._root_thread = threading.get_ident()
        self._root_stack: list[_Span] = []
        self._restore: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self.instances: dict[str, list] = defaultdict(list)

    # -- recording ---------------------------------------------------------------------

    def _stack(self) -> list[_Span]:
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _finish(self, span: _Span) -> None:
        with self._lock:
            span.finish()
            self.spans.append(span)
            if span.parent is not None:
                span.parent.children.append((span.start, span.end))

    def _wrapper(self, func, name, *, method: bool):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            owner = args[0] if method and args else None
            stack = tracer._stack()
            top = stack[-1] if stack else None
            if method and top is not None and top.owner is owner:
                # A method of the same object already has a span open (an
                # override calling super(), __call__ calling forward).
                return func(*args, **kwargs)
            if top is None and stack is not tracer._root_stack and tracer._root_stack:
                top = tracer._root_stack[-1]
            span_name = name(owner) if callable(name) else name
            span = _Span(span_name, top, owner)
            stack.append(span)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()
                tracer._finish(span)

        return traced

    # -- wrapping ----------------------------------------------------------------------

    def wrap_function(self, func, name: str) -> None:
        """Wrap ``func`` under every ``repro`` module attribute bound to it.

        Callers that did ``from ..linalg.decompositions import synthesize_1q``
        hold their own reference, so each importing module is patched, not
        only the defining one.
        """
        wrapped = self._wrapper(func, name, method=False)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapped)

    def wrap_method(self, cls, attr: str, name) -> None:
        """Wrap ``cls.attr``; ``name`` is a string or a function of the instance."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            inner = self._wrapper(original.__func__, name, method=False)
            setattr(cls, attr, classmethod(inner))
        else:
            setattr(cls, attr, self._wrapper(original, name, method=True))
        self._restore.append((cls, attr, original))

    def track_instances(self, cls, key: str) -> None:
        """Remember every instance of ``cls`` created while tracing."""
        original = cls.__dict__["__init__"]
        instances = self.instances[key]

        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            instances.append(obj)

        setattr(cls, "__init__", init)
        self._restore.append((cls, "__init__", original))

    def replace_in_dict(self, mapping: dict, key, name: str) -> None:
        func = mapping[key]
        self.wrap_function(func, name)
        mapping[key] = self._wrapper(func, name, method=False)
        self._restore.append((mapping, key, func))

    def close(self) -> None:
        """Put every wrapped attribute back (in reverse order)."""
        for target, attr, value in reversed(self._restore):
            if isinstance(target, dict):
                target[attr] = value
            else:
                setattr(target, attr, value)
        self._restore.clear()


def self_times(spans: list[_Span]) -> tuple[dict[str, float], dict[str, int]]:
    """Total self time (seconds) and call count per span name."""
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span in spans:
        seconds[span.name] += span.self_time
        calls[span.name] += 1
    return dict(seconds), dict(calls)
