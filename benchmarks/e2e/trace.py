"""In-memory span recorder used by the traced run.

Spans are recorded from the benchmark's own files, around the calls into
each layer: either a ``with tracer.span(...)`` around a call the
benchmark makes, or :meth:`Tracer.patch` shadowing one public method of
one *instance* (a simulation, an engine, a communicator) for the length
of the traced phase.  Nothing inside ``src/`` is edited or imported for
tracing, and the untraced run executes none of this.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    #: Raw seconds covered by direct child spans.
    child_seconds: float = 0.0
    #: Reference host speed over host speed while the span ran.
    scale: float = 1.0

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * self.scale

    @property
    def self_seconds(self) -> float:
        return (self.end - self.start - self.child_seconds) * self.scale

    @property
    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span


class Tracer:
    """Per-thread span stacks; spans of one op share their root span."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: thread name -> spans in the order they were opened
        self.by_thread: dict[str, list[Span]] = {}

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            spans: list[Span] = []
            with self._lock:
                self.by_thread[threading.current_thread().name] = spans
            state = self._local.state = (spans, [])
        return state

    @contextmanager
    def span(self, name: str):
        spans, stack = self._state()
        parent = stack[-1] if stack else None
        span = Span(name, parent, time.perf_counter())
        spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_seconds += span.end - span.start

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def patch(self, obj, method: str, name: str):
        """Record calls of ``obj.method`` as spans; returns the undo."""
        setattr(obj, method, self.wrap(name, getattr(obj, method)))
        return lambda: delattr(obj, method)

    def normalise(self, host) -> None:
        """Report every span at reference host speed (see ``HostSpeed``)."""
        for span in self.spans():
            span.scale = 1.0 / host.index(span.start, span.end)

    # -- read-out ----------------------------------------------------------
    def spans(self, thread: str | None = None) -> list[Span]:
        if thread is not None:
            return self.by_thread.get(thread, [])
        return [s for spans in self.by_thread.values() for s in spans]

    def per_op(self, name: str, thread: str | None = None,
               self_time: bool = False) -> list[float]:
        """Seconds spent in spans called ``name``, summed per op (root
        span), for every op of ``thread`` — zero where an op never
        entered the layer."""
        sums: dict[int, float] = {}
        for span in self.spans(thread):
            root = span.root
            key = id(root)
            if span is root:
                sums.setdefault(key, 0.0)
            if span.name == name:
                sums[key] = sums.get(key, 0.0) + (
                    span.self_seconds if self_time else span.seconds)
        return list(sums.values())

    def each(self, name: str, thread: str | None = None) -> list[float]:
        """Seconds of every individual span called ``name``."""
        return [s.seconds for s in self.spans(thread) if s.name == name]

    def unattributed_fraction(self, thread: str | None = None) -> float:
        """1 − Σ layer self time ÷ op wall: the share of the ops' wall
        clock that no layer span covers (the roots' own self time)."""
        roots = [s for s in self.spans(thread) if s.parent is None]
        wall = sum(s.seconds for s in roots)
        return sum(s.self_seconds for s in roots) / wall if wall else 0.0


class SpanProxy:
    """Stand-in for an object whose instance cannot take a patched
    attribute (a scheduler is pickled to engine workers, attributes and
    all): delegates everything, recording the named methods as spans."""

    def __init__(self, target, tracer: Tracer, methods: dict[str, str]):
        self._target = target
        self._tracer = tracer
        self._methods = methods

    def __getattr__(self, attr):
        value = getattr(self._target, attr)
        name = self._methods.get(attr)
        return self._tracer.wrap(name, value) if name else value
