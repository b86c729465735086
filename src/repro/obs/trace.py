"""Span-based tracing: follow one request or one compile end to end.

A :class:`Span` is a named interval on the shared monotonic clock with
attributes, an explicit ``span_id``, and a ``parent_id`` — so spans
from *different processes* stitch into one tree as long as they share a
``trace_id``. That is exactly what the serving fleet needs: the front
door opens a ``fleet.request`` root span, sends its
:class:`TraceContext` (three strings — picklable) over the worker pipe,
the worker parents its execution spans under it and ships the finished
spans back in the reply. Timestamps use ``time.monotonic_ns()``, which
on Linux is ``CLOCK_MONOTONIC`` — one clock per boot, shared by parent
and (forked or spawned) children, so cross-process spans are directly
comparable.

Tracing is **off by default** and must cost ~nothing when off. The
contract every instrumented hot path follows::

    tracer = get_tracer()          # one attribute read, usually None
    ...
    if tracer is not None:         # per-step guard: one branch
        t0 = now_ns()
        ...work...
        tracer.record("exec.step", t0, ...)
    else:
        ...work...

``tests/test_obs.py::test_disabled_overhead_gate`` measures the
disabled-path guard and gates it at <= 2% of the fast-mode inference
wall-clock; the enabled cost is the ``obs.enabled_overhead_pct`` metric
of ``BENCHMARK.json``.

Cold paths (the compiler) use the :func:`trace_span` context manager,
which no-ops when tracing is disabled.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, NamedTuple, Optional

__all__ = [
    "Span", "TraceContext", "Tracer",
    "get_tracer", "enable_tracing", "disable_tracing", "trace_span",
    "collect", "now_ns",
]

#: span id source; combined with the pid so ids from forked fleet
#: workers (which inherit the counter state) never collide with the
#: parent's.
_ids = itertools.count(1)


def _new_id() -> str:
    return f"{os.getpid():x}-{next(_ids):x}"


def now_ns() -> int:
    """The tracing clock (``CLOCK_MONOTONIC``, shared across
    processes on one host)."""
    return time.monotonic_ns()


class TraceContext(NamedTuple):
    """What crosses a process/pipe boundary: enough to parent remote
    spans into the originating trace. Plain strings — pickles small."""

    trace_id: str
    span_id: str
    request_id: str = ""


@dataclass
class Span:
    """One named interval of one trace.

    ``parent_id`` is ``None`` only for trace roots; ``attrs`` hold
    small JSON-safe values (numbers / strings) so every exporter can
    serialize them verbatim.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    category: str = ""
    t_start_ns: int = 0
    t_end_ns: int = 0
    pid: int = 0
    thread: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return max(self.t_end_ns - self.t_start_ns, 0)

    @property
    def duration_ms(self) -> float:
        return self.duration_ns / 1e6

    def context(self) -> TraceContext:
        """The context a child (possibly in another process) parents
        under."""
        return TraceContext(self.trace_id, self.span_id,
                            str(self.attrs.get("request_id", "")))


class Tracer:
    """Collects finished spans; thread-safe.

    Parenting is implicit within a thread (a stack kept in a
    ``threading.local``) and explicit across threads/processes via
    ``parent=`` (a :class:`Span` or :class:`TraceContext`).
    ``root_context`` seeds the implicit parent — the fleet worker sets
    it to the front door's request context so every span it opens lands
    in the caller's trace.
    """

    def __init__(self, root_context: Optional[TraceContext] = None):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.root_context = root_context
        self.spans: List[Span] = []

    # -- span lifecycle ------------------------------------------------------

    def _parent_of(self, parent) -> tuple:
        """Resolve (trace_id, parent_id) for a new span."""
        if parent is not None:
            if isinstance(parent, Span):
                return parent.trace_id, parent.span_id
            return parent.trace_id, parent.span_id  # TraceContext
        stack = getattr(self._local, "stack", None)
        if stack:
            top = stack[-1]
            return top.trace_id, top.span_id
        if self.root_context is not None:
            return self.root_context.trace_id, self.root_context.span_id
        return _new_id(), None

    def begin(self, name: str, category: str = "", parent=None,
              **attrs) -> Span:
        """Open a span without making it the ambient parent (for spans
        finished on another thread, e.g. a fleet request's root)."""
        trace_id, parent_id = self._parent_of(parent)
        return Span(name=name, trace_id=trace_id, span_id=_new_id(),
                    parent_id=parent_id, category=category,
                    t_start_ns=now_ns(), pid=os.getpid(),
                    thread=threading.current_thread().name, attrs=attrs)

    def finish(self, span: Span, **attrs) -> Span:
        """Close an open span and collect it."""
        if attrs:
            span.attrs.update(attrs)
        span.t_end_ns = now_ns()
        with self._lock:
            self.spans.append(span)
        return span

    def record(self, name: str, t_start_ns: int, category: str = "",
               parent=None, **attrs) -> Span:
        """Collect an already-elapsed interval (hot-path form: one
        clock read before the work, one call after)."""
        trace_id, parent_id = self._parent_of(parent)
        span = Span(name=name, trace_id=trace_id, span_id=_new_id(),
                    parent_id=parent_id, category=category,
                    t_start_ns=t_start_ns, t_end_ns=now_ns(),
                    pid=os.getpid(),
                    thread=threading.current_thread().name, attrs=attrs)
        with self._lock:
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, category: str = "", parent=None,
             **attrs) -> Iterator[Span]:
        """Context manager: the span is the ambient parent inside the
        ``with`` block and is collected on exit (exceptions included,
        marked with ``error=...``)."""
        sp = self.begin(name, category=category, parent=parent, **attrs)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.attrs["error"] = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            stack.pop()
            self.finish(sp)

    # -- aggregation ---------------------------------------------------------

    def current_context(self) -> Optional[TraceContext]:
        """Context of the innermost open span on this thread."""
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1].context()
        return self.root_context

    def adopt(self, spans: List[Span]) -> None:
        """Merge spans finished elsewhere (e.g. shipped back from a
        fleet worker) into this tracer."""
        if not spans:
            return
        with self._lock:
            self.spans.extend(spans)

    def drain(self) -> List[Span]:
        """Return and clear all collected spans."""
        with self._lock:
            out, self.spans = self.spans, []
        return out

    def snapshot(self) -> List[Span]:
        with self._lock:
            return list(self.spans)


# -- process-wide switch ------------------------------------------------------

_tracer: Optional[Tracer] = None


def get_tracer() -> Optional[Tracer]:
    """The process-wide tracer, or ``None`` when tracing is disabled.

    This is *the* hot-path guard: instrumented code reads it once per
    operation and branches on ``is not None``.
    """
    return _tracer


def enable_tracing(tracer: Optional[Tracer] = None) -> Tracer:
    """Install (and return) the process-wide tracer."""
    global _tracer
    _tracer = tracer if tracer is not None else Tracer()
    return _tracer


def disable_tracing() -> Optional[Tracer]:
    """Remove the process-wide tracer; returns it (spans intact)."""
    global _tracer
    out, _tracer = _tracer, None
    return out


@contextmanager
def trace_span(name: str, category: str = "",
               **attrs) -> Iterator[Optional[Span]]:
    """Span context manager that no-ops when tracing is disabled.

    For cold paths (compilation, CLI): one global read when disabled,
    a real span when enabled.
    """
    tracer = _tracer
    if tracer is None:
        yield None
        return
    with tracer.span(name, category=category, **attrs) as sp:
        yield sp


@contextmanager
def collect(parent: Optional[TraceContext] = None) -> Iterator[Tracer]:
    """Install a *fresh* tracer for the duration of the block.

    The fleet worker wraps each traced request in this: spans opened by
    anything downstream (the executor's per-step instrumentation
    included) land in an isolated tracer parented under the caller's
    context, ready to ship back over the pipe. The previous tracer —
    including "disabled" — is restored on exit.
    """
    global _tracer
    prev = _tracer
    local = Tracer(root_context=parent)
    _tracer = local
    try:
        yield local
    finally:
        _tracer = prev
