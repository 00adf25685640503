"""Tracing: nested, timed spans with a per-query trace id.

One :class:`Tracer` serves the whole process.  Tracing is **off by default**
and the disabled path is engineered to cost (almost) nothing: every
instrumentation site calls the module-level :func:`span`, which — when no
tracer is installed — returns the shared :data:`NULL_SPAN` singleton whose
``__enter__``/``__exit__``/``set`` are empty methods.  No span object is
allocated, no clock is read, no attribute dict is built.  Sites that want to
attach non-trivial attributes guard the computation on ``span.enabled`` so
the disabled path does not even evaluate the attribute expressions::

    from repro.obs import trace as _trace

    with _trace.span("store.commit_batch") as sp:
        ...                         # the traced work
        if sp.enabled:
            sp.set(writes=len(effective))

The cost ledger's ``obs.disabled_vs_stripped`` cell (``tools/cost_ledger.py``)
pins this contract: a workload run with tracing disabled must make at most
1.05× the calls of the same workload with the hooks monkeypatched to
literal no-ops.

When a tracer is installed (:func:`enable`), spans nest through a
thread-local stack: a span started while another is active becomes its child
and inherits its ``trace_id``; a span started with no active parent opens a
**new trace** (a fresh ``trace_id``) and, when it exits, the finished tree is
appended to the tracer's bounded ring of completed traces.  The per-query
trace id is exactly this: :meth:`repro.api.Session.execute` opens a root span
per query, so everything the query touches — plan binding, store access-path
decisions, WAL appends, engine rounds — hangs off one id.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from itertools import count
from typing import Dict, List, Optional

__all__ = [
    "NULL_SPAN",
    "Span",
    "Tracer",
    "current_tracer",
    "disable",
    "enable",
    "render_span",
    "set_tracer",
    "span",
]


class _NullSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()
    enabled = False
    name = trace_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullSpan>"


#: The singleton no-op span; identity-checkable in tests.
NULL_SPAN = _NullSpan()


class Span:
    """One timed operation: a node in a trace tree.

    Spans are context managers; entering starts the clock and pushes the span
    onto the tracer's thread-local stack (so spans opened inside become
    children), exiting stops the clock and pops it.  ``attrs`` carries
    arbitrary key → value annotations (:meth:`set`); ``children`` the nested
    spans in start order.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "attrs",
        "children",
        "start_ns",
        "duration_ns",
        "_tracer",
    )
    enabled = True

    def __init__(self, tracer: "Tracer", name: str, attrs: Optional[dict] = None):
        self._tracer = tracer
        self.name = name
        self.trace_id: Optional[str] = None
        self.span_id: int = 0
        self.parent_id: Optional[int] = None
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        self.children: List["Span"] = []
        self.start_ns = 0
        self.duration_ns: Optional[int] = None

    def set(self, **attrs) -> None:
        """Attach (or overwrite) attribute annotations on this span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.duration_ns = time.perf_counter_ns() - self.start_ns
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)
        return False

    def as_dict(self) -> dict:
        """A JSON-friendly rendering of the span subtree."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "duration_ns": self.duration_ns,
            "attrs": dict(self.attrs),
            "children": [child.as_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        took = "..." if self.duration_ns is None else f"{self.duration_ns}ns"
        return f"<Span {self.name} trace={self.trace_id} {took} {self.attrs}>"


class Tracer:
    """Collects spans into per-trace trees; one instance traces the process.

    Thread-safe: each thread nests spans through its own stack, finished
    traces land in one lock-guarded bounded ring (``max_traces``, oldest
    evicted first) so a long-lived traced process cannot grow without bound.
    """

    enabled = True

    def __init__(self, *, max_traces: int = 128):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._finished: "deque[Span]" = deque(maxlen=max_traces)
        self._trace_ids = count(1)
        self._span_ids = count(1)

    # -- span lifecycle -----------------------------------------------------------------
    def span(self, name: str, **attrs) -> Span:
        """A new span, ready to be entered (``with tracer.span(...) as sp``)."""
        return Span(self, name, attrs or None)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, span: Span) -> None:
        stack = self._stack()
        span.span_id = next(self._span_ids)
        if stack:
            parent = stack[-1]
            span.trace_id = parent.trace_id
            span.parent_id = parent.span_id
            parent.children.append(span)
        else:
            span.trace_id = f"t-{next(self._trace_ids):06d}"
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        # Exits are well-nested by construction (spans are context managers),
        # but a generator held across spans could in principle unwind out of
        # order; popping down to the span keeps the stack consistent.
        while stack:
            top = stack.pop()
            if top is span:
                break
        if span.parent_id is None:
            with self._lock:
                self._finished.append(span)

    # -- introspection ------------------------------------------------------------------
    def active(self) -> Optional[Span]:
        """The innermost span currently open on this thread (or ``None``)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def traces(self) -> List[Span]:
        """The finished root spans, oldest first (a copy)."""
        with self._lock:
            return list(self._finished)

    def find(self, trace_id: str) -> Optional[Span]:
        """The finished trace with the given id, or ``None``."""
        with self._lock:
            for root in reversed(self._finished):
                if root.trace_id == trace_id:
                    return root
        return None

    def clear(self) -> None:
        """Drop every finished trace (open spans are unaffected)."""
        with self._lock:
            self._finished.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tracer {len(self._finished)} finished traces>"


#: The installed tracer; ``None`` means tracing is disabled (the default).
_tracer: Optional[Tracer] = None


def span(name: str, **attrs):
    """A span under the installed tracer — or :data:`NULL_SPAN` when disabled.

    This is the one hook every instrumentation site calls; keep the disabled
    path to a global read and a ``None`` check.
    """
    tracer = _tracer
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


def current_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is disabled."""
    return _tracer


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer`` (``None`` disables tracing); returns the previous one."""
    global _tracer
    previous, _tracer = _tracer, tracer
    return previous


def enable(*, max_traces: int = 128) -> Tracer:
    """Turn tracing on (idempotent) and return the installed tracer."""
    global _tracer
    if _tracer is None:
        _tracer = Tracer(max_traces=max_traces)
    return _tracer


def disable() -> None:
    """Turn tracing off; subsequent :func:`span` calls are no-ops again."""
    set_tracer(None)


def format_ns(ns: Optional[int]) -> str:
    """Human-scale rendering of a nanosecond duration (``812ns``…``1.24s``)."""
    if ns is None:
        return "?"
    if ns < 1_000:
        return f"{ns}ns"
    if ns < 1_000_000:
        return f"{ns / 1_000:.1f}µs"
    if ns < 1_000_000_000:
        return f"{ns / 1_000_000:.1f}ms"
    return f"{ns / 1_000_000_000:.2f}s"


def render_span(span: Span, *, indent: str = "") -> str:
    """An indented text tree of one span and its children, with durations."""
    attrs = ""
    if span.attrs:
        attrs = "  " + " ".join(
            f"{key}={value}" for key, value in sorted(span.attrs.items())
        )
    lines = [f"{indent}{span.name}  [{format_ns(span.duration_ns)}]{attrs}"]
    for child in span.children:
        lines.append(render_span(child, indent=indent + "  "))
    return "\n".join(lines)
