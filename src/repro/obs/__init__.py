"""repro.obs — unified tracing, metrics and EXPLAIN ANALYZE support.

Before this subsystem existed, instrumentation was fragmented: the engine
kept per-run counters in :class:`~repro.plan.stats.EngineStats`, the store
kept access-path counters in ``ObjectDatabase.access_stats``, the session
kept cache counters in ``Session.cache_info()`` — three disjoint records
with no timings, no latency distributions and no way to correlate the work
one query caused across layers.  ``repro.obs`` is the common substrate, in
three pillars:

* **Tracing** (:mod:`repro.obs.trace`) — nested, timed spans with a
  per-query trace id.  Disabled by default and engineered to be a no-op when
  off; :func:`enable_tracing` turns it on process-wide.  The hot path is
  instrumented end to end: ``session.execute`` / ``session.close`` roots,
  plan compile/optimize, engine strata and semi-naive rounds (with delta
  sizes), store commits, WAL appends/fsyncs and recovery.

* **Metrics** (:mod:`repro.obs.metrics`) — one process-wide
  :class:`MetricsRegistry` of counters, gauges and log-scale latency
  histograms, absorbing and unifying the pre-existing ad-hoc stats.
  :func:`snapshot` exports everything as one JSON document; the CLI's
  ``repro stats`` prints it.

* **EXPLAIN ANALYZE** — ``Session.explain(..., analyze=True)`` /
  ``Program.explain(analyze=True)`` / the CLI ``--explain-analyze`` flags
  execute the plan and render **actual rows and wall time per plan node**
  next to the optimizer's estimates, and ``Session(slow_query_ms=...)``
  keeps a slow-query log (query text, bound parameters, trace).

Quick use::

    import json, repro, repro.obs

    repro.obs.enable_tracing()
    with repro.connect(slow_query_ms=10) as session:
        session.put("r1", repro.parse_object("{[name: ada]}"))
        session.query("[r1: {[name: X]}]")
        print(session.explain("[r1: {[name: X]}]", analyze=True))
    print(json.dumps(repro.obs.snapshot(), indent=2))
    for root in repro.obs.traces():
        print(repro.obs.render_trace(root))
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs import metrics, trace
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS_NS,
    MetricsRegistry,
    REGISTRY,
    counter,
    gauge,
    histogram,
)
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Tracer,
    current_tracer,
    format_ns,
    render_span,
    span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_NS",
    "MetricsRegistry",
    "NULL_SPAN",
    "REGISTRY",
    "Span",
    "Tracer",
    "counter",
    "current_tracer",
    "disable_tracing",
    "enable_tracing",
    "format_ns",
    "gauge",
    "histogram",
    "metrics",
    "render_trace",
    "snapshot",
    "span",
    "trace",
    "traces",
]

#: Schema tag of the :func:`snapshot` document.
SNAPSHOT_SCHEMA = "repro-obs/v1"


def enable_tracing(*, max_traces: int = 128) -> Tracer:
    """Install the process tracer (idempotent) and return it."""
    return trace.enable(max_traces=max_traces)


def disable_tracing() -> None:
    """Uninstall the tracer; span hooks return to no-ops."""
    trace.disable()


def traces() -> List[Span]:
    """The finished traces of the installed tracer (empty when disabled)."""
    tracer = trace.current_tracer()
    return tracer.traces() if tracer is not None else []


def render_trace(root: Span) -> str:
    """Indented text rendering of one finished trace (name, duration, attrs)."""
    return render_span(root)


def snapshot(registry: Optional[MetricsRegistry] = None) -> dict:
    """One JSON document covering every metric plus the tracing state.

    The counters/gauges/histograms use dotted section prefixes —
    ``engine.*`` (semi-naive evaluation work), ``session.*`` (query traffic
    and the plan/closure caches), ``store.*`` (commits, conflicts, index
    access paths, WAL appends/bytes/fsyncs, lock contention) — so one
    document answers "what has this process been doing" across layers.
    """
    chosen = registry if registry is not None else REGISTRY
    tracer = trace.current_tracer()
    document = {"schema": SNAPSHOT_SCHEMA, "tracing": {
        "enabled": tracer is not None,
        "finished_traces": len(tracer.traces()) if tracer is not None else 0,
    }}
    document.update(chosen.snapshot())
    return document
