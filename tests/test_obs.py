"""Unit tests for the observability substrate: repro.obs.trace / .metrics.

Covers the no-op contract of disabled tracing (the shared NULL_SPAN, no
allocation), span nesting and trace-id assignment, the inclusive-upper-bound
bucketing of the log-scale histograms, the registry's snapshot shape, and the
prepare→execute trace-id propagation through the session facade.
"""

import threading

import pytest

import repro
from repro.obs import metrics, trace
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS_NS,
    MetricsRegistry,
)
from repro.obs.trace import NULL_SPAN, Tracer, format_ns, render_span


@pytest.fixture
def tracer():
    installed = trace.enable(max_traces=64)
    installed.clear()
    yield installed
    trace.disable()


# -- disabled tracing is a no-op --------------------------------------------------------


def test_disabled_span_is_the_null_singleton():
    trace.disable()
    assert trace.span("anything") is NULL_SPAN
    assert trace.span("something-else", attr=1) is NULL_SPAN
    assert NULL_SPAN.enabled is False


def test_null_span_is_an_inert_context_manager():
    trace.disable()
    with trace.span("nothing") as span:
        assert span is NULL_SPAN
        span.set(rows=7)  # must not raise, must not record
    assert trace.current_tracer() is None


def test_enable_disable_roundtrip():
    first = trace.enable()
    again = trace.enable()
    assert first is again  # idempotent
    assert trace.current_tracer() is first
    trace.disable()
    assert trace.current_tracer() is None
    assert trace.span("after") is NULL_SPAN


# -- span nesting and trace ids ---------------------------------------------------------


def test_span_nesting_builds_a_tree(tracer):
    with trace.span("root") as root:
        with trace.span("child-a") as child_a:
            with trace.span("leaf") as leaf:
                pass
        with trace.span("child-b") as child_b:
            pass
    assert [child.name for child in root.children] == ["child-a", "child-b"]
    assert child_a.children == [leaf]
    assert child_b.children == []
    assert root.parent_id is None
    assert child_a.parent_id == root.span_id
    assert leaf.parent_id == child_a.span_id


def test_children_inherit_the_root_trace_id(tracer):
    with trace.span("root") as root:
        with trace.span("inner") as inner:
            pass
    assert root.trace_id is not None
    assert inner.trace_id == root.trace_id


def test_separate_roots_open_separate_traces(tracer):
    with trace.span("first") as first:
        pass
    with trace.span("second") as second:
        pass
    assert first.trace_id != second.trace_id
    finished = tracer.traces()
    assert [span.name for span in finished] == ["first", "second"]
    assert tracer.find(first.trace_id) is first
    assert tracer.find("t-999999") is None


def test_spans_record_durations_and_attrs(tracer):
    with trace.span("timed", phase="x") as span:
        span.set(rows=3)
    assert span.duration_ns is not None and span.duration_ns >= 0
    assert span.attrs == {"phase": "x", "rows": 3}
    rendered = render_span(span)
    assert "timed" in rendered and "rows=3" in rendered


def test_span_records_the_escaping_exception(tracer):
    with pytest.raises(ValueError):
        with trace.span("failing") as span:
            raise ValueError("boom")
    assert span.attrs["error"] == "ValueError"
    assert span.duration_ns is not None


def test_finished_ring_is_bounded():
    tracer = Tracer(max_traces=3)
    previous = trace.set_tracer(tracer)
    try:
        for number in range(5):
            with trace.span(f"root-{number}"):
                pass
    finally:
        trace.set_tracer(previous)
    names = [span.name for span in tracer.traces()]
    assert names == ["root-2", "root-3", "root-4"]


def test_threads_do_not_share_span_stacks(tracer):
    seen = {}

    def worker():
        with trace.span("thread-root") as span:
            seen["trace_id"] = span.trace_id

    with trace.span("main-root") as main_root:
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        # The other thread's root must NOT have nested under ours.
        assert main_root.children == []
    assert seen["trace_id"] != main_root.trace_id


# -- the session facade propagates trace ids --------------------------------------------


def test_prepare_to_execute_trace_propagation(tracer):
    with repro.connect() as session:
        session.put("r1", repro.parse_object("{[name: ada]}"))
        prepared = session.prepare("[r1: {[name: $who]}]")
        assert prepared.trace_id is not None
        prepared.execute(who="ada").all()
    roots = {span.name: span for span in tracer.traces()}
    execute_root = roots["session.execute"]
    assert execute_root.attrs["prepared_from"] == prepared.trace_id
    assert execute_root.trace_id != prepared.trace_id


def test_ad_hoc_execute_has_no_prepared_link(tracer):
    with repro.connect() as session:
        session.put("r1", repro.parse_object("{[name: ada]}"))
        session.query("[r1: {[name: X]}]")
    roots = [span for span in tracer.traces() if span.name == "session.execute"]
    assert roots and "prepared_from" not in roots[0].attrs


# -- format_ns ---------------------------------------------------------------------------


def test_format_ns_scales():
    assert format_ns(None) == "?"
    assert format_ns(812) == "812ns"
    assert format_ns(12_345) == "12.3µs"
    assert format_ns(4_500_000) == "4.5ms"
    assert format_ns(1_240_000_000) == "1.24s"


# -- counters and gauges -----------------------------------------------------------------


def test_counter_is_monotonic():
    counter = Counter("c")
    counter.inc()
    counter.inc(41)
    assert counter.value == 42
    with pytest.raises(ValueError):
        counter.inc(-1)
    assert counter.value == 42


def test_gauge_moves_both_ways():
    gauge = Gauge("g")
    gauge.set(10)
    gauge.inc(5)
    gauge.dec(3)
    assert gauge.value == 12


# -- histogram bucketing -----------------------------------------------------------------


def test_histogram_buckets_are_inclusive_upper_bounds():
    histogram = Histogram("h", buckets=(10, 100, 1000))
    histogram.observe(10)  # exactly on a bound → that bucket, not the next
    histogram.observe(11)
    histogram.observe(1000)
    histogram.observe(5000)  # overflow bucket
    rendered = histogram.as_dict()
    assert rendered["count"] == 4
    assert rendered["buckets"] == {"10": 1, "100": 1, "1000": 1, "+inf": 1}
    assert rendered["min"] == 10 and rendered["max"] == 5000


def test_histogram_quantiles_report_bucket_upper_bounds():
    histogram = Histogram("h", buckets=(10, 100, 1000))
    for _ in range(99):
        histogram.observe(5)
    histogram.observe(500)
    assert histogram.quantile(0.5) == 10
    assert histogram.quantile(1.0) == 1000
    assert histogram.quantile(0.0) == 10
    with pytest.raises(ValueError):
        histogram.quantile(1.5)


def test_empty_histogram_has_no_quantiles():
    histogram = Histogram("h")
    assert histogram.quantile(0.5) is None
    rendered = histogram.as_dict()
    assert rendered["count"] == 0 and rendered["p95"] is None


def test_default_buckets_are_log_scale_nanoseconds():
    assert LATENCY_BUCKETS_NS[0] == 2**10
    assert LATENCY_BUCKETS_NS[-1] == 2**36
    ratios = {
        LATENCY_BUCKETS_NS[i + 1] // LATENCY_BUCKETS_NS[i]
        for i in range(len(LATENCY_BUCKETS_NS) - 1)
    }
    assert ratios == {2}


def test_histogram_rejects_unsorted_buckets():
    with pytest.raises(ValueError):
        Histogram("h", buckets=(100, 10))


# -- the registry ------------------------------------------------------------------------


def test_registry_get_or_create_returns_the_same_instrument():
    registry = MetricsRegistry(declare=False)
    assert registry.counter("x") is registry.counter("x")
    assert registry.histogram("y") is registry.histogram("y")
    assert registry.gauge("z") is registry.gauge("z")


def test_registry_predeclares_every_section():
    registry = MetricsRegistry()
    snapshot = registry.snapshot()
    counters = snapshot["counters"]
    for section in ("engine.", "session.", "store.index.", "store.wal.", "store.lock."):
        assert any(name.startswith(section) for name in counters), section
    assert "engine.round_ns" in snapshot["histograms"]
    assert "session.query_ns" in snapshot["histograms"]


def test_registry_reset_zeroes_but_keeps_declared_names():
    registry = MetricsRegistry()
    registry.counter("engine.runs").inc(7)
    registry.reset()
    assert registry.counter("engine.runs").value == 0
    assert "store.commits" in registry.snapshot()["counters"]


def test_record_engine_run_folds_stats():
    from repro.plan.stats import EngineStats

    registry = MetricsRegistry()
    stats = EngineStats(iterations=3, substitutions=5, strata=1)
    registry.record_engine_run(stats)
    assert registry.counter("engine.runs").value == 1
    assert registry.counter("engine.iterations").value == 3
    assert registry.counter("engine.substitutions").value == 5


# -- the one-document snapshot -----------------------------------------------------------


def test_snapshot_document_shape():
    import json

    document = repro.obs.snapshot(MetricsRegistry())
    assert document["schema"] == repro.obs.SNAPSHOT_SCHEMA
    assert set(document) == {"schema", "tracing", "counters", "gauges", "histograms"}
    assert document["tracing"]["enabled"] in (True, False)
    json.dumps(document)  # must be plain JSON all the way down


def test_snapshot_reports_tracing_state(tracer):
    with trace.span("one"):
        pass
    document = repro.obs.snapshot(MetricsRegistry())
    assert document["tracing"]["enabled"] is True
    assert document["tracing"]["finished_traces"] == 1
