"""Metrics: process-wide counters, gauges and log-scale histograms.

One :class:`MetricsRegistry` (:data:`REGISTRY`) absorbs the instrumentation
that used to be scattered across ad-hoc per-object records —
:class:`repro.plan.stats.EngineStats`,
:attr:`repro.store.database.ObjectDatabase.access_stats`, the session plan
cache's hit/miss counters — plus the telemetry none of them carried: WAL
bytes/fsyncs, commit/conflict counts, lock wait time and query latency
distributions.  Everything is named with dotted prefixes (``engine.*``,
``session.*``, ``store.*``) and exported as one JSON document by
:func:`repro.obs.snapshot` / the CLI's ``repro stats``.

Design constraints:

* **zero dependencies** — stdlib only;
* **cheap on the hot path** — instruments increment under one small lock;
  instrumented sites fire per query / per commit / per engine round, never
  per tuple, so the cost disappears into the operation being measured;
* **monotonic** — counters only ever grow (the property the session cache
  fix in this series restores), so deltas between snapshots are meaningful.

Histograms use **fixed log-scale buckets**: powers of two of nanoseconds
from 1µs up to ~69s (27 buckets plus overflow).  Log-scale buckets keep the
relative quantile error bounded (each bucket is 2× its neighbour) with a
fixed, tiny footprint — the classic latency-histogram trade.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Dict, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_NS",
    "ROWS_PER_BATCH_BUCKETS",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
]

#: Default histogram bucket upper bounds: 2^10..2^36 ns (≈1µs .. ≈69s).
LATENCY_BUCKETS_NS: Tuple[int, ...] = tuple(2 ** exponent for exponent in range(10, 37))

#: Bucket bounds for row-count histograms (``exec.rows_per_batch``): powers
#: of two from 1 row up to ~1M rows per operator batch.  Same log-scale
#: rationale as the latency buckets, different unit.
ROWS_PER_BATCH_BUCKETS: Tuple[int, ...] = tuple(2 ** exponent for exponent in range(0, 21))


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be ≥ 0: counters never go down)."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self._value}>"


class Gauge:
    """A point-in-time value (sizes, versions, object counts)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value: float = 0
        self._lock = threading.Lock()

    def set(self, value) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount=1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount=1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self):
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self._value}>"


class Histogram:
    """Fixed-bucket log-scale histogram of observations (latencies in ns).

    ``buckets`` are the inclusive upper bounds; one implicit overflow bucket
    catches everything above the last bound.  Quantiles are answered from the
    cumulative bucket counts, reporting the upper bound of the bucket the
    quantile falls in — an over-estimate by at most the bucket's width (2×
    under the default log-scale bounds).
    """

    __slots__ = ("name", "buckets", "_counts", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, name: str, buckets: Optional[Tuple[int, ...]] = None):
        self.name = name
        self.buckets: Tuple[int, ...] = tuple(buckets) if buckets else LATENCY_BUCKETS_NS
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError(f"histogram {name}: bucket bounds must be sorted")
        self._counts = [0] * (len(self.buckets) + 1)
        self._count = 0
        self._sum = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value) -> None:
        index = bisect_right(self.buckets, value) if value > 0 else 0
        # bisect_right puts a value equal to a bound into the next bucket;
        # bounds are inclusive upper bounds, so step back onto the boundary.
        if index and value <= self.buckets[index - 1]:
            index -= 1
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self):
        return self._sum

    def quantile(self, q: float):
        """The upper bound of the bucket holding the ``q``-quantile (or ``None``)."""
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if not self._count:
                return None
            rank = q * self._count
            cumulative = 0
            for index, bucket_count in enumerate(self._counts):
                cumulative += bucket_count
                if cumulative >= rank and bucket_count:
                    if index < len(self.buckets):
                        return self.buckets[index]
                    return self._max
            return self._max

    def as_dict(self) -> dict:
        """Count, sum, min/max, p50/p95/p99 and the non-empty buckets."""
        with self._lock:
            counts = list(self._counts)
            total, observed_sum = self._count, self._sum
            low, high = self._min, self._max
        nonzero = {}
        for index, bucket_count in enumerate(counts):
            if not bucket_count:
                continue
            bound = self.buckets[index] if index < len(self.buckets) else "+inf"
            nonzero[str(bound)] = bucket_count
        return {
            "count": total,
            "sum": observed_sum,
            "min": low,
            "max": high,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": nonzero,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} count={self._count}>"


#: Metric names pre-declared on every registry, so a snapshot always covers
#: the engine, plan-cache, index and WAL sections even before first use.
DECLARED_COUNTERS: Tuple[str, ...] = (
    # engine — absorbed from EngineStats after every engine run
    "engine.runs",
    "engine.iterations",
    "engine.strata",
    "engine.recursive_strata",
    "engine.delta_matches",
    "engine.full_matches",
    "engine.match_attempts",
    "engine.substitutions",
    "engine.subobjects_derived",
    "engine.index_hits",
    "engine.index_misses",
    "engine.full_match_fallbacks",
    # session — the plan/closure caches and query traffic
    "session.queries",
    "session.prepared_queries",
    "session.slow_queries",
    "session.plan_cache.hits",
    "session.plan_cache.misses",
    "session.plan_cache.evictions",
    "session.plan_cache.invalidations",
    "session.closure_cache.hits",
    "session.closure_cache.misses",
    "session.closure_cache.evictions",
    "session.closure_cache.invalidations",
    "session.closure_cache.maintained",
    # session index stores — bucket builds by a first reader, and the probes an
    # index answered (folded in from a query's stats when its cursor ends)
    "session.index.builds",
    "session.index.probes",
    # store — commits, conflicts, and the access-path counters that mirror
    # ObjectDatabase.access_stats
    "store.commits",
    "store.conflicts",
    "store.index.find_index_prefilters",
    "store.index.find_path_lookups",
    "store.index.find_scans",
    "store.index.query_root_pushdowns",
    "store.index.query_index_shortcircuits",
    "store.index.query_scans",
    # WAL
    "store.wal.appends",
    "store.wal.bytes",
    "store.wal.fsyncs",
    "store.wal.recoveries",
    "store.wal.records_replayed",
    "store.wal.torn_bytes_dropped",
    # ... and what a commit logged per name written: the object's image, or
    # its edit against the version held; edit entries folded in by recovery
    "store.wal.image_records",
    "store.wal.edit_records",
    "store.wal.edits_replayed",
    # locks — contended acquisitions (wait time in the histograms below)
    "store.lock.write_contended",
    "store.lock.timeouts",
    # graceful degradation — conflict retries, quarantined corruption,
    # self-healed appends, query deadlines (see repro.fault)
    "store.retries",
    "store.retry_exhausted",
    "store.wal.healed_appends",
    "store.wal.quarantined_records",
    "store.wal.quarantined_bytes",
    "session.query_timeouts",
    # fault injection — faults fired by repro.fault.injection
    "fault.injected",
    "fault.delays",
    # vectorized executor — operator batches and compiled-predicate traffic
    "exec.batches",
    "exec.compiled_leaf_hits",
)

#: The ``core.memo.*`` gauges are set when a snapshot is taken, from the memo
#: tables' own ``hits`` / ``misses`` / ``len``
#: (:func:`repro.core.intern.memo_tables`), and ``core.intern.term_entries``
#: from the formula intern table: what can silently grow is visible, and
#: nothing is updated on the hot path (``set_tables``: the sets carrying
#: derived tables).  ``session.index.entries`` is set by the session that last
#: built index buckets or moved versions: the tables built for its version.
DECLARED_GAUGES: Tuple[str, ...] = (
    "core.memo.subobject_entries",
    "core.memo.subobject_hit_rate",
    "core.memo.element_keys_entries",
    "core.memo.element_keys_hit_rate",
    "core.memo.element_matcher_entries",
    "core.memo.element_matcher_hit_rate",
    "core.memo.compile_body_entries",
    "core.memo.compile_body_hit_rate",
    "core.memo.set_tables_entries",
    "core.memo.set_tables_hit_rate",
    "core.intern.term_entries",
    "session.index.entries",
)

DECLARED_HISTOGRAMS: Tuple[str, ...] = (
    "session.query_ns",
    "session.closure_ns",
    "store.commit_ns",
    "store.wal.append_ns",
    "store.lock.write_wait_ns",
    "engine.round_ns",
    "exec.rows_per_batch",
)

#: Non-default bucket bounds for declared histograms (the rest use
#: :data:`LATENCY_BUCKETS_NS`).
_DECLARED_BUCKETS: Dict[str, Tuple[int, ...]] = {
    "exec.rows_per_batch": ROWS_PER_BATCH_BUCKETS,
}


class MetricsRegistry:
    """A named collection of metrics with get-or-create accessors."""

    def __init__(self, *, declare: bool = True):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        if declare:
            for name in DECLARED_COUNTERS:
                self.counter(name)
            for name in DECLARED_GAUGES:
                self.gauge(name)
            for name in DECLARED_HISTOGRAMS:
                self.histogram(name, _DECLARED_BUCKETS.get(name))

    # -- accessors ----------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(name, Counter(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(name, Gauge(name))
        return instrument

    def histogram(
        self, name: str, buckets: Optional[Tuple[int, ...]] = None
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    name, Histogram(name, buckets)
                )
        return instrument

    # -- bulk absorption ----------------------------------------------------------------
    def record_engine_run(self, stats) -> None:
        """Fold one :class:`~repro.plan.stats.EngineStats` into the registry."""
        self.counter("engine.runs").inc()
        for key, value in stats.as_dict().items():
            if value:
                self.counter(f"engine.{key}").inc(value)

    # -- export -------------------------------------------------------------------------
    def _sample_memo_tables(self) -> None:
        """Set the ``core.memo.*`` gauges and ``core.intern.term_entries``."""
        from repro.core.intern import intern_stats, memo_tables

        self.gauge("core.intern.term_entries").set(intern_stats()["interned_terms"])
        for name, table in memo_tables().items():
            lookups = table.hits + table.misses
            self.gauge(f"core.memo.{name}_entries").set(len(table))
            self.gauge(f"core.memo.{name}_hit_rate").set(
                table.hits / lookups if lookups else 0.0
            )

    def snapshot(self) -> dict:
        """Every metric as one plain-JSON mapping (stable key order)."""
        self._sample_memo_tables()
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {
                name: counters[name].value for name in sorted(counters)
            },
            "gauges": {name: gauges[name].value for name in sorted(gauges)},
            "histograms": {
                name: histograms[name].as_dict() for name in sorted(histograms)
            },
        }

    def reset(self) -> None:
        """Zero everything (tests and benchmarks; production never resets)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
        for name in DECLARED_COUNTERS:
            self.counter(name)
        for name in DECLARED_GAUGES:
            self.gauge(name)
        for name in DECLARED_HISTOGRAMS:
            self.histogram(name, _DECLARED_BUCKETS.get(name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MetricsRegistry {len(self._counters)} counters,"
            f" {len(self._gauges)} gauges, {len(self._histograms)} histograms>"
        )


#: The process-wide registry every instrumented layer reports into.
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    """``REGISTRY.counter`` — the module-level convenience accessor."""
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    """``REGISTRY.gauge`` — the module-level convenience accessor."""
    return REGISTRY.gauge(name)


def histogram(name: str, buckets: Optional[Tuple[int, ...]] = None) -> Histogram:
    """``REGISTRY.histogram`` — the module-level convenience accessor."""
    return REGISTRY.histogram(name, buckets)
