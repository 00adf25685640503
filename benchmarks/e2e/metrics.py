"""The benchmark's fixed vocabulary: workloads, metrics, units, bounds.

Names here are API: every later performance or simplicity change is judged by
them, so a rename re-baselines the history.  ``BENCHMARK.json`` at the root of
the repository is ``manifest()`` written out; the smoke test holds the two
together.  What the manifest's schema has no room for — which end-to-end
metric each layer metric should move, on which workload — lives here, next to
the name it describes, and is rendered into README.md.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

__all__ = [
    "END_TO_END", "NOMINAL_SECONDS", "PER_LAYER", "RUN_SECONDS", "WORKLOADS", "manifest",
]

#: ``--seconds`` at which the workloads do the op counts README.md states.
#: The work of a run is *sized* from ``--seconds`` (ops scale with it) instead
#: of cut off by the clock, so that exact counts repeat exactly whatever the
#: CPU's speed that minute.
NOMINAL_SECONDS = 10

#: ``--seconds`` of the contract's runs (``BENCHMARK.json``): half the nominal
#: work, so that the driver's 4 + 22 x 6 runs, set-ups and reopens included,
#: stay under its time cap even in an hour when the sandbox runs at half speed
#: (one such hour stretched 120 runs of ``--seconds 8`` from 27 to 58 minutes).
RUN_SECONDS = 5


class Workload(NamedTuple):
    name: str
    why: str


class EndToEnd(NamedTuple):
    name: str
    unit: str
    bound: float
    primary_on: str  # the workloads where it is the signal ("all" = everywhere)
    what: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    source: str  # how the traced pass measures it
    moves: str  # the end-to-end metric and workload it should move


WORKLOADS: List[Workload] = [
    Workload(
        "genealogy_closure",
        "Example 4.5 from scratch: engine rounds and core union/reduction own the"
        " time, parser and store almost none",
    ),
    Workload(
        "closure_after_write",
        "one-leaf delta on a cached closure: what delta maintenance must move"
        " while genealogy_closure must not",
    ),
    Workload(
        "bom_join",
        "prepared index join on a plan-cache hit: executor and index probes work,"
        " parser, lint, optimizer and WAL are bypassed",
    ),
    Workload(
        "doc_mixed",
        "80/20 reads beside whole-object rewrites: every commit invalidates the"
        " plan, so a read win that costs writes shows",
    ),
    Workload(
        "adhoc_frontend",
        "a distinct query text per call, every one a plan miss: parser, lint,"
        " shapes, compile, statistics and optimize own the time",
    ),
    Workload(
        "ingest_recover",
        "small commits, compaction and a torn crash: codec, WAL append/fsync and"
        " recovery own the time, planner and engine idle",
    ),
]

_NORM = "ref"  # reference-kernel passes, see calib.py

#: A timing's bound is the tightest step of 0.05 that is at least twice the
#: widest interquartile spread the metric showed on any workload in this
#: sandbox's selftests (``spreads.json``; README, "Steadiness"), and never
#: above the contract's cap of 0.25.  A per-kind metric repeats
#: ``op_p50_norm`` on the workloads that have no step of its kind, so it
#: cannot be bound tighter than that.  ``wal_bytes_per_user_byte`` is exact
#: for one seed and moves 0.3 % with the content another seed generates.
END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", 0.25, "all",
             "generate inputs, load the store, register rules, warm-up ops; raw seconds"),
    EndToEnd("op_p50_norm", _NORM, 0.20, "all",
             "median latency of the workload's primary op"),
    EndToEnd("op_mean_norm", _NORM, 0.15, "all",
             "mean latency of the primary op, compaction stalls included:"
             " inverse closed-loop throughput"),
    EndToEnd("read_p50_norm", _NORM, 0.20, "doc_mixed closure_after_write",
             "median latency of the parameterised read (re-close + query on"
             " closure_after_write)"),
    EndToEnd("write_p50_norm", _NORM, 0.25, "doc_mixed closure_after_write",
             "median latency of one commit"),
    EndToEnd("scan_p50_norm", _NORM, 0.20, "bom_join",
             "median of the analytic join drained through .bindings()"),
    EndToEnd("first_row_p50_norm", _NORM, 0.20, "bom_join",
             "cursor.one() on that same join: the streaming promise"),
    EndToEnd("prepare_p50_norm", _NORM, 0.20, "adhoc_frontend",
             "Session.prepare(src, lint='warn') alone"),
    EndToEnd("reopen_norm", _NORM, 0.25, "all",
             "shutdown() to first verified read after connect(path)"),
    EndToEnd("peak_rss_mb", "MB", 0.10, "all",
             "ru_maxrss of the workload's process"),
    EndToEnd("wal_bytes_per_user_byte", "B/B", 0.01,
             "closure_after_write doc_mixed ingest_recover",
             "WAL bytes the session appended, set-up included, per dumps_object"
             " byte the user wrote"),
]

_CLOSURES = "genealogy_closure, closure_after_write"

PER_LAYER: List[PerLayer] = [
    # -- core ---------------------------------------------------------------------
    PerLayer("core.union_norm", _NORM, "lower",
             "core.union_all over the op's matches / derived sub-objects",
             f"op_p50_norm on {_CLOSURES}; nothing on ingest_recover"),
    PerLayer("core.build_norm", _NORM, "lower",
             "constructing the workload's objects",
             "setup_s, reopen_norm everywhere"),
    PerLayer("core.intern_hit_rate", "ratio", "higher", "core.intern_stats()",
             "peak_rss_mb; reopen_norm"),
    PerLayer("core.intern_entries", "count", "lower", "core.intern_stats()",
             "peak_rss_mb; reopen_norm"),
    # -- parser -------------------------------------------------------------------
    PerLayer("parser.parse_formula_norm", _NORM, "lower",
             "repro.parser.parse_formula per query text",
             "prepare_p50_norm on adhoc_frontend; no change on bom_join"),
    PerLayer("parser.parse_program_norm", _NORM, "lower",
             "repro.parser.parse_program on the registered rules",
             "setup_s where rules are registered; op_p50_norm on genealogy_closure"),
    # -- lint ---------------------------------------------------------------------
    PerLayer("lint.query_norm", _NORM, "lower", "lint.lint_query per query text",
             "prepare_p50_norm on adhoc_frontend"),
    PerLayer("lint.diagnostics", "count", "lower",
             "findings lint_query attached, per query", "none; explains lint.query_norm"),
    PerLayer("lint.shapes.infer_norm", _NORM, "lower",
             "lint.shapes.infer_shapes(rules, db), uncached",
             f"op_p50_norm on {_CLOSURES} (engine start); prepare_p50_norm"),
    # -- plan ---------------------------------------------------------------------
    PerLayer("plan.compile_norm", _NORM, "lower", "compile_body, uncached",
             "op_p50_norm on adhoc_frontend; no change on bom_join"),
    PerLayer("plan.statistics_norm", _NORM, "lower", "DatabaseStatistics.collect(target)",
             "op_p50_norm on adhoc_frontend; read_p50_norm on doc_mixed (first read"
             " after each write); no change on bom_join"),
    PerLayer("plan.optimize_norm", _NORM, "lower", "optimize_body(plan, statistics)",
             "op_p50_norm on adhoc_frontend; read_p50_norm on doc_mixed"),
    PerLayer("plan.bind_norm", _NORM, "lower", "bind_body_plan(plan, values)",
             "op_p50_norm on bom_join; read_p50_norm on doc_mixed"),
    PerLayer("plan.execute_norm", _NORM, "lower", "match_plan(bound plan, target)",
             "op_p50_norm, scan_p50_norm on bom_join; read_p50_norm on doc_mixed"),
    PerLayer("plan.first_row_norm", _NORM, "lower", "first item of iter_match_plan",
             "first_row_p50_norm on bom_join"),
    PerLayer("plan.rows_examined_per_row", "ratio", "lower",
             "EXPLAIN ANALYZE per-leaf actual rows / result rows",
             "as plan.execute_norm (useful-work ratio)"),
    PerLayer("plan.exec_batches", "count", "lower", "exec.batches counter, per execution",
             "as plan.execute_norm"),
    PerLayer("plan.compiled_leaf_hit_rate", "ratio", "higher",
             "exec.compiled_leaf_hits / match attempts", "as plan.execute_norm"),
    # -- engine -------------------------------------------------------------------
    PerLayer("engine.run_norm", _NORM, "lower",
             "create_engine('seminaive').run on the workload's program",
             f"op_p50_norm on {_CLOSURES}"),
    PerLayer("engine.round_max_norm", _NORM, "lower", "longest engine.round span of that run",
             f"op_p50_norm on {_CLOSURES}"),
    PerLayer("engine.self_norm", _NORM, "lower",
             "self time of engine.* spans under one op root", f"op_p50_norm on {_CLOSURES}"),
    PerLayer("engine.rounds", "count", "lower", "EngineStats.iterations",
             "explains engine.run_norm; repeats exactly"),
    PerLayer("engine.match_attempts", "count", "lower", "EngineStats",
             "explains engine.run_norm; repeats exactly"),
    PerLayer("engine.subobjects_derived", "count", "lower", "EngineStats",
             "explains engine.run_norm; repeats exactly"),
    PerLayer("engine.useful_ratio", "ratio", "higher",
             "EngineStats substitutions / match attempts",
             "explains engine.run_norm; repeats exactly"),
    PerLayer("engine.index_hit_rate", "ratio", "higher",
             "EngineStats index hits / (hits + misses)",
             "explains engine.run_norm; repeats exactly"),
    PerLayer("engine.full_match_fallbacks", "count", "lower", "EngineStats",
             "explains engine.run_norm; repeats exactly"),
    PerLayer("engine.rules_pruned", "count", "higher", "EngineStats",
             "explains engine.run_norm; repeats exactly"),
    PerLayer("engine.rederived_share", "ratio", "lower",
             "(derived - new facts) / derived on a re-close",
             "read_p50_norm on closure_after_write: what delta maintenance drives to ~0"),
    # -- store --------------------------------------------------------------------
    PerLayer("store.commit_norm", _NORM, "lower", "store.commit spans, per op",
             "op_p50_norm on ingest_recover; write_p50_norm on doc_mixed"),
    PerLayer("store.wal.append_norm", _NORM, "lower", "store.wal.append spans, per op",
             "op_p50_norm on ingest_recover; write_p50_norm on doc_mixed"),
    PerLayer("store.wal.fsync_norm", _NORM, "lower", "store.wal.fsync spans, per op",
             "op_p50_norm on ingest_recover (the sandbox's fsync, not a device's)"),
    PerLayer("store.self_norm", _NORM, "lower",
             "self time of store.* spans under one op root", "write_p50_norm"),
    PerLayer("store.wal.fsyncs", "count", "lower", "store.wal.fsyncs counter",
             "op_p50_norm on ingest_recover; repeats exactly"),
    PerLayer("store.wal.bytes", "B", "lower", "store.wal.bytes counter",
             "wal_bytes_per_user_byte; repeats exactly"),
    PerLayer("store.codec.encode_norm", _NORM, "lower", "dumps_object on the written values",
             "write_p50_norm"),
    PerLayer("store.codec.decode_norm", _NORM, "lower", "loads_object on the written values",
             "reopen_norm"),
    PerLayer("store.recovery_norm", _NORM, "lower", "store.wal.recovery span at reopen",
             "reopen_norm everywhere"),
    PerLayer("store.compact_norm", _NORM, "lower", "timing compact()",
             "op_mean_norm (not op_p50_norm) on ingest_recover"),
    PerLayer("store.compact_bytes_rewritten", "B", "lower", "WAL size after each compact()",
             "op_mean_norm on ingest_recover"),
    PerLayer("store.compact_stall_max_norm", _NORM, "lower",
             "longest op adjacent to a compact()", "op_mean_norm on ingest_recover"),
    PerLayer("store.access.index_share", "ratio", "higher",
             "access_stats(): pushdowns + short-circuits / all query accesses",
             "op_p50_norm on bom_join"),
    PerLayer("store.acked_lost", "count", "lower",
             "acknowledged writes unreadable after reopen", "failed_share; must be 0"),
    # -- api ----------------------------------------------------------------------
    PerLayer("api.plan_cache_hit_rate", "ratio", "higher", "Session.cache_info()",
             "~1 on bom_join, 0 on adhoc_frontend; read_p50_norm on doc_mixed"),
    PerLayer("api.plan_invalidations", "count", "lower", "Session.cache_info()",
             "read_p50_norm on doc_mixed"),
    PerLayer("api.closure_cache_hit_rate", "ratio", "higher", "Session.cache_info()",
             "read_p50_norm on genealogy_closure (queries after the close)"),
    PerLayer("api.session_norm", _NORM, "lower",
             "self time of session.* spans under one op root",
             "op_p50_norm where prepare/execute set-up dominates"),
    PerLayer("api.self_norm", _NORM, "lower",
             "op root span minus every program span under it",
             "op_p50_norm on bom_join (cursor consumption is not a span yet)"),
    PerLayer("api.unattributed_share", "ratio", "lower", "api.self_norm / op root span",
             "ROADMAP item 3 wants < 0.05; reported, not gated"),
    PerLayer("api.op_root_norm", _NORM, "lower",
             "median op root span = engine + store + session self times + api.self_norm",
             "op_p50_norm (traced)"),
    PerLayer("api.op_p95_norm", _NORM, "lower", "untraced pass",
             "tails; diagnostic only (21 % spread after normalising)"),
    PerLayer("api.op_max_norm", _NORM, "lower", "untraced pass", "tails; diagnostic only"),
    # -- the paper's own comparisons --------------------------------------------------
    PerLayer("calculus.oracle_ratio", "ratio", "lower",
             "calculus.close / session close on a down-scaled genealogy", "none"),
    PerLayer("datalog.closure_ratio", "ratio", "lower",
             "DatalogEngine on Genealogy.datalog_program / session close, down-scaled",
             "none"),
    PerLayer("relational.join_ratio", "ratio", "lower",
             "relational.algebra.equijoin / the analytic calculus join", "none"),
    # -- observability and the harness itself --------------------------------------------
    PerLayer("obs.tracing_overhead_ratio", "ratio", "lower",
             "traced / untraced op_mean_norm on the same ops", "none; must stay near 1"),
    PerLayer("obs.spans_per_op", "count", "lower", "program spans under one op root", "none"),
    PerLayer("harness.calib_ms", "ms", "lower", "median reference-kernel pass",
             "none; converts _norm back to ms"),
    PerLayer("harness.calib_spread", "ratio", "lower", "IQR / median of the kernel passes",
             "none; a run is noisy above 0.25"),
    PerLayer("harness.wall_s", "s", "lower", "wall clock of the whole run", "none"),
    PerLayer("harness.op_p50_ms", "ms", "lower", "raw median of the primary op", "none"),
    PerLayer("harness.ops", "count", "higher", "primary ops in the untraced pass", "none"),
    PerLayer("harness.samples", "count", "higher", "timed steps of every kind", "none"),
    PerLayer("failed_share", "ratio", "lower",
             "failed / attempted (raised, wrong answer, or acknowledged write lost)",
             "any value above 0 is a regression"),
]


def manifest() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": "lower", "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
