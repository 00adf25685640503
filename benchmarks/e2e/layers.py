"""Per-layer probes: each layer's public functions on the workload's own inputs.

The program has no spans yet for parsing, lint, shape inference, planning or
the executor, so the traced pass calls those layers directly, from here, on
the inputs the workload's ops used, each call under a ``probe.<layer>.<fn>``
root span and timed and normalised like any op.  A workload that does not
feed a layer (ingest has no rules, bom_join writes no query text per call)
reports 0 for it: the layer idles there, which is what the number says.
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, List

from repro import obs
from repro.core import clear_object_caches
from repro.core.builder import obj
from repro.core.lattice import union_all
from repro.engine import EngineStats, create_engine
from repro.lint import lint_query
from repro.lint.shapes import infer_shapes
from repro.parser import parse_formula, parse_program
from repro.plan import (
    DatabaseStatistics,
    bind_body_plan,
    compile_body,
    iter_match_plan,
    match_plan,
    optimize_body,
)
from repro.store.codec import dumps_object, loads_object

from e2e import spans
from e2e.clock import Clock

__all__ = ["run_probes"]

#: Calls per probe and input (cheap probes) / per probe (engine, codec, build).
REPEATS = 5
HEAVY_REPEATS = 3

_TIMED = (
    "core.union", "core.build", "parser.parse_formula", "parser.parse_program",
    "lint.query", "lint.shapes.infer", "plan.compile", "plan.statistics",
    "plan.optimize", "plan.bind", "plan.execute", "plan.first_row", "engine.run",
    "store.codec.encode", "store.codec.decode",
)


def run_probes(inputs, recorder) -> Dict[str, float]:
    """Every probe metric of ``metrics.PER_LAYER``, 0 where the workload has no input."""
    clock = Clock(recorder)

    def timed(kind: str, fn: Callable, items, repeats: int = REPEATS, cold=False) -> List:
        results = []
        for _ in range(repeats):
            results = []
            for item in items:
                if cold:
                    clear_object_caches()
                results.append(clock.step(f"probe.{kind}", lambda: fn(item)))
        return results

    counts: Dict[str, float] = {}
    queries = inputs.queries
    texts = [query.text for query in queries]
    formulas = timed("parser.parse_formula", parse_formula, texts)
    rules = ()
    if inputs.rules_text:
        rules = tuple(timed("parser.parse_program", parse_program, [inputs.rules_text])[0])

    # lint_query memoises its report per (query, rules), as Session.prepare
    # relies on; one call per text measures what the workload's ops paid.
    reports = timed("lint.query", lambda f: lint_query(f, rules=rules), formulas, 1)
    counts["lint.diagnostics"] = (
        statistics.mean(len(report.diagnostics) for report in reports) if reports else 0.0
    )
    if rules and inputs.database is not None:
        # __wrapped__: the inference itself, not its lru_cache.
        timed(
            "lint.shapes.infer",
            lambda db: infer_shapes.__wrapped__(rules, db),
            [inputs.database],
            HEAVY_REPEATS,
        )

    compiled = timed("plan.compile", compile_body.__wrapped__, formulas)
    targets = [query.target for query in queries]
    statistics_of = timed("plan.statistics", DatabaseStatistics.collect, targets)
    plans = timed(
        "plan.optimize", lambda pair: optimize_body(*pair), list(zip(compiled, statistics_of))
    )
    values = [{name: obj(value) for name, value in q.params.items()} for q in queries]
    bound = timed("plan.bind", lambda pair: bind_body_plan(*pair), list(zip(plans, values)))
    runs = list(zip(bound, targets))

    batches = obs.REGISTRY.counter("exec.batches")
    compiled_hits = obs.REGISTRY.counter("exec.compiled_leaf_hits")
    before = (batches.value, compiled_hits.value)
    stats = EngineStats()
    timed("plan.execute", lambda run: match_plan(*run, stats=stats), runs)
    executions = max(1, REPEATS * len(runs))
    counts["plan.exec_batches"] = (batches.value - before[0]) / executions
    counts["plan.compiled_leaf_hit_rate"] = (
        (compiled_hits.value - before[1]) / stats.match_attempts
        if stats.match_attempts
        else 0.0
    )
    timed("plan.first_row", lambda run: next(iter_match_plan(*run), None), runs)
    examined = rows = 0
    for plan, target in runs:
        record: dict = {}
        match_plan(plan, target, record=record)
        examined += sum(record.get("by_leaf", {}).values())
        rows += record.get("rows", 0)
    counts["plan.rows_examined_per_row"] = examined / rows if rows else 0.0

    union_objects = inputs.union_objects
    if not union_objects and runs:
        plan, target = runs[0]
        union_objects = [row.apply(plan.body) for row in match_plan(plan, target)]
    cold = inputs.cold_caches
    if union_objects:
        timed("core.union", union_all, [union_objects], cold=cold)
    if inputs.build is not None:
        timed("core.build", lambda build: build(), [inputs.build], HEAVY_REPEATS)

    written = inputs.written
    encoded = timed("store.codec.encode", dumps_object, written, HEAVY_REPEATS)
    timed("store.codec.decode", loads_object, encoded, HEAVY_REPEATS)

    engine_roots = len(clock.roots)
    engine_stats = None
    if rules and inputs.database is not None:
        engine_stats = timed(
            "engine.run",
            lambda db: create_engine("seminaive", rules).run(db),
            [inputs.database],
            HEAVY_REPEATS,
            cold=cold,
        )[0].stats

    clock.finish()
    counts.update(_engine_counts(engine_stats, clock, engine_roots))
    norm = clock.normalised()
    result = {
        f"{kind}_norm": statistics.median(norm[f"probe.{kind}"])
        if f"probe.{kind}" in norm
        else 0.0
        for kind in _TIMED
    }
    result.update(counts)
    if clock.failed:
        raise RuntimeError("a layer probe raised:\n" + "\n".join(clock.errors))
    return result


def _engine_counts(stats, clock: Clock, first_root: int) -> Dict[str, float]:
    """The engine probe's counters and its longest ``engine.round`` span."""
    if stats is None:
        stats = EngineStats()
    longest = [
        max(
            (
                span.duration_ns / 1e9 / clock.calib.factor(start, elapsed)
                for span in spans.walk(root)
                if span.name == "engine.round"
            ),
            default=0.0,
        )
        for _, start, elapsed, root in clock.roots[first_root:]
    ]
    lookups = stats.index_hits + stats.index_misses
    return {
        "engine.round_max_norm": statistics.median(longest) if longest else 0.0,
        "engine.rounds": stats.iterations,
        "engine.match_attempts": stats.match_attempts,
        "engine.subobjects_derived": stats.subobjects_derived,
        "engine.useful_ratio": (
            stats.substitutions / stats.match_attempts if stats.match_attempts else 0.0
        ),
        "engine.index_hit_rate": stats.index_hits / lookups if lookups else 0.0,
        "engine.full_match_fallbacks": stats.full_match_fallbacks,
        "engine.rules_pruned": stats.rules_pruned,
    }
