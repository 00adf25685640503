#!/usr/bin/env python
"""Emit the machine-readable planner benchmark record ``BENCH_plan.json``.

Companion to ``run_benchmarks.py`` (core object layer) and
``run_store_benchmarks.py`` (storage): this script pins the two headline wins
of the query-plan pipeline (:mod:`repro.plan`) without pytest and records
per-benchmark median nanoseconds —

* **join reordering** — a three-relation chain join whose selective atom sorts
  *last* in the body's canonical attribute order, matched through the same
  physical executor with the optimizer's cost-based leaf order versus the
  source order (both index-accelerated);
* **store pushdown** — a whole-database query answered through
  ``ObjectDatabase.query``'s root-attribute pushdown versus interpreting the
  same formula against the fully materialised snapshot object;
* **index short-circuit** — a query pinning an atom no stored object carries,
  answered ⊥ straight from the ``PathIndex`` versus the snapshot
  interpretation.

Usage::

    PYTHONPATH=src python benchmarks/run_plan_benchmarks.py [--smoke] [--output PATH]

``--smoke`` shrinks sizes and repetitions so CI can exercise the harness in
seconds; in that mode the speedup targets are recorded but not enforced.  In
full mode the script exits non-zero unless join reordering and store pushdown
meet their ``TARGET_SPEEDUPS`` floors.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

TARGET_SPEEDUPS = {"join_reordering": 2.0, "store_pushdown": 3.0}


def _median_ns(func, *, repeats: int, number: int) -> float:
    """Median wall time of one call, measured over ``repeats`` batches."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for _ in range(number):
            func()
        samples.append((time.perf_counter_ns() - start) / number)
    return statistics.median(samples)


def run_suite(smoke: bool) -> dict:
    from repro import parse_formula, parse_object
    from repro.api import Session
    from repro.calculus.interpretation import interpret
    from repro.plan.indexes import TargetIndexes
    from repro.plan import DatabaseStatistics, compile_body, match_plan, optimize_body
    from repro.store.database import ObjectDatabase

    repeats = 3 if smoke else 9
    chain_rows = 60 if smoke else 400
    join_domain = max(8, chain_rows // 10)
    tag_domain = max(16, chain_rows // 5)
    stored_objects = 60 if smoke else 600
    results = {}

    def record(name: str, func, *, number: int, objects: int) -> float:
        median = _median_ns(func, repeats=repeats, number=(1 if smoke else number))
        results[name] = {"median_ns": round(median, 1), "objects": objects}
        return median

    # -- join reordering -------------------------------------------------------------
    # Chain join a_r(x,y) ⋈ b_r(y,z) ⋈ c_r(z,tag=t0); the selective relation
    # c_r sorts last alphabetically, so the source order scans all of a_r
    # first while the optimizer starts from the static-key probe into c_r.
    def rows(maker):
        return ", ".join(maker(i) for i in range(chain_rows))

    chain_db = parse_object(
        "[a_r: {" + rows(lambda i: f"[x: {i}, y: y{i % join_domain}]") + "},"
        " b_r: {" + rows(lambda i: f"[y: y{i % join_domain}, z: z{i % join_domain}]") + "},"
        " c_r: {" + rows(lambda i: f"[z: z{i % join_domain}, tag: t{i % tag_domain}]") + "}]"
    )
    body = parse_formula(
        "[a_r: {[x: X, y: Y]}, b_r: {[y: Y, z: Z]}, c_r: {[z: Z, tag: t0]}]"
    )
    indexes = TargetIndexes(chain_db)
    source_plan = compile_body(body)
    optimized_plan = optimize_body(source_plan, DatabaseStatistics.collect(chain_db))
    assert str(optimized_plan.leaves[0].path) == "c_r", "optimizer should probe c_r first"
    baseline_rows = match_plan(source_plan, chain_db, indexes=indexes)
    assert match_plan(optimized_plan, chain_db, indexes=indexes) == baseline_rows

    ordered = record(
        "join_cost_ordered",
        lambda: match_plan(optimized_plan, chain_db, indexes=indexes),
        number=20,
        objects=3 * chain_rows,
    )
    source = record(
        "join_source_ordered",
        lambda: match_plan(source_plan, chain_db, indexes=indexes),
        number=5,
        objects=3 * chain_rows,
    )

    # -- store pushdown ---------------------------------------------------------------
    store = ObjectDatabase()
    for position in range(stored_objects):
        store.put(
            f"obj{position}",
            parse_object(f"[tag: {{t{position % 7}}}, num: {position}]"),
        )
    store.put("family", parse_object("[family: {[name: abraham, kids: {isaac}]}]"))
    store.create_index("family.name")
    # Queries run through the session facade (the path ObjectDatabase.query
    # now delegates to); the baseline interprets the materialised snapshot.
    session = Session(database=store)
    query = parse_formula("[family: [family: {[name: X]}]]")
    assert session.query(query) == interpret(query, store.as_object())

    pushed = record(
        "store_query_pushdown",
        lambda: session.query(query),
        number=50,
        objects=stored_objects + 1,
    )
    snapshot = record(
        "store_query_snapshot",
        lambda: interpret(query, store.as_object()),
        number=10,
        objects=stored_objects + 1,
    )

    # -- index short-circuit ----------------------------------------------------------
    absent = parse_formula("[family: [family: {[name: nobody, kids: K]}]]")
    # Guard against an unsound refutation, not just against a non-⊥ answer:
    # the shortcut must agree with the snapshot interpretation it replaces.
    assert session.query(absent) == interpret(absent, store.as_object())
    assert session.query(absent).is_bottom
    shortcircuit = record(
        "store_query_shortcircuit",
        lambda: session.query(absent),
        number=200,
        objects=stored_objects + 1,
    )
    shortcircuit_baseline = record(
        "store_query_shortcircuit_snapshot",
        lambda: interpret(absent, store.as_object()),
        number=10,
        objects=stored_objects + 1,
    )

    return {
        "schema": "bench-plan/v1",
        "mode": "smoke" if smoke else "full",
        "unix_time": int(time.time()),
        "python": sys.version.split()[0],
        "target_speedups": TARGET_SPEEDUPS,
        "benchmarks": results,
        "speedups": {
            "join_reordering": round(source / ordered, 2),
            "store_pushdown": round(snapshot / pushed, 2),
            "index_shortcircuit": round(shortcircuit_baseline / shortcircuit, 2),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="fast CI mode, no enforcement")
    parser.add_argument("--output", default="BENCH_plan.json", help="where to write the record")
    args = parser.parse_args(argv)

    record = run_suite(args.smoke)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for name, stats in sorted(record["benchmarks"].items()):
        print(f"{name:32s} {stats['median_ns']:>14,.0f} ns  ({stats['objects']} objects)")
    for name, ratio in sorted(record["speedups"].items()):
        target = TARGET_SPEEDUPS.get(name)
        suffix = f" (target {target:.0f}x)" if target else ""
        print(f"speedup {name:24s} {ratio:>8.1f}x{suffix}")
    print(f"wrote {args.output}")

    if not args.smoke:
        failing = {
            name: ratio
            for name, ratio in record["speedups"].items()
            if name in TARGET_SPEEDUPS and ratio < TARGET_SPEEDUPS[name]
        }
        if failing:
            print(f"FAIL: speedups below target: {failing}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
