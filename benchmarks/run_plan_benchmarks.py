#!/usr/bin/env python
"""Emit the machine-readable planner benchmark record ``BENCH_plan.json``.

Times **store pushdown**: a whole-database query answered through the
session's root-attribute pushdown against interpreting the same formula on
the fully materialised snapshot object.  Join reordering is the cost
ledger's ``plan.source_vs_cost_ordered`` cell (``tools/cost_ledger.py``).

Usage::

    PYTHONPATH=src python benchmarks/run_plan_benchmarks.py [--smoke] [--output PATH]

``--smoke`` shrinks sizes and repetitions so CI can exercise the harness in
seconds; in that mode the speedup target is recorded but not enforced.  In
full mode the script exits non-zero unless store pushdown meets its
``TARGET_SPEEDUPS`` floor.
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

TARGET_SPEEDUPS = {"store_pushdown": 3.0}


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
    from repro.store.database import ObjectDatabase

    repeats = 3 if smoke else 9
    stored_objects = 60 if smoke else 600
    results = {}

    def record(name: str, func, *, number: int, objects: int) -> float:
        median = _median_ns(func, repeats=repeats, number=(1 if smoke else number))
        results[name] = {"median_ns": round(median, 1), "objects": objects}
        return median

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

    return {
        "schema": "bench-plan/v1",
        "mode": "smoke" if smoke else "full",
        "unix_time": int(time.time()),
        "python": sys.version.split()[0],
        "target_speedups": TARGET_SPEEDUPS,
        "benchmarks": results,
        "speedups": {
            "store_pushdown": round(snapshot / pushed, 2),
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
