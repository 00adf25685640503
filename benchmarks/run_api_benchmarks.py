#!/usr/bin/env python
"""Emit the machine-readable session-API benchmark record ``BENCH_api.json``.

Times **prepared reuse**: executing a prepared, parameterized query
(:meth:`Session.prepare` once, ``execute(params)`` many times, the plan
cached on the store's statistics version) against the parse-per-call
discipline (re-parse the source with the constants spliced in and plan in a
fresh session on every call).  Cursor streaming is the cost ledger's
``api.materialise_vs_first_row`` cell (``tools/cost_ledger.py``).

Usage::

    PYTHONPATH=src python benchmarks/run_api_benchmarks.py [--smoke] [--output PATH]

``--smoke`` shrinks sizes and repetitions so CI can exercise the harness in
seconds; in that mode the speedup target is recorded but not enforced.  In
full mode the script exits non-zero unless prepared reuse clears its ≥5x
floor (the acceptance bar of the API redesign).
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

TARGET_SPEEDUPS = {"prepared_reuse": 5.0}


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
    from repro import Session, parse_formula, parse_object

    repeats = 3 if smoke else 9
    hot_rows = 12 if smoke else 24
    cold_rows = 150 if smoke else 1200
    results = {}

    def record(name: str, func, *, number: int, objects: int) -> float:
        median = _median_ns(func, repeats=repeats, number=(1 if smoke else number))
        results[name] = {"median_ns": round(median, 1), "objects": objects}
        return median

    # -- prepared reuse ---------------------------------------------------------------
    # A small hot join inside a database whose bulk is cold payload — the
    # classic OLTP shape.  The legacy parse-per-call discipline (what
    # ``interpret``/``Program.query``/the CLI did before sessions) re-parses
    # the source with the constant spliced in and re-plans against fresh
    # whole-database statistics on every call, so it pays O(database)
    # planning for an O(join) execution; the prepared query plans once and
    # only re-binds $x.
    database = parse_object(
        "[a_r: {" + ", ".join(
            f"[x: {i}, y: y{i % 6}]" for i in range(hot_rows)
        ) + "},"
        " b_r: {" + ", ".join(
            f"[y: y{i % 6}, z: z{i}]" for i in range(hot_rows)
        ) + "},"
        " payload: {" + ", ".join(
            f"[id: {i}, tag: t{i % 17}, blob: [a: {i}, b: {i + 1}]]"
            for i in range(cold_rows)
        ) + "}]"
    )
    session = Session.over_object(database)
    template = "[a_r: {[x: $x, y: Y]}, b_r: {[y: Y, z: Z]}]"
    prepared = session.prepare(template)
    cycle = [i % hot_rows for i in range(32)]
    expected = session.query(parse_formula(template.replace("$x", "3")))
    assert prepared.execute(x=3).all() == expected

    counter = {"i": 0}

    def run_prepared():
        counter["i"] += 1
        prepared.execute(x=cycle[counter["i"] % len(cycle)]).all()

    def run_parse_per_call():
        counter["i"] += 1
        source = template.replace("$x", str(cycle[counter["i"] % len(cycle)]))
        # A fresh session per call: the legacy entry points (interpret,
        # Program.query, the CLI) built everything from scratch each time,
        # so the baseline must not inherit the long-lived session's plan
        # cache (substituted formulas compare structurally equal across the
        # value cycle and would otherwise hit it).
        Session.over_object(database).query(parse_formula(source))

    stored = 2 * hot_rows + cold_rows
    prepared_ns = record("prepared_execute", run_prepared, number=20, objects=stored)
    parsed_ns = record("parse_per_call", run_parse_per_call, number=5, objects=stored)
    cache_info = session.cache_info()
    assert cache_info["plan_hits"] >= 1, "prepared reuse must hit the plan cache"

    return {
        "schema": "bench-api/v1",
        "mode": "smoke" if smoke else "full",
        "unix_time": int(time.time()),
        "python": sys.version.split()[0],
        "target_speedups": TARGET_SPEEDUPS,
        "plan_cache": {
            "hits": cache_info["plan_hits"],
            "misses": cache_info["plan_misses"],
        },
        "benchmarks": results,
        "speedups": {
            "prepared_reuse": round(parsed_ns / prepared_ns, 2),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="fast CI mode, no enforcement")
    parser.add_argument("--output", default="BENCH_api.json", help="where to write the record")
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
