#!/usr/bin/env python
"""Emit the machine-readable core benchmark record ``BENCH_core.json``.

Times deep equality of interned objects against the seed's structural
comparison (reusing the builders in ``bench_interning.py``) without pytest.
The structural side compares materialised sort keys, C-level work that a
call count does not see, so this contract stays a wall-clock floor; set
reduction is the cost ledger's ``core.set_reduction`` cell
(``tools/cost_ledger.py``).

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py [--smoke] [--output PATH]

``--smoke`` shrinks repetitions so CI can exercise the harness in seconds; in
that mode the speedup target is recorded but not enforced.  In full mode the
script exits non-zero unless deep equality is at least ``TARGET_SPEEDUP``×
faster than the structural baseline.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

TARGET_SPEEDUP = 3.0


def _load_builders():
    spec = importlib.util.spec_from_file_location(
        "bench_interning", os.path.join(_HERE, "bench_interning.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    from repro.core import intern_stats
    from repro.core.depth import node_count

    bench = _load_builders()
    repeats = 3 if smoke else 9
    results = {}

    def record(name: str, func, *, number: int, objects: int) -> float:
        median = _median_ns(func, repeats=repeats, number=(1 if smoke else number))
        results[name] = {"median_ns": round(median, 1), "objects": objects}
        return median

    # Deep equality: interned identity vs the seed's structural comparison.
    depth = 80
    (interned_left, interned_right), (raw_left, raw_right) = bench.make_deep_pairs(depth)
    nodes = node_count(interned_left)
    eq_interned = record(
        "deep_equality_interned",
        lambda: interned_left == interned_right,
        number=20000,
        objects=nodes,
    )
    eq_structural = record(
        "deep_equality_structural",
        lambda: raw_left == raw_right,
        number=200,
        objects=nodes,
    )

    speedups = {
        "deep_equality": round(eq_structural / eq_interned, 2),
    }
    return {
        "schema": "bench-core/v1",
        "mode": "smoke" if smoke else "full",
        "unix_time": int(time.time()),
        "python": sys.version.split()[0],
        "target_speedup": TARGET_SPEEDUP,
        "benchmarks": results,
        "speedups": speedups,
        "intern_stats": intern_stats(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="fast CI mode, no enforcement")
    parser.add_argument("--output", default="BENCH_core.json", help="where to write the record")
    args = parser.parse_args(argv)

    record = run_suite(args.smoke)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for name, stats in sorted(record["benchmarks"].items()):
        print(f"{name:28s} {stats['median_ns']:>14,.0f} ns  ({stats['objects']} objects)")
    for name, ratio in sorted(record["speedups"].items()):
        print(f"speedup {name:20s} {ratio:>8.1f}x (target {TARGET_SPEEDUP:.0f}x)")
    print(f"wrote {args.output}")

    if not args.smoke:
        failing = {k: v for k, v in record["speedups"].items() if v < TARGET_SPEEDUP}
        if failing:
            print(f"FAIL: speedups below target: {failing}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
