#!/usr/bin/env python
"""Emit the shape-pruning benchmark record ``BENCH_shapes.json``.

Companion to the other ``run_*_benchmarks.py`` records: this script pins the
**payoff contract** of :mod:`repro.lint.shapes` — statically pruning
shape-dead recursive branches must actually buy wall time, not just look
tidy in EXPLAIN.

The workload is a transitive closure over an edge chain carried alongside a
large ``audit`` set of distinct rows.  The live rules compute ``path``
reachability; four additional recursive rules join ``path`` against an
``audit`` element whose ``status`` attribute would have to be a tuple
``[flag: ...]`` — but every audit row carries the atom ``done`` there, so
each branch is provably empty under shape analysis.  A shape-blind engine
cannot know that: the audit leaf has no usable index key (both its
variables are unbound when it is scanned), so every dead rule re-scans the
whole audit set in **every fixpoint round** of the recursive stratum.  The
benchmark evaluates the program through the semi-naive engine with
``use_shapes`` on and off (plan + run, shape inference included in the
measured time) and records the speedup.  In full mode the run fails unless
pruning is at least ``MIN_SPEEDUP``× faster; both modes assert the two
closures are identical, so the speedup can never come from dropping
answers.

Usage::

    PYTHONPATH=src python benchmarks/run_shape_benchmarks.py [--smoke] [--output PATH]

``--smoke`` shrinks the workload and repetitions so CI can exercise the
harness in seconds; in that mode the speedup is recorded but not enforced.
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

#: Enforced floor (full mode): plan+run with pruning vs without.
MIN_SPEEDUP = 3.0

LIVE_RULES = """
[path: {[src: X, dst: Y]}] :- [edge: {[src: X, dst: Y]}].
[path: {[src: X, dst: Z]}] :-
    [path: {[src: X, dst: Y]}, edge: {[src: Y, dst: Z]}].
"""

#: Four shape-dead recursive branches.  Each joins the recursive ``path``
#: stratum against audit rows whose ``status`` attribute would have to be a
#: tuple ``[flag: F]`` — but every generated audit row carries the atom
#: ``done`` there, so the branch is provably empty.  The flag is an unbound
#: variable on purpose: it gives the audit leaf no static or probe-able key,
#: so a shape-blind engine full-scans the audit set on every round, binding
#: ``id`` and ``owner`` per row before the ``status`` mismatch kills it —
#: while shape analysis refutes the literal once, statically.  The variable
#: names differ per rule so the clauses are not duplicates (RL004).
DEAD_RULE = (
    "[path: {{[src: X{k}, dst: X{k}]}}] :-\n"
    "    [path: {{[src: X{k}, dst: _Y{k}]}},"
    " audit: {{[id: _I{k}, owner: W{k}, status: [flag: F{k}]]}}].\n"
)


def build_program(nodes: int, audit_rows: int):
    from repro import Program, parse_object

    edges = ", ".join(
        f"[src: n{i}, dst: n{i + 1}]" for i in range(nodes - 1)
    )
    # Every audit row gets a distinct id: without it the set constructor
    # dedups the repeated tuples and the "large" audit set collapses to
    # ``nodes`` elements, costing a shape-blind engine nothing to scan.
    audits = ", ".join(
        f"[id: a{i}, owner: n{i % nodes}, status: done]"
        for i in range(audit_rows)
    )
    database = parse_object(f"[edge: {{{edges}}}, audit: {{{audits}}}]")
    source = LIVE_RULES + "".join(DEAD_RULE.format(k=k) for k in range(4))
    return Program.from_source(source, database=database)


def _median_ns(func, *, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        func()
        samples.append(time.perf_counter_ns() - start)
    return statistics.median(samples)


def run_suite(smoke: bool) -> dict:
    from repro.engine import SemiNaiveEngine
    from repro.lint.shapes import infer_shapes

    nodes = 16 if smoke else 32
    audit_rows = 600 if smoke else 2000
    repeats = 3 if smoke else 5
    program = build_program(nodes, audit_rows)
    seed = program.seed()

    def evaluate(use_shapes: bool):
        # A fresh engine per run: plan + optimize + (optionally) infer +
        # evaluate is the whole cost being compared.  The inference cache is
        # cleared so the pruned side pays for its own analysis every time.
        infer_shapes.cache_clear()
        return SemiNaiveEngine(program.rules, use_shapes=use_shapes).run(seed)

    pruned_result = evaluate(True)
    plain_result = evaluate(False)
    assert pruned_result.value == plain_result.value, (
        "shape pruning changed the closure — soundness bug"
    )
    assert pruned_result.stats.rules_pruned == 4

    pruned_ns = _median_ns(lambda: evaluate(True), repeats=repeats)
    plain_ns = _median_ns(lambda: evaluate(False), repeats=repeats)

    return {
        "schema": "bench-shapes/v1",
        "mode": "smoke" if smoke else "full",
        "unix_time": int(time.time()),
        "python": sys.version.split()[0],
        "min_speedup": MIN_SPEEDUP,
        "workload": {
            "chain_nodes": nodes,
            "audit_rows": audit_rows,
            "dead_recursive_rules": 4,
            "rules_pruned": pruned_result.stats.rules_pruned,
        },
        "benchmarks": {
            "plan_and_run_with_pruning": {"median_ns": round(pruned_ns, 1)},
            "plan_and_run_without_pruning": {"median_ns": round(plain_ns, 1)},
        },
        "speedups": {
            "pruned_vs_plain": round(plain_ns / pruned_ns, 4),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="fast CI mode, no enforcement")
    parser.add_argument("--output", default="BENCH_shapes.json", help="where to write the record")
    args = parser.parse_args(argv)

    record = run_suite(args.smoke)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for name, stats in sorted(record["benchmarks"].items()):
        print(f"{name:32s} {stats['median_ns']:>14,.0f} ns")
    speedup = record["speedups"]["pruned_vs_plain"]
    print(f"speedup pruned_vs_plain {speedup:>17.3f}x")
    print(f"wrote {args.output}")

    if not args.smoke and speedup < MIN_SPEEDUP:
        print(
            f"FAIL: shape pruning bought only {speedup:.3f}x"
            f" (floor {MIN_SPEEDUP:.1f}x)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
