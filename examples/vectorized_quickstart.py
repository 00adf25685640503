#!/usr/bin/env python3
"""Vectorized execution quickstart: batches, compiled leaves, instrumentation.

The physical executor (:mod:`repro.plan.execute`) processes **batches** of
partial substitutions per plan operator instead of dispatching once per
binding.  This walkthrough shows the executor and its instrumentation:

1. the executor vs its oracle — on a source-ordered plan ``match_plan``
   returns the very list ``repro.calculus.matching.match_all``
   (Definition 4.2, read literally) does, order included;
2. the compiled-leaf cache — every scan leaf's element formula, nested sets
   included, compiles to one matcher closure once per formula
   (the memo ``compile_element_matcher.cache`` shows reuse across
   prepared-query re-executions);
3. EXPLAIN ANALYZE — per-leaf batch counts and rows/batch;
4. the ``exec.*`` metrics in ``repro.obs.snapshot()``.

Run with::

    python examples/vectorized_quickstart.py
"""

import time

import repro
from repro.calculus.matching import match_all
from repro.obs import snapshot
from repro.plan import compile_body, match_plan
from repro.plan.compile import compile_element_matcher


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def build_session(rows: int = 300):
    session = repro.connect()
    domain = max(8, rows // 10)
    session.put("graph", repro.parse_object(
        "[a_r: {" + ", ".join(f"[x: {i}, y: y{i % domain}]" for i in range(rows)) + "},"
        " b_r: {" + ", ".join(f"[y: y{i % domain}, z: z{i % domain}]" for i in range(rows)) + "}]"
    ))
    return session


def demo_executor_vs_oracle() -> None:
    banner("1. The executor vs its oracle: the same list, batch-at-a-time")
    body = repro.parse_formula("[a_r: {[x: X, y: Y]}, b_r: {[y: Y, z: Z]}]")
    target = repro.parse_object(
        "[a_r: {" + ", ".join(f"[x: {i}, y: y{i % 30}]" for i in range(300)) + "},"
        " b_r: {" + ", ".join(f"[y: y{i % 30}, z: z{i % 30}]" for i in range(300)) + "}]"
    )
    plan = compile_body(body)

    start = time.perf_counter_ns()
    oracle = match_all(body, target)
    oracle_ns = time.perf_counter_ns() - start

    start = time.perf_counter_ns()
    executed = match_plan(plan, target)
    executed_ns = time.perf_counter_ns() - start

    assert executed == oracle  # same list — order included
    print(f"rows: {len(executed)}")
    print(f"match_all:  {oracle_ns / 1e6:8.2f} ms")
    print(f"match_plan: {executed_ns / 1e6:8.2f} ms  ({oracle_ns / executed_ns:.1f}x)")


def demo_compiled_leaf_cache() -> None:
    banner("2. The compiled-leaf cache across prepared re-executions")
    with repro.connect() as session:
        session.put("people", repro.parse_object(
            "{" + ", ".join(f"[name: p{i}, age: {i % 90}]" for i in range(100)) + "}"
        ))
        people = session.prepare("[people: {[name: $who, age: A]}]")
        values = ("p3", "p14", "p15", "p92", "p65")
        memo = compile_element_matcher.cache
        before = (memo.misses, memo.hits)
        for who in values:
            people.execute(who=who).all()
        first_pass = (memo.misses, memo.hits)
        for who in values:
            people.execute(who=who).all()
        print(f"first pass:  {first_pass[0] - before[0]} compiles"
              f" (one per distinct $who binding)")
        print(f"second pass: {memo.misses - first_pass[0]} compiles,"
              f" {memo.hits - first_pass[1]} cache hits")
        print("-> the compiler is memoised on the (interned) formula:"
              " re-executions pay zero recompilation")


def demo_explain_analyze() -> None:
    banner("3. EXPLAIN ANALYZE: batches and rows/batch per leaf")
    with build_session() as session:
        print(session.explain(
            "[graph: [a_r: {[x: X, y: Y]}, b_r: {[y: Y, z: Z]}]]", analyze=True
        ))


def demo_exec_metrics() -> None:
    banner("4. exec.* metrics in repro.obs.snapshot()")
    metrics = snapshot()
    print("exec.batches:           ", metrics["counters"]["exec.batches"])
    print("exec.compiled_leaf_hits:", metrics["counters"]["exec.compiled_leaf_hits"])
    histogram = metrics["histograms"]["exec.rows_per_batch"]
    print("exec.rows_per_batch:    ", {
        key: histogram[key] for key in ("count", "sum", "min", "max", "p50", "p99")
    })


if __name__ == "__main__":
    demo_executor_vs_oracle()
    demo_compiled_leaf_cache()
    demo_explain_analyze()
    demo_exec_metrics()
