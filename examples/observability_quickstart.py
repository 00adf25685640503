#!/usr/bin/env python3
"""Observability quickstart: tracing → metrics snapshot → EXPLAIN ANALYZE.

:mod:`repro.obs` is the zero-dependency observability layer wired through the
whole pipeline — sessions, planner, engine, store.  Everything here is off by
default and nearly free when off (the disabled-overhead contract is pinned by
the cost ledger's ``obs.disabled_vs_stripped`` cell, ``tools/cost_ledger.py``).
This walkthrough covers:

1. ``obs.enable_tracing()`` — every query/closure/commit becomes a tree of
   timed spans with a per-query trace id; ``obs.render_trace`` prints it;
2. prepare→execute linkage — an execute span carries ``prepared_from``, the
   trace id of the ``prepare`` that planned it;
3. the slow-query log — ``connect(slow_query_ms=...)`` records offending
   queries with parameters, rows, elapsed time, and the rendered trace;
4. ``obs.snapshot()`` — counters, histograms, and tracing state as one JSON
   document (CLI: ``python -m repro stats``);
5. EXPLAIN ANALYZE — actual rows *and* wall time per plan leaf, next to the
   optimizer's estimates (CLI: ``--explain-analyze``).

Run with::

    python examples/observability_quickstart.py
"""

import json

import repro
from repro import obs


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    banner("1. Tracing: spans across session, engine, and store")
    obs.enable_tracing()
    with repro.connect() as session:
        session.put("parent", repro.parse_object(
            "{[of: abraham, is: isaac], [of: isaac, is: jacob],"
            " [of: jacob, is: joseph]}"
        ))
        session.register(
            "[anc: {[of: X, is: Y]}] :- [parent: {[of: X, is: Y]}].\n"
            "[anc: {[of: X, is: Z]}] :-"
            " [anc: {[of: X, is: Y]}, parent: {[of: Y, is: Z]}]."
        )
        session.query("[anc: {[of: abraham, is: W]}]", on_closure=True)
    for root in obs.traces():
        print(obs.render_trace(root))

    banner("2. Prepared queries link their executions back to the prepare")
    with repro.connect() as session:
        session.put("r1", repro.parse_object(
            "{[name: peter, age: 25], [name: mary, age: 13]}"
        ))
        prepared = session.prepare("[r1: {[name: $who, age: A]}]")
        prepared.execute(who="mary").all()
    execute_root = obs.traces()[-1]
    print(f"prepare trace id: {prepared.trace_id}")
    print(f"execute span:     {execute_root.name}"
          f"  prepared_from={execute_root.attrs.get('prepared_from')}")

    banner("3. The slow-query log (threshold 0ms records everything)")
    with repro.connect(slow_query_ms=0) as session:
        session.put("r1", repro.parse_object("{[name: ada]}"))
        session.query("[r1: {[name: X]}]")
        for entry in session.slow_queries():
            print(f"  {entry['elapsed_ms']:.2f}ms  rows={entry['rows']}"
                  f"  {entry['query']}")

    banner("4. The one-document metrics snapshot (CLI: python -m repro stats)")
    document = obs.snapshot()
    counters = {
        name: value
        for name, value in document["counters"].items()
        if value and name.split(".")[0] in ("session", "engine")
    }
    print(json.dumps(counters, indent=2, sort_keys=True))
    query_ns = document["histograms"]["session.query_ns"]
    print(f"session.query_ns: count={query_ns['count']}"
          f" p95<=:{query_ns['p95']}ns")

    banner("5. EXPLAIN ANALYZE: actual rows and wall time per plan leaf")
    obs.disable_tracing()
    with repro.connect() as session:
        session.put("r1", repro.parse_object(
            "{[name: peter, age: 25], [name: john, age: 7]}"
        ))
        session.put("r2", repro.parse_object(
            "{[name: john, address: austin], [name: peter, address: oslo]}"
        ))
        print(session.explain(
            "[r1: {[name: X, age: A]}, r2: {[name: X, address: D]}]",
            analyze=True,
        ))


if __name__ == "__main__":
    main()
