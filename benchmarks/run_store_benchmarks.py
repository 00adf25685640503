#!/usr/bin/env python
"""Emit the machine-readable store benchmark record ``BENCH_store.json``.

Companion to ``run_benchmarks.py`` (which covers the core object layer): this
script measures the storage subsystem without pytest and records per-benchmark
median nanoseconds —

* **commit throughput** — a 16-write transaction committed against the
  in-memory engine and against the fsync-per-commit write-ahead log;
* **recovery time** — replaying a WAL with ``RECOVERY_OBJECTS`` committed
  objects back into a live engine.

Usage::

    PYTHONPATH=src python benchmarks/run_store_benchmarks.py [--smoke] [--output PATH]

``--smoke`` shrinks sizes and repetitions so CI can exercise the harness in
seconds.  The record has no floor: the commit path's gate is the cost
ledger (``tools/cost_ledger.py``) and the end-to-end ``ingest_recover``
workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

WRITES_PER_COMMIT = 16


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
    from repro.core.builder import obj
    from repro.store.database import ObjectDatabase
    from repro.store.storage import FileStorage

    repeats = 3 if smoke else 9
    recovery_objects = 100 if smoke else 1000
    results = {}

    def record(name: str, func, *, number: int, objects: int) -> None:
        median = _median_ns(func, repeats=repeats, number=(1 if smoke else number))
        results[name] = {"median_ns": round(median, 1), "objects": objects}

    payloads = [obj({"slot": position}) for position in range(WRITES_PER_COMMIT)]

    def commit_batch(database):
        with database.transaction() as txn:
            for position, payload in enumerate(payloads):
                txn.put(f"slot{position}", payload)

    # Commit throughput: in-memory engine.
    memory_db = ObjectDatabase()
    record(
        "commit_memory",
        lambda: commit_batch(memory_db),
        number=200,
        objects=WRITES_PER_COMMIT,
    )

    with tempfile.TemporaryDirectory() as scratch:
        # Commit throughput: WAL engine, one append + fsync per commit.
        wal_db = ObjectDatabase(FileStorage(os.path.join(scratch, "commits.wal")))
        record(
            "commit_wal",
            lambda: commit_batch(wal_db),
            number=20,
            objects=WRITES_PER_COMMIT,
        )
        wal_db.close()

        # Recovery: replay a log with `recovery_objects` live objects.
        recovery_path = os.path.join(scratch, "recovery.wal")
        seeding = ObjectDatabase(FileStorage(recovery_path))
        for position in range(recovery_objects):
            seeding.put(f"obj{position}", obj({"position": position, "tag": f"t{position}"}))
        seeding.close()

        def recover():
            database = ObjectDatabase(FileStorage(recovery_path))
            names = database.names()
            database.close()
            return len(names)

        assert recover() == recovery_objects
        record("wal_recovery", recover, number=3, objects=recovery_objects)

    return {
        "schema": "bench-store/v1",
        "mode": "smoke" if smoke else "full",
        "unix_time": int(time.time()),
        "python": sys.version.split()[0],
        "writes_per_commit": WRITES_PER_COMMIT,
        "benchmarks": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="fast CI mode")
    parser.add_argument("--output", default="BENCH_store.json", help="where to write the record")
    args = parser.parse_args(argv)

    record = run_suite(args.smoke)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for name, stats in sorted(record["benchmarks"].items()):
        print(f"{name:28s} {stats['median_ns']:>14,.0f} ns  ({stats['objects']} objects)")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
