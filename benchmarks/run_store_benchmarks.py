#!/usr/bin/env python
"""Emit the machine-readable store benchmark record ``BENCH_store.json``.

Companion to ``run_benchmarks.py`` (which covers the core object layer): this
script measures the storage subsystem without pytest and records per-benchmark
median nanoseconds —

* **commit throughput** — a 16-write transaction committed against the
  in-memory engine and against the fsync-per-commit write-ahead log;
* **recovery time** — replaying a WAL with ``RECOVERY_OBJECTS`` committed
  objects back into a live engine;
* **indexed-write throughput** — the before/after of the PathIndex reverse
  map: overwriting one object under a populated index with O(keys) eviction
  versus the seed's full-table scan.

Usage::

    PYTHONPATH=src python benchmarks/run_store_benchmarks.py [--smoke] [--output PATH]

``--smoke`` shrinks sizes and repetitions so CI can exercise the harness in
seconds; in that mode the speedup target is recorded but not enforced.  In
full mode the script exits non-zero unless the reverse-map indexed write is
at least ``TARGET_SPEEDUP``× faster than the scan-eviction baseline.
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

TARGET_SPEEDUP = 5.0  # reverse-map vs scan-eviction indexed writes
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


def _make_scan_index_class():
    """The seed's PathIndex eviction: scan every entry to drop one name."""
    from repro.store.index import PathIndex

    class ScanEvictionIndex(PathIndex):
        def remove(self, name):
            if name not in self._keys_by_name:
                return
            empty_keys = []
            for key, names in self._entries.items():
                names.discard(name)
                if not names:
                    empty_keys.append(key)
            for key in empty_keys:
                del self._entries[key]
            del self._keys_by_name[name]

    return ScanEvictionIndex


def run_suite(smoke: bool) -> dict:
    from repro.core.builder import obj
    from repro.store.database import ObjectDatabase
    from repro.store.index import PathIndex
    from repro.store.storage import FileStorage

    repeats = 3 if smoke else 9
    indexed_objects = 300 if smoke else 2000
    recovery_objects = 100 if smoke else 1000
    results = {}

    def record(name: str, func, *, number: int, objects: int) -> float:
        median = _median_ns(func, repeats=repeats, number=(1 if smoke else number))
        results[name] = {"median_ns": round(median, 1), "objects": objects}
        return median

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

    # Indexed writes: reverse-map eviction (current) vs full-scan (seed).
    def build_index(index_class):
        index = index_class("name")
        for position in range(indexed_objects):
            index.add(f"obj{position}", obj({"name": f"n{position}"}))
        return index

    reverse_index = build_index(PathIndex)
    scan_index = build_index(_make_scan_index_class())
    target = f"obj{indexed_objects // 2}"
    replacement = obj({"name": "replacement"})

    fast = record(
        "indexed_put_reverse_map",
        lambda: reverse_index.add(target, replacement),
        number=2000,
        objects=indexed_objects,
    )
    slow = record(
        "indexed_put_scan",
        lambda: scan_index.add(target, replacement),
        number=50,
        objects=indexed_objects,
    )

    return {
        "schema": "bench-store/v1",
        "mode": "smoke" if smoke else "full",
        "unix_time": int(time.time()),
        "python": sys.version.split()[0],
        "target_speedup": TARGET_SPEEDUP,
        "writes_per_commit": WRITES_PER_COMMIT,
        "benchmarks": results,
        "speedups": {"indexed_write": round(slow / fast, 2)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="fast CI mode, no enforcement")
    parser.add_argument("--output", default="BENCH_store.json", help="where to write the record")
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
