"""Timing, normalisation and the two passes (untraced, traced) of one workload.

Load model: one process per workload, one thread, one client in a closed
loop.  Every step a workload performs goes through :class:`Clock`, which
times it, interleaves reference-kernel passes (see :mod:`e2e.calib`), checks
the answer *outside* the timed region and counts failures.  The work of a run
is sized from ``--seconds`` (ops scale with it) rather than cut off by the
clock, so the exact counts — WAL bytes, fsyncs, engine counters — repeat
exactly whatever speed the CPU runs at that minute.
"""

from __future__ import annotations

import bisect
import gc
import os
import resource
import shutil
import tempfile
import time
from collections import defaultdict
from statistics import mean, median
from typing import Dict, List, Tuple

import repro
from repro import obs

from e2e import layers, spans
from e2e.clock import Clock
from e2e.metrics import END_TO_END, NOMINAL_SECONDS, PER_LAYER
from e2e.workloads import BY_NAME
from e2e.workloads.base import sized

__all__ = ["run_workload"]

#: The traced run spends a quarter of the ops on each of its two passes.
TRACED_SHARE = 0.25


def _percentile(values: List[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _wal_bytes() -> int:
    return obs.REGISTRY.counter("store.wal.bytes").value


def _wal_fsyncs() -> int:
    return obs.REGISTRY.counter("store.wal.fsyncs").value


def _wal_counters() -> Tuple[int, int]:
    return _wal_bytes(), _wal_fsyncs()


def _set_up(factory, directory: str, count: int = 1):
    """``count`` timed set-ups, each in a directory of its own; the last is kept.

    Returns the kept workload, every set-up's seconds, and the WAL counters
    as they stood before the kept one: what the session appends is counted
    from its ``connect``.
    """
    workload, times, wal_before = None, [], _wal_counters()
    for attempt in range(count):
        if workload is not None:
            workload.discard()
            workload = None
        repro.clear_object_caches()
        gc.collect()
        wal_before = _wal_counters()
        start = time.perf_counter()
        workload = factory(os.path.join(directory, f"s{attempt}"))
        workload.setup()
        times.append(time.perf_counter() - start)
    workload.wrote(*workload.loaded)
    gc.collect()
    return workload, times, wal_before


def _timed_section(workload, clock: Clock, wal_before: Tuple[int, int]) -> Tuple[int, int]:
    """Run the workload's steps; WAL bytes and fsyncs of the session so far."""
    workload.run(clock)
    clock.finish()
    return _wal_bytes() - wal_before[0], _wal_fsyncs() - wal_before[1]


def _reopen(workload, clock: Clock) -> None:
    for _ in range(workload.count(workload.REOPENS, floor=3)):
        clock.step("reopen", workload.reopen, check=workload.check_reopened)
    clock.fail(workload.acked_lost(), "acknowledged writes unreadable after reopen")
    clock.finish()


def _op_stats(norm: Dict[str, List[float]]) -> Tuple[float, float]:
    ops = norm["op"]
    # Compaction is not an op, but the client waits for it: it counts in the
    # mean (inverse throughput) and not in the median.
    return median(ops), (sum(ops) + sum(norm.get("compact", ()))) / len(ops)


def run_workload(
    name: str,
    *,
    seed: int,
    scale: float = 1.0,
    seconds: float = NOMINAL_SECONDS,
    trace: bool = False,
    out_dir: str,
) -> dict:
    """One run of one workload; returns the result document ``run.py`` prints.

    Everything the run writes lives under ``out_dir`` (WAL files in a
    temporary directory that is removed, the trace file beside it).
    """
    started = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"tmp-{name}-", dir=out_dir)
    cls = BY_NAME[name]
    try:
        if trace:
            values, clock = _traced_run(cls, name, seed, scale, seconds, directory, out_dir)
            spec = {m.name: m.unit for m in PER_LAYER}
        else:
            values, clock = _untraced_run(cls, seed, scale, seconds, directory)
            spec = {m.name: m.unit for m in END_TO_END}
    finally:
        obs.disable_tracing()
        shutil.rmtree(directory, ignore_errors=True)
    values["harness.wall_s"] = time.perf_counter() - started
    missing = sorted(set(spec) - set(values))
    if missing:
        raise RuntimeError(f"{name} did not report {missing}")
    return {
        "correct": clock.failed == 0,
        "attempted": clock.attempted,
        "failed": clock.failed,
        "metrics": {
            metric: {"value": float(values[metric]), "unit": unit}
            for metric, unit in spec.items()
        },
        "diagnostics": {k: v for k, v in values.items() if k not in spec},
        "errors": clock.errors,
    }


def _untraced_run(cls, seed, scale, seconds, directory):
    workload, setups, wal_before = _set_up(
        lambda d: cls(seed, scale, seconds, d), directory, sized(cls.SETUPS, seconds, floor=3)
    )
    clock = Clock()
    wal, _ = _timed_section(workload, clock, wal_before)
    _reopen(workload, clock)
    workload.discard()
    norm = clock.normalised()
    p50, mean = _op_stats(norm)
    calib_ms, calib_spread = clock.calib.summary()
    values = {
        "setup_s": median(setups),
        "op_p50_norm": p50,
        "op_mean_norm": mean,
        "reopen_norm": median(norm["reopen"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wal_bytes_per_user_byte": wal / workload.user_bytes,
        # diagnostics, printed above the result line
        "api.op_p95_norm": _percentile(norm["op"], 0.95),
        "harness.ops": len(norm["op"]),
        "harness.samples": sum(len(v) for v in clock.samples.values()),
        "harness.calib_ms": calib_ms,
        "harness.calib_spread": calib_spread,
        "harness.op_p50_ms": median([s for _, s in clock.samples["op"]]) * 1e3,
    }
    # The driver's contract takes every end-to-end metric from every run and
    # none that reads 0: where the workload has no step of a kind, the metric
    # repeats the primary op's median (README, "signal on").
    for kind in ("read", "write", "scan", "first_row", "prepare"):
        values[f"{kind}_p50_norm"] = median(norm[kind]) if kind in norm else p50
    return values, clock


def _traced_run(cls, name, seed, scale, seconds, directory, out_dir):
    share = seconds * TRACED_SHARE
    # Pass 1, untraced: the reference the tracing overhead is measured against.
    plain, _, wal_before = _set_up(lambda d: cls(seed, scale, share, d), directory)
    plain_clock = Clock()
    _timed_section(plain, plain_clock, wal_before)
    plain.discard()
    plain_norm = plain_clock.normalised()
    _, plain_mean = _op_stats(plain_norm)

    # Pass 2, traced: the same ops on the same inputs, in a fresh store.
    workload, _, wal_before = _set_up(
        lambda d: cls(seed, scale, share, d), os.path.join(directory, "traced")
    )
    recorder = spans.Recorder()
    recorder.start()
    clock = Clock(recorder)
    wal, fsyncs = _timed_section(workload, clock, wal_before)
    traced_norm = clock.normalised()
    _, traced_mean = _op_stats(traced_norm)
    values = _attribute(clock)
    values.update(workload.counters())
    values.update(layers.run_probes(workload.probe_inputs(), recorder))

    reopen_clock = Clock(recorder)
    _reopen(workload, reopen_clock)
    recoveries = [
        span.duration_ns / 1e9 / reopen_clock.calib.factor(start, elapsed)
        for _, start, elapsed, root in reopen_clock.roots
        for span in spans.walk(root)
        if span.name == "store.wal.recovery"
    ]
    values["store.recovery_norm"] = median(recoveries) if recoveries else 0.0
    values["store.acked_lost"] = workload.acked_lost()
    clock.attempted += reopen_clock.attempted
    clock.failed += reopen_clock.failed
    clock.errors.extend(reopen_clock.errors)
    recorder.stop()
    values.update(workload.comparisons())
    workload.discard()
    recorder.write(os.path.join(out_dir, f"trace-{name}.json"))

    compacts = traced_norm.get("compact", [])
    calib_ms, calib_spread = clock.calib.summary()
    intern = repro.intern_stats()
    lookups = intern["hits"] + intern["misses"]
    values.update(
        {
            "core.intern_hit_rate": intern["hits"] / lookups if lookups else 0.0,
            "core.intern_entries": intern["interned_objects"],
            "store.wal.bytes": wal,
            "store.wal.fsyncs": fsyncs,
            "store.compact_norm": median(compacts) if compacts else 0.0,
            "store.compact_stall_max_norm": _compact_stall(clock),
            "api.op_p95_norm": _percentile(plain_norm["op"], 0.95),
            "api.op_max_norm": max(plain_norm["op"]),
            "obs.tracing_overhead_ratio": traced_mean / plain_mean,
            "harness.calib_ms": calib_ms,
            "harness.calib_spread": calib_spread,
            "harness.op_p50_ms": median([s for _, s in plain_clock.samples["op"]]) * 1e3,
            "harness.ops": len(plain_norm["op"]),
            "harness.samples": sum(len(v) for v in plain_clock.samples.values()),
            "failed_share": clock.failed / max(clock.attempted, 1),
        }
    )
    return values, clock


def _attribute(clock: Clock) -> Dict[str, float]:
    """Per-layer times of the traced ops, from the harvested span trees.

    The four self-time metrics and the root are *means* over the ops, so that
    engine + store + session + ``api.self_norm`` equals ``api.op_root_norm``
    exactly; the per-span-name metrics are medians over the ops that have one.
    """
    totals = defaultdict(float)
    named: Dict[str, List[float]] = defaultdict(list)
    span_counts = []
    ops = 0
    for _, start, elapsed, root in clock.roots:
        if root.name != "bench.op":
            continue
        ops += 1
        unit_ns = clock.calib.factor(start, elapsed) * 1e9
        totals["root"] += (root.duration_ns or 0) / unit_ns
        for layer, ns in spans.layer_self_ns(root).items():
            totals[layer] += ns / unit_ns
        by_name: Dict[str, float] = defaultdict(float)
        for span in spans.walk(root):
            by_name[span.name] += (span.duration_ns or 0) / unit_ns
        span_counts.append(sum(1 for _ in spans.walk(root)) - 1)  # not the root itself
        for span_name in ("store.commit", "store.wal.append", "store.wal.fsync"):
            if span_name in by_name:
                named[span_name].append(by_name[span_name])
    if not ops:
        raise RuntimeError("the traced pass recorded no op root span")
    root_mean = totals["root"] / ops
    parts = {layer: totals[layer] / ops for layer in ("engine", "store", "session", "bench")}
    if abs(sum(parts.values()) - root_mean) > 1e-6 * max(root_mean, 1.0):
        raise RuntimeError("layer self times do not sum to the op root span")
    return {
        "api.op_root_norm": root_mean,
        "engine.self_norm": parts["engine"],
        "store.self_norm": parts["store"],
        "api.session_norm": parts["session"],
        "api.self_norm": parts["bench"],
        "api.unattributed_share": parts["bench"] / root_mean if root_mean else 0.0,
        "obs.spans_per_op": mean(span_counts),
        "store.commit_norm": median(named["store.commit"]) if named["store.commit"] else 0.0,
        "store.wal.append_norm": (
            median(named["store.wal.append"]) if named["store.wal.append"] else 0.0
        ),
        "store.wal.fsync_norm": (
            median(named["store.wal.fsync"]) if named["store.wal.fsync"] else 0.0
        ),
    }


def _compact_stall(clock: Clock) -> float:
    """The longest op right before or after a compaction, normalised."""
    ops = sorted(clock.samples["op"])
    starts = [start for start, _ in ops]
    adjacent = []
    for compacted, _ in clock.samples.get("compact", ()):
        after = bisect.bisect_left(starts, compacted)
        adjacent += ops[max(0, after - 1):after + 1]
    return max((seconds / clock.calib.factor(start, seconds) for start, seconds in adjacent), default=0.0)
