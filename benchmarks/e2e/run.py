#!/usr/bin/env python3
"""The benchmark's one command.

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1

runs one workload in this process through the public ``repro.api`` surface,
checks every answer, prints every metric by name with its unit and, as the
last line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` every workload runs, each in a process
of its own.  ``--selftest`` runs two sets of runs and compares their medians
with the bounds; ``--record`` appends the results to ``history.jsonl``;
``--manifest`` prints ``BENCHMARK.json``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
DEFAULT_SEED = 20260927
#: Runs per set in ``--selftest``, each with another seed.
SELFTEST_RUNS = 10

sys.path.insert(0, os.path.dirname(HERE))  # the ``e2e`` package
sys.path.insert(0, os.path.join(ROOT, "src"))  # the program under test

from e2e import metrics  # noqa: E402  (needs the path set above)


def _arguments() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in metrics.WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=metrics.NOMINAL_SECONDS,
                        help="nominal length of the timed section; sizes the work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size relative to the contract's (README scaling table)")
    parser.add_argument("--record", action="store_true",
                        help="append one line per run to history.jsonl")
    parser.add_argument("--selftest", action="store_true",
                        help="two sets of runs; fail if their medians differ by more than"
                        " the bound, or a spread is wider than it")
    parser.add_argument("--manifest", action="store_true", help="print BENCHMARK.json")
    return parser.parse_args()


def _print_table(name: str, result: dict) -> None:
    print(f"== {name}: {result['attempted']} attempted, {result['failed']} failed")
    rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
    rows += [(k, v, "") for k, v in sorted(result.get("diagnostics", {}).items())]
    for metric, value, unit in rows:
        print(f"  {metric:32s} {value:16.6f} {unit}")
    if result.get("diagnostics", {}).get("harness.calib_spread", 0.0) > 0.25:
        print("  noisy: the reference kernel's own spread is above 0.25")
    for error in result.get("errors", ()):
        print("  error:", error.strip().replace("\n", "\n         "))


def _contract_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


def _run_here(args) -> dict:
    """One workload in this process (``peak_rss_mb`` and the intern table are its own)."""
    from e2e import harness

    return harness.run_workload(
        args.workload, seed=args.seed, scale=args.scale, seconds=args.seconds,
        trace=bool(args.trace), out_dir=OUT,
    )


def _run_child(workload: str, seed: int, args) -> dict:
    """One workload in a process of its own; its contract line, parsed."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scale", str(args.scale),
    ]
    if args.record:
        command.append("--record")
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} seed {seed} crashed:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _record(args, result: dict) -> None:
    line = {
        "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "sha": _git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }
    with open(os.path.join(HERE, "history.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


def _spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _selftest(args) -> int:
    """Two sets of ``SELFTEST_RUNS`` runs per workload, each run with another seed.

    A cell (workload, metric) *agrees* when the two medians are within the
    metric's bound of each other, either way: the code is the same, so a set
    that is faster by more than the bound is as much a measurement failure
    as one that is slower.  A cell whose interquartile spread is wider than
    the bound is *unresolved*: the bound cannot tell a regression from noise
    there.  Either fails the selftest, ``setup_s`` included.
    """
    bounds = {m.name: m.bound for m in metrics.END_TO_END}
    seeds = [args.seed + i for i in range(SELFTEST_RUNS)]
    sets = []
    for label in "AB":
        collected = {}
        for workload in [w.name for w in metrics.WORKLOADS]:
            runs = [_run_child(workload, seed, args) for seed in seeds]
            if any(not run["correct"] for run in runs):
                print(f"set {label} {workload}: a run reported failures")
                return 1
            collected[workload] = {
                name: [run["metrics"][name]["value"] for run in runs] for name in bounds
            }
            print(f"set {label} {workload}: {len(runs)} runs", flush=True)
        sets.append(collected)
    observed, outside = {}, 0
    print(f"{'workload':20s} {'metric':24s} {'median A':>12s} {'median B':>12s}"
          f" {'B/A':>7s} {'spread':>7s} {'bound':>6s}")
    for workload, per_metric in sets[0].items():
        for name, first in per_metric.items():
            second = sets[1][workload][name]
            a, b = statistics.median(first), statistics.median(second)
            spread = max(_spread(first), _spread(second))
            bound = bounds[name]
            if abs(math.log(b / a)) > math.log1p(bound):
                verdict = "disagree"
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "agree"
            outside += verdict != "agree"
            observed.setdefault(workload, {})[name] = {
                "median": a, "second_median": b, "spread": spread, "bound": bound,
                "verdict": verdict,
            }
            print(f"{workload:20s} {name:24s} {a:12.5g} {b:12.5g} {b / a:7.3f}"
                  f" {spread:7.3f} {bound:6.3f}{'' if verdict == 'agree' else '  <-- ' + verdict}")
    with open(os.path.join(HERE, "spreads.json"), "w", encoding="utf-8") as handle:
        json.dump({"runs_per_set": SELFTEST_RUNS, "seconds": args.seconds, "observed": observed},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{outside} cell(s) disagree or are unresolved")
    return 1 if outside else 0


def _pin_hash_seed() -> None:
    """Re-execute under ``PYTHONHASHSEED=0``.

    String hashing is randomised per process, and with it the iteration
    order of every set of attribute names and the collisions in the intern
    table: one more thing that would differ between two runs of the same
    seed.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


def main() -> int:
    _pin_hash_seed()
    args = _arguments()
    if args.manifest:
        print(json.dumps(metrics.manifest(), indent=2))
        return 0
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    if args.selftest:
        return _selftest(args)
    if args.workload:
        result = _run_here(args)
        _print_table(args.workload, result)
        if args.record:
            _record(args, result)
        print(_contract_line(result))
        return 0 if result["correct"] else 1
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in [w.name for w in metrics.WORKLOADS]:
        result = _run_child(workload, args.seed, args)
        _print_table(workload, result)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
