"""Crash-consistency sweep: crash everywhere, assert prefix recovery.

The harness drives a deterministic scripted workload of committed batches
against an :class:`repro.store.database.ObjectDatabase` over a
:class:`repro.store.storage.FileStorage` log and simulates a crash at
every interesting boundary of every commit:

``before_append``
    the process dies before any byte of commit *k* reaches the log —
    recovery must yield exactly commits ``1..k-1``;
``torn_append``
    the process dies after a seeded prefix of commit *k*'s record was
    written (a torn write, like a power cut mid-``write(2)``) — recovery
    must truncate the torn tail and yield commits ``1..k-1``;
``after_append``
    the process dies between the append and its ``fsync`` completing — the
    record is intact on the simulated disk, so recovery must yield commits
    ``1..k``.

A second, byte-granular sweep takes the *complete* log and truncates it at
every byte offset (strided under ``--smoke``), asserting that recovery of
each truncation equals the longest prefix of whole records it contains —
i.e. no truncation point exists where the store invents, reorders, or
partially applies a commit.

Run it directly::

    PYTHONPATH=src python -m repro.fault.sweep --smoke

Exit status is non-zero when any case fails; the per-case expectations are
also exercised by ``tests/test_fault_sweep.py``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.builder import obj
from repro.core.objects import ComplexObject
from repro.fault.injection import FaultSpec, SimulatedCrash, inject
from repro.store.database import ObjectDatabase
from repro.store.storage import FileStorage

__all__ = [
    "BOUNDARIES",
    "SweepReport",
    "default_workload",
    "run_crash_sweep",
    "run_truncation_sweep",
    "run_sweep",
]

#: The crash boundaries simulated for every commit of the workload.
BOUNDARIES = ("before_append", "torn_append", "after_append")

#: Fault specs per boundary: where the simulated process dies.
_BOUNDARY_SPECS = {
    "before_append": FaultSpec("store.wal.append", mode="crash"),
    "torn_append": FaultSpec("store.wal.append", mode="torn_crash"),
    "after_append": FaultSpec("store.wal.fsync", mode="crash"),
}


@dataclass
class SweepReport:
    """Outcome of a sweep: counts plus a description of every failure."""

    cases: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def merge(self, other: "SweepReport") -> "SweepReport":
        self.cases += other.cases
        self.failures.extend(other.failures)
        return self

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}: {self.cases - len(self.failures)}/{self.cases} cases"


Batch = Mapping[str, Optional[ComplexObject]]


def default_workload(batches: int = 8) -> List[Dict[str, Optional[ComplexObject]]]:
    """A deterministic scripted workload mixing writes, updates and deletes.

    Batch *k* writes (or rewrites) a name from a small rotating pool; every
    fifth batch also deletes the previously-written name, and every third
    batch commits two names at once, so recovery has to preserve versions,
    deletions and multi-write atomicity — not just blind appends.  Every
    batch also carries the next version of ``ledger``, a tuple holding a
    growing set: two rows inserted, one replaced, one removed, in turn, and a
    counter overwritten — small changes to a larger object, which the log
    holds as *edits* beside the batch's whole writes and deletes.
    """
    workload: List[Dict[str, Optional[ComplexObject]]] = []
    rows = [obj({"id": n, "tag": f"t{n}"}) for n in range(6)]
    for k in range(1, batches + 1):
        batch: Dict[str, Optional[ComplexObject]] = {f"o{k % 4}": obj([k, k * k])}
        if k % 3 == 0:
            batch[f"extra{k % 2}"] = obj({f"v{k}"})
        if k % 5 == 0:
            batch[f"o{(k - 1) % 4}"] = None
        if k > 1:
            if k % 3 != 1:
                rows.pop(0)
            if k % 3 != 0:
                rows.append(obj({"id": 10 * k, "tag": f"t{k}"}))
            if k % 3 == 1:
                rows.append(obj({"id": 10 * k + 1, "tag": f"u{k}"}))
        batch["ledger"] = obj({"batches": k, "rows": set(rows)})
        workload.append(batch)
    return workload


def _apply_all(
    state: Dict[str, ComplexObject], batch: Batch
) -> Dict[str, ComplexObject]:
    """The reference semantics: what a committed batch does to the state."""
    for name, value in batch.items():
        if value is None:
            state.pop(name, None)
        else:
            state[name] = value
    return state


def _expected_states(workload: Sequence[Batch]) -> List[Dict[str, ComplexObject]]:
    """Expected state after 0, 1, ..., N commits (N+1 snapshots)."""
    snapshots = [dict()]  # type: List[Dict[str, ComplexObject]]
    for batch in workload:
        snapshots.append(_apply_all(dict(snapshots[-1]), batch))
    return snapshots


def _recovered_state(path: str) -> Dict[str, ComplexObject]:
    database = ObjectDatabase(FileStorage(path))
    try:
        return database.snapshot()
    finally:
        database.close()


def _build_log(path: str, workload: Sequence[Batch], upto: int) -> None:
    """Write a fresh log containing commits ``1..upto`` of the workload."""
    if os.path.exists(path):
        os.remove(path)
    database = ObjectDatabase(FileStorage(path))
    try:
        for batch in workload[:upto]:
            database.commit_batch(batch)
    finally:
        database.close()


def run_crash_sweep(
    workload: Optional[Sequence[Batch]] = None,
    *,
    directory: Optional[str] = None,
    seed: int = 0,
) -> SweepReport:
    """Crash at every boundary of every commit; assert prefix recovery."""
    if workload is None:
        workload = default_workload()
    expected = _expected_states(workload)
    report = SweepReport()
    scratch = directory or tempfile.mkdtemp(prefix="repro-crash-sweep-")
    os.makedirs(scratch, exist_ok=True)
    try:
        path = os.path.join(scratch, "sweep.wal")
        for k in range(1, len(workload) + 1):
            for boundary in BOUNDARIES:
                report.cases += 1
                _build_log(path, workload, k - 1)
                database = ObjectDatabase(FileStorage(path))
                crashed = False
                try:
                    with inject(_BOUNDARY_SPECS[boundary], seed=seed + k):
                        try:
                            database.commit_batch(workload[k - 1])
                        except SimulatedCrash:
                            crashed = True
                finally:
                    database.close()
                if not crashed:
                    report.failures.append(
                        f"commit {k} {boundary}: expected a simulated crash"
                    )
                    continue
                # ``after_append`` crashed between append and fsync: the
                # record is intact on the simulated disk, so the commit
                # survives; the other boundaries must lose exactly commit k.
                survives = k if boundary == "after_append" else k - 1
                recovered = _recovered_state(path)
                if recovered != expected[survives]:
                    report.failures.append(
                        f"commit {k} {boundary}: recovered"
                        f" {sorted(recovered)} != expected commit-{survives}"
                        f" state {sorted(expected[survives])}"
                    )
    finally:
        if directory is None:
            shutil.rmtree(scratch, ignore_errors=True)
    return report


def run_truncation_sweep(
    workload: Optional[Sequence[Batch]] = None,
    *,
    directory: Optional[str] = None,
    stride: int = 1,
) -> SweepReport:
    """Truncate the complete log at every byte offset; assert prefix recovery.

    ``stride`` > 1 samples every ``stride``-th offset (the smoke mode);
    record boundaries are always included regardless of stride, since they
    are the offsets where the expected state changes.
    """
    if workload is None:
        workload = default_workload()
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride!r}")
    expected = _expected_states(workload)
    report = SweepReport()
    scratch = directory or tempfile.mkdtemp(prefix="repro-trunc-sweep-")
    os.makedirs(scratch, exist_ok=True)
    try:
        full_path = os.path.join(scratch, "full.wal")
        _build_log(full_path, workload, len(workload))
        with open(full_path, "rb") as handle:
            raw = handle.read()
        # Byte offset just past each record's newline; boundaries[i] is the
        # end of commit i (boundaries[0] == 0: the empty log).
        boundaries = [0]
        position = 0
        while True:
            newline = raw.find(b"\n", position)
            if newline < 0:
                break
            position = newline + 1
            boundaries.append(position)
        offsets = sorted(set(range(0, len(raw) + 1, stride)) | set(boundaries))
        path = os.path.join(scratch, "truncated.wal")
        for offset in offsets:
            report.cases += 1
            # The longest prefix of whole records inside ``offset`` bytes.
            commits = max(i for i, end in enumerate(boundaries) if end <= offset)
            with open(path, "wb") as handle:
                handle.write(raw[:offset])
            recovered = _recovered_state(path)
            if recovered != expected[commits]:
                report.failures.append(
                    f"truncation at byte {offset}: recovered"
                    f" {sorted(recovered)} != expected commit-{commits}"
                    f" state {sorted(expected[commits])}"
                )
    finally:
        if directory is None:
            shutil.rmtree(scratch, ignore_errors=True)
    return report


def run_sweep(
    *,
    batches: int = 8,
    stride: int = 1,
    seed: int = 0,
    directory: Optional[str] = None,
) -> SweepReport:
    """The full harness: crash sweep + byte-granular truncation sweep."""
    workload = default_workload(batches)
    report = run_crash_sweep(workload, directory=directory, seed=seed)
    return report.merge(
        run_truncation_sweep(workload, directory=directory, stride=stride)
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fault.sweep",
        description="Crash-consistency sweep over the write-ahead log.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload and strided truncation offsets (for CI)",
    )
    parser.add_argument("--batches", type=int, default=None, help="workload size")
    parser.add_argument(
        "--stride", type=int, default=None, help="truncation offset stride"
    )
    parser.add_argument("--seed", type=int, default=0, help="injection seed")
    options = parser.parse_args(argv)
    batches = options.batches if options.batches is not None else (5 if options.smoke else 12)
    stride = options.stride if options.stride is not None else (17 if options.smoke else 1)
    report = run_sweep(batches=batches, stride=stride, seed=options.seed)
    print(report.summary())
    for failure in report.failures:
        print(f"  FAIL {failure}", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
