"""Offline write-ahead-log integrity checking (``repro store verify``).

:func:`verify_wal` walks a WAL file **read-only** — it never truncates a
torn tail, never quarantines, never opens an append handle — and reports
everything recovery would do without doing any of it: how many records and
commits are intact, how many bytes of torn tail a crash left, where the
first corrupt record sits and why, and whether a quarantine sidecar from an
earlier recovery is present.  The CLI surface is ``python -m repro store
verify --db-path PATH``, which prints the report as JSON and exits non-zero
when the log is damaged — usable as a backup-time or post-incident check
without risking a mutating open.
"""

from __future__ import annotations

import os
from typing import Any, Dict

from repro.store.storage import LogReplay

__all__ = ["verify_wal"]


def verify_wal(path: str) -> Dict[str, Any]:
    """Check a WAL file's integrity without modifying anything.

    Returns a JSON-compatible report::

        {
          "path": ...,            # the file checked
          "size_bytes": ...,      # its size (0 when absent)
          "exists": ...,          # False: an absent log is an empty store
          "records": ...,         # intact records replayable before damage
          "commits": ...,         # the same count: commits are the only records
          "images": ...,          # of those, records carrying a whole image
          "edits": ...,           # ... and records carrying an edit
          "objects": ...,         # live names after replaying the prefix
          "torn_tail_bytes": ..., # unterminated final line (crash mid-append)
          "corrupt_records": [{"line": ..., "error": ...}, ...],
          "quarantine": {"present": ..., "path": ..., "bytes": ...},
          "clean": ...,           # no corruption, no torn tail, no sidecar
        }

    A torn tail and a quarantine sidecar are *damage* (``clean`` is
    ``False``) but not corruption: recovery handles both losslessly.  A
    corrupt record means in-place damage that quarantine-on-open would move
    aside; everything after it is unreachable and is not counted.  The
    replay is recovery's own (:class:`~repro.store.storage.LogReplay`), so the
    record this reports is the record an open would quarantine.
    """
    quarantine_path = path + ".quarantine"
    report: Dict[str, Any] = {
        "path": path,
        "size_bytes": 0,
        "exists": os.path.exists(path),
        "records": 0,
        "commits": 0,
        "images": 0,
        "edits": 0,
        "objects": 0,
        "torn_tail_bytes": 0,
        "corrupt_records": [],
        "quarantine": {
            "present": os.path.exists(quarantine_path),
            "path": quarantine_path,
            "bytes": (
                os.path.getsize(quarantine_path)
                if os.path.exists(quarantine_path)
                else 0
            ),
        },
        "clean": True,
    }
    if report["exists"]:
        with open(path, "rb") as handle:
            raw = handle.read()
        report["size_bytes"] = len(raw)
        if raw and not raw.endswith(b"\n"):
            boundary = raw.rfind(b"\n") + 1
            report["torn_tail_bytes"] = len(raw) - boundary
            raw = raw[:boundary]
        replay, corruption = LogReplay.of(raw)
        if corruption is not None:
            _, line_number, reason = corruption
            report["corrupt_records"].append({"line": line_number, "error": reason})
        report["records"] = report["commits"] = replay.records
        report["images"], report["edits"] = replay.images, replay.edits
        report["objects"] = len(replay.objects)
    report["clean"] = (
        not report["corrupt_records"]
        and report["torn_tail_bytes"] == 0
        and not report["quarantine"]["present"]
    )
    return report
