"""The benchmark's own span recorder.

The traced pass opens one root span per op (``bench.op``) and one per layer
probe (``probe.<layer>.<function>``) from the benchmark's files; every span
the program already emits (``session.*``, ``engine.*``, ``store.*``) nests
under it through ``repro.obs``'s thread-local stack.  After each op the
finished tree is harvested from the tracer, kept in memory as flat records
(name, start, end, parent, op id) and written out once, at exit, as a
Chrome trace-event file (open it in ``chrome://tracing`` or ui.perfetto.dev).

A span's self time is its duration minus the part its children cover.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, List

from repro import obs

__all__ = ["Recorder", "self_ns", "layer_of", "layer_self_ns", "walk"]

#: Span-name prefixes the program emits, by layer.  ``session.*`` spans are
#: the api layer's instrumented part; anything else under an op root is the
#: benchmark's own (``bench.*`` / ``probe.*``).
_LAYERS = ("engine", "store", "session")


def walk(span) -> Iterator:
    """The span and every descendant, parents first."""
    yield span
    for child in span.children:
        yield from walk(child)


def self_ns(span) -> int:
    """Duration minus covered child time (children of one thread never overlap)."""
    covered = sum(child.duration_ns or 0 for child in span.children)
    return max(0, (span.duration_ns or 0) - covered)


def layer_of(name: str) -> str:
    prefix = name.split(".", 1)[0]
    return prefix if prefix in _LAYERS else "bench"


def layer_self_ns(root) -> Dict[str, int]:
    """Self time under ``root`` by layer; the values sum to the root's duration."""
    totals = {layer: 0 for layer in _LAYERS}
    totals["bench"] = 0
    for span in walk(root):
        totals[layer_of(span.name)] += self_ns(span)
    return totals


class Recorder:
    """Turns tracing on, harvests finished traces, writes them out at exit."""

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._tracer = None

    def start(self) -> None:
        obs.disable_tracing()
        self._tracer = obs.enable_tracing(max_traces=1 << 16)

    def stop(self) -> None:
        obs.disable_tracing()
        self._tracer = None

    def harvest(self) -> List:
        """The root spans finished since the last harvest (and remember them)."""
        if self._tracer is None:
            return []
        roots = self._tracer.traces()
        self._tracer.clear()
        for root in roots:
            op = root.attrs.get("op")
            for span in walk(root):
                self.records.append(
                    {
                        "name": span.name,
                        "start_ns": span.start_ns,
                        "end_ns": span.start_ns + (span.duration_ns or 0),
                        "id": span.span_id,
                        "parent": span.parent_id,
                        "op": op,
                    }
                )
        return roots

    def write(self, path: str) -> None:
        """Chrome trace-event JSON: one complete ("X") event per span."""
        if not self.records:
            return
        origin = min(record["start_ns"] for record in self.records)
        events = [
            {
                "name": record["name"],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (record["start_ns"] - origin) / 1e3,
                "dur": (record["end_ns"] - record["start_ns"]) / 1e3,
                "args": {
                    "id": record["id"], "parent": record["parent"], "op": record["op"],
                },
            }
            for record in self.records
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
