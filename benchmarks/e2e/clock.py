"""The benchmark's clock: times steps, calibrates between them, counts failures."""

from __future__ import annotations

import time
import traceback
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from repro import obs

from e2e.calib import Calibrator

__all__ = ["Clock"]

#: One reference pass per this much timed work (and around every long op).
_CALIB_EVERY_S = 0.008
_LONG_OP_S = 0.1
#: Passes before and after a long op: the speed moves while it runs, so the
#: local speed needs more than two samples.
_LONG_OP_PASSES = 10


class Clock:
    """Times steps, interleaves calibration passes, checks answers, counts failures.

    ``step(kind, fn, check)`` is one top-level timed operation, run under a
    root span ``bench.<kind>`` (``probe.*`` kinds keep their name) that is a
    no-op unless tracing is on; ``part(kind, fn)`` times a piece *inside* the
    current step (a composite op reports its commit as ``write`` and its query
    as ``read``).  Samples are kept as ``(start, seconds)`` and normalised
    afterwards by the passes next to them.  ``recorder`` — a
    :class:`e2e.spans.Recorder` — hands back each step's finished span tree.
    """

    def __init__(self, recorder=None) -> None:
        self.calib = Calibrator()
        self.samples: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self.roots: List[Tuple[str, float, float, object]] = []
        self.steps = 0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self._recorder = recorder
        self._since_s = 0.0
        self._long_kinds = set()

    def _tick(self, passes: int = 1) -> None:
        for _ in range(passes):
            self.calib.tick()
        self._since_s = 0.0

    def step(self, kind: str, fn: Callable[[], object], check=None, *, fresh: bool = False):
        """Run and time ``fn``; ``check(result)`` (untimed) must return true.

        ``fresh`` runs a pass right before the step whatever the schedule
        says: a kind sampled a few dozen times a run needs every sample to
        have its own neighbouring passes, or a whole burst shares one
        (noisy) factor.
        """
        if fresh and self._since_s > 0.0:
            self._tick()
        if kind in self._long_kinds:
            if self._since_s > 0.0:  # else the previous long op's passes serve
                self._tick(_LONG_OP_PASSES)
        elif self._since_s >= _CALIB_EVERY_S or not self.calib.ends:
            self._tick()
        result = error = None
        with obs.span(kind if kind.startswith("probe.") else f"bench.{kind}", op=self.steps):
            start = time.perf_counter()
            try:
                result = fn()
            except Exception:  # a failed op is a counted outcome, not a crash
                error = traceback.format_exc(limit=4)
            elapsed = time.perf_counter() - start
        self.samples[kind].append((start, elapsed))
        self.steps += 1
        self._since_s += elapsed
        if elapsed > _LONG_OP_S:
            self._long_kinds.add(kind)  # the next op of this kind is likely long too
            self._tick(_LONG_OP_PASSES)
        else:
            self._long_kinds.discard(kind)
        if self._recorder is not None:
            for root in self._recorder.harvest():
                self.roots.append((kind, start, elapsed, root))
        self.attempted += 1
        if error is None and check is not None:
            try:
                if not check(result):
                    error = f"{kind} step {self.steps - 1}: wrong answer"
            except Exception:
                error = traceback.format_exc(limit=4)
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)
        return result

    def side(self, kind: str, fn: Callable[[], object], check=None):
        """A step of a sparsely sampled kind: always gets its own pass before it."""
        return self.step(kind, fn, check, fresh=True)

    def part(self, kind: str, fn: Callable[[], object]):
        """Time a piece of the step in progress (no calibration, no check)."""
        start = time.perf_counter()
        result = fn()
        self.samples[kind].append((start, time.perf_counter() - start))
        return result

    def fail(self, count: int, message: str) -> None:
        """Count failures found outside any step (lost acknowledged writes)."""
        self.failed += count
        if count and len(self.errors) < 5:
            self.errors.append(message)

    def finish(self) -> None:
        """One more pass, so that the last samples have one after them too."""
        self._tick()

    def normalised(self) -> Dict[str, List[float]]:
        """Every sample in reference passes: its seconds over the local pass time."""
        factor = self.calib.factor
        return {
            kind: [seconds / factor(start, seconds) for start, seconds in samples]
            for kind, samples in self.samples.items()
        }
