"""The frozen reference kernel every ``_norm`` metric is divided by.

On a shared VM the CPU's speed drifts by tens of percent within seconds, and
``process_time`` drifts with it, so raw latencies do not repeat.  A fixed
pure-Python kernel run between the measured operations drifts the same way;
an operation's ``_norm`` latency is its wall time divided by the median kernel
passes next to it, in *reference-kernel passes* (unit ``ref``).

The kernel is frozen: changing a single line re-baselines every ``_norm``
metric ever recorded.  ``CHECKSUM`` pins it (the smoke test compares).
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Tuple

#: Size of one pass: about 0.8 ms on the sandbox the bounds were set on, short
#: enough to run one right before every sparsely sampled step.
SIZE = 1000

#: ``kernel_pass()`` must return exactly this.
CHECKSUM = 3693641016


def kernel_pass() -> int:
    """Dict set/get on tuple keys, one sort, one hash fold."""
    table = {}
    for i in range(SIZE):
        table[(i, i * 7 % 13)] = i * 31 % 1009
    total = 0
    for i in range(SIZE):
        total += table[(i, i * 7 % 13)]
    ordered = sorted(table.items(), key=lambda item: (item[1], item[0][1], -item[0][0]))
    fold = total
    for (a, b), value in ordered:
        fold = (fold * 1000003 ^ (a + 3 * b + 7 * value)) & 0xFFFFFFFF
    return fold


#: A sample is normalised by the passes within this long of it (or within its
#: own length, if longer), and by at least this many on each side.
SPAN_S = 0.03
NEAREST = 2


class Calibrator:
    """Records timed kernel passes and gives the local speed at any moment.

    Speed flips by up to 2x within seconds here, so an op is normalised by
    the passes *next to it in time*, not by a run-wide or block-wide median:
    on a recorded 100 s trace of a 3 ms op the local factor halved the
    run-to-run spread a ten-block median left (1.7 % against 3-4 %).
    """

    def __init__(self) -> None:
        self.ends: List[float] = []  # perf_counter() at the end of each pass
        self.seconds: List[float] = []

    def tick(self) -> None:
        start = time.perf_counter()
        kernel_pass()
        end = time.perf_counter()
        self.ends.append(end)
        self.seconds.append(end - start)

    def factor(self, start: float, elapsed: float) -> float:
        """Seconds of one reference pass around ``[start, start + elapsed]``.

        The median of the passes that ended within ``max(elapsed, SPAN_S)``
        of the interval, and of at least ``NEAREST`` on each side: an op that
        averages the machine's speed over half a second is compared with
        passes from a comparable stretch of time, not with the few that
        happened to touch it.
        """
        reach = max(elapsed, SPAN_S)
        end = start + elapsed
        first = min(
            bisect.bisect_left(self.ends, start - reach),
            max(0, bisect.bisect_right(self.ends, start) - NEAREST),
        )
        last = max(
            bisect.bisect_right(self.ends, end + reach),
            bisect.bisect_left(self.ends, end) + NEAREST,
        )
        near = self.seconds[first:last]
        if not near:
            raise RuntimeError("no calibration pass was recorded")
        return statistics.median(near)

    def summary(self) -> Tuple[float, float]:
        """(median pass in ms, interquartile spread as a share of the median)."""
        median = statistics.median(self.seconds)
        if len(self.seconds) < 2:
            return median * 1e3, 0.0
        q1, _, q3 = statistics.quantiles(self.seconds, n=4)
        return median * 1e3, (q3 - q1) / median
