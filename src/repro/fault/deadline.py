"""Cooperative query deadlines: the clock behind ``timeout_ms=``.

A :class:`Deadline` is created once per query (``Session.execute(...,
timeout_ms=250)``) and threaded down the pipeline; the places evaluation can
spend unbounded time each call :meth:`Deadline.check` at their natural
yield points:

* the physical executor between plan instance steps
  (:func:`repro.plan.execute.match_rows`) and the streaming cursor per row;
* the engine and its oracle between fixpoint rounds
  (:meth:`SemiNaiveEngine._charge`, :func:`repro.calculus.fixpoint.close`
  per iteration).

``check`` raises :class:`~repro.core.errors.QueryTimeout` carrying the
elapsed time and whatever partial context the call site supplies — a plan
rendering for executor timeouts, the engine's partial closure for fixpoint
timeouts — so a timed-out query is diagnosable, not just dead.  The checks
are cooperative: one pathological *single* step can overshoot, but every
loop boundary is covered, which is what bounds real workloads.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Union

from repro.core.errors import QueryTimeout
from repro.obs.metrics import REGISTRY as _METRICS

__all__ = ["Deadline"]


class Deadline:
    """A wall-clock budget with a cheap ``expired`` test.

    Create with :meth:`start`; pass down; call :meth:`check` at loop
    boundaries.  The fast path — deadline not reached — is one
    ``perf_counter_ns`` read and a comparison.
    """

    __slots__ = ("timeout_ms", "_start_ns", "_deadline_ns")

    def __init__(self, timeout_ms: float, *, _start_ns: Optional[int] = None):
        self.timeout_ms = timeout_ms
        self._start_ns = time.perf_counter_ns() if _start_ns is None else _start_ns
        self._deadline_ns = self._start_ns + int(timeout_ms * 1e6)

    @classmethod
    def start(cls, timeout_ms: float) -> "Deadline":
        """A deadline ``timeout_ms`` milliseconds from now."""
        return cls(timeout_ms)

    @property
    def expired(self) -> bool:
        return time.perf_counter_ns() >= self._deadline_ns

    def elapsed_ms(self) -> float:
        return (time.perf_counter_ns() - self._start_ns) / 1e6

    def remaining_ms(self) -> float:
        return max(0.0, (self._deadline_ns - time.perf_counter_ns()) / 1e6)

    def check(
        self,
        context: str = "",
        *,
        partial_explain: Union[str, Callable[[], str], None] = None,
        partial=None,
    ) -> None:
        """Raise :class:`QueryTimeout` when the budget is spent.

        ``partial_explain`` may be a string or a zero-argument thunk (so
        call sites never pay for a rendering that is not needed); it must
        describe work already done — it is never allowed to re-execute the
        query.  ``partial`` attaches a partially-computed value (the
        engine's in-flight closure).
        """
        if time.perf_counter_ns() < self._deadline_ns:
            return
        elapsed = self.elapsed_ms()
        _METRICS.counter("session.query_timeouts").inc()
        rendered = partial_explain() if callable(partial_explain) else partial_explain
        where = f" during {context}" if context else ""
        raise QueryTimeout(
            f"query exceeded its {self.timeout_ms:g} ms deadline"
            f"{where} (elapsed {elapsed:.1f} ms)",
            timeout_ms=self.timeout_ms,
            elapsed_ms=elapsed,
            partial_explain=rendered,
            partial=partial,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Deadline {self.timeout_ms:g}ms,"
            f" {self.remaining_ms():.1f}ms remaining>"
        )
