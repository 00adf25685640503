"""Fixpoint semantics of rule sets (Definitions 4.5–4.6, Theorem 4.1).

An object ``O`` is *closed* under a rule ``r`` when ``r(O) ≤ O``, and closed
under a rule set when it is closed under every rule.  The *closure* of ``O``
under a rule set ``R`` is the least object closed under ``R`` (and containing
``O``); because rule application is monotone (Lemma 4.1) and the object space
is a lattice (Theorem 3.6), Tarski's theorem guarantees that whenever the
iterated application of ``R`` converges, it converges to that closure
(Theorem 4.1).

The paper presents the series ``O1 = O, On = R(On-1)``.  Read literally that
series *forgets* the original object after the first step (in Example 4.5 the
``family`` relation would disappear, leaving nothing to join against), so the
library computes the **inflationary** series ``On = On-1 ∪ R(On-1)`` by
default; both forms are available through the ``inflationary`` flag and the
:func:`closure_series` generator.  For monotone ``R`` the inflationary series
is non-decreasing and its limit is the least fixpoint above ``O``.

Some rule sets have no finite closure (Example 4.6 generates the infinite set
of lists of ones).  The engine therefore carries three guards — a maximum
number of iterations, a maximum node count and a maximum depth — and raises
:class:`~repro.core.errors.DivergenceError` with the partial result attached
when any of them trips.

**Guard ordering.**  Each iteration tests convergence *before* checking the
size and depth guards, so a series that has already converged is returned
even when the fixpoint itself exceeds ``max_nodes`` or ``max_depth`` — most
visibly when the input is already closed: ``close(huge, rules)`` succeeds
with zero iterations however large ``huge`` is.  Only objects produced by a
*growing* step are measured, so the same over-limit value reached one round
earlier (as new growth) raises.  This is intended: the guards exist to stop
runaway series, not to reject answers that were legitimately computed — a
converged result is never rejected.  ``tests/test_calculus_fixpoint.py``
pins the behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

from repro.core.depth import depth, node_count
from repro.core.errors import DivergenceError
from repro.core.lattice import union
from repro.core.objects import ComplexObject
from repro.core.order import is_subobject
from repro.calculus.rules import Rule, RuleSet

__all__ = ["ClosureResult", "check_guards", "close", "closure_series"]

#: Default resource guards; generous enough for every example and benchmark in
#: the repository while still catching Example 4.6 quickly.
DEFAULT_MAX_ITERATIONS = 200
DEFAULT_MAX_NODES = 500_000
DEFAULT_MAX_DEPTH = 200


@dataclass(frozen=True)
class ClosureResult:
    """Outcome of a closure computation.

    Attributes
    ----------
    value:
        The computed closure (least object above the input closed under the
        rules).
    iterations:
        Number of rule-set applications performed before reaching the
        fixpoint.
    converged:
        Always ``True`` for results returned by :func:`close`; kept so callers
        treating :class:`ClosureResult` and partial results uniformly can
        branch on it.
    """

    value: ComplexObject
    iterations: int
    converged: bool = True


def _as_ruleset(rules: Union[Rule, RuleSet, Sequence[Rule]]) -> RuleSet:
    if isinstance(rules, RuleSet):
        return rules
    if isinstance(rules, Rule):
        return RuleSet([rules])
    return RuleSet(rules)


def close(
    database: ComplexObject,
    rules: Union[Rule, RuleSet, Sequence[Rule]],
    *,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    max_nodes: int = DEFAULT_MAX_NODES,
    max_depth: Union[int, float] = DEFAULT_MAX_DEPTH,
    inflationary: bool = True,
    allow_bottom: bool = False,
    deadline=None,
) -> ClosureResult:
    """Compute the closure of ``database`` under ``rules`` (Definition 4.6).

    Parameters mirror the resource guards described in the module docstring.
    With ``inflationary=False`` the literal series of Theorem 4.1
    (``On = R(On-1)``) is iterated instead; in that mode convergence means the
    series reaches an object with ``R(O) = O``.  ``allow_bottom`` selects the
    literal matching semantics (see :mod:`repro.calculus.matching`).

    ``deadline`` — a :class:`repro.fault.Deadline` — is checked once per
    iteration; on expiry the evaluation raises
    :class:`~repro.core.errors.QueryTimeout` with the in-flight partial
    closure attached.

    Raises :class:`~repro.core.errors.DivergenceError` when a guard trips —
    which is the expected outcome for programs with no finite closure, such as
    Example 4.6.
    """
    ruleset = _as_ruleset(rules)
    current = database
    for iteration in range(1, max_iterations + 1):
        if deadline is not None:
            deadline.check(
                f"fixpoint iteration {iteration} ({len(ruleset)} rules)",
                partial=current,
            )
        produced = ruleset.apply(current, allow_bottom=allow_bottom)
        next_value = union(current, produced) if inflationary else produced
        if next_value == current:
            return ClosureResult(value=current, iterations=iteration - 1)
        check_guards(next_value, iteration, max_nodes, max_depth)
        current = next_value
    # One extra check: the last computed object may already be closed even if
    # the loop ran out of iterations exactly at the fixpoint.
    if is_subobject(ruleset.apply(current, allow_bottom=allow_bottom), current):
        return ClosureResult(value=current, iterations=max_iterations)
    raise DivergenceError(
        f"closure did not converge within {max_iterations} iterations",
        partial=current,
        iterations=max_iterations,
    )


def closure_series(
    database: ComplexObject,
    rules: Union[Rule, RuleSet, Sequence[Rule]],
    *,
    inflationary: bool = True,
    allow_bottom: bool = False,
) -> Iterator[ComplexObject]:
    """Yield the successive approximations ``O1, O2, ...`` of Theorem 4.1.

    The generator is infinite for diverging programs; callers are expected to
    bound their own consumption (``itertools.islice`` or an explicit loop).
    The first yielded value is the original object.
    """
    ruleset = _as_ruleset(rules)
    current = database
    yield current
    while True:
        produced = ruleset.apply(current, allow_bottom=allow_bottom)
        next_value = union(current, produced) if inflationary else produced
        if next_value == current:
            return
        current = next_value
        yield current


def check_guards(
    value: ComplexObject,
    iteration: int,
    max_nodes: int,
    max_depth: Union[int, float],
) -> None:
    """Raise :class:`DivergenceError` when ``value`` exceeds the size guards.

    Shared by :func:`close` and the engine of :mod:`repro.engine`; only
    called on values produced by a growing step, never on a converged result
    (see the module docstring on guard ordering).
    """
    size = node_count(value)
    if size > max_nodes:
        raise DivergenceError(
            f"closure exceeded {max_nodes} nodes after {iteration} iterations"
            " (the rule set probably has no finite closure, cf. Example 4.6)",
            partial=value,
            iterations=iteration,
        )
    current_depth = depth(value)
    if current_depth is not math.inf and current_depth > max_depth:
        raise DivergenceError(
            f"closure exceeded depth {max_depth} after {iteration} iterations"
            " (the rule set probably has no finite closure, cf. Example 4.6)",
            partial=value,
            iterations=iteration,
        )
