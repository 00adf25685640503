"""Interpretation of well-formed formulae (Definition 4.2 of the paper).

``interpret(E, O)`` computes ``E(O) = ⋃ { σE | σE ≤ O }``: it selects all the
sub-objects of ``O`` that match ``E`` and takes their union (least upper
bound).  Because the union of two sub-objects of ``O`` is again a sub-object
of ``O``, the result is always a sub-object of ``O`` — a formula can *extract*
data from an object but can neither generate new data nor restructure the
original object (that is what rules are for).

Two implementations are provided:

* :func:`interpret` uses the matching engine of
  :mod:`repro.calculus.matching`, which enumerates only derivation-maximal
  substitutions and is the production code path;
* :func:`interpret_bruteforce` is a direct executable reading of Definition
  4.2: it enumerates *every* substitution over the finite candidate pool of
  sub-objects of parts of ``O`` and unions every valid instantiation.  It is
  exponential and exists purely as a test oracle.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, List

from repro.core.enumeration import EnumerationLimitExceeded, all_subobjects
from repro.core.lattice import union_all
from repro.core.objects import BOTTOM, ComplexObject, SetObject, TupleObject
from repro.core.order import is_subobject
from repro.calculus.matching import match_all
from repro.calculus.substitution import Substitution, instantiate
from repro.calculus.terms import Formula

__all__ = ["interpret", "interpret_bruteforce", "matching_instantiations"]


def interpret(
    formula: Formula, database: ComplexObject, *, allow_bottom: bool = False
) -> ComplexObject:
    """Return ``E(O)``, the interpretation of ``formula`` against ``database``.

    The result is ⊥ when no instantiation of the formula is a sub-object of
    the database (the union of the empty set of objects is the bottom of the
    lattice).  ``allow_bottom`` selects between the strict (default) and the
    literal semantics; see :mod:`repro.calculus.matching`.
    """
    instantiations = [
        substitution.apply(formula)
        for substitution in match_all(formula, database, allow_bottom=allow_bottom)
    ]
    return union_all(instantiations)


def matching_instantiations(
    formula: Formula, database: ComplexObject, *, allow_bottom: bool = False
) -> Iterator[ComplexObject]:
    """Yield the instantiations ``σE`` contributing to ``E(O)`` (deduplicated)."""
    seen = set()
    for substitution in match_all(formula, database, allow_bottom=allow_bottom):
        instantiation = substitution.apply(formula)
        if instantiation in seen:
            continue
        seen.add(instantiation)
        yield instantiation


def interpret_bruteforce(
    formula: Formula,
    database: ComplexObject,
    max_combinations: int = 2_000_000,
    *,
    allow_bottom: bool = False,
) -> ComplexObject:
    """Literal, exponential implementation of Definition 4.2 (test oracle).

    Every variable ranges over the full candidate pool — the reduced
    sub-objects of every node of ``database`` — and every combination is
    checked against ``σE ≤ O``.  Restricting candidates to that pool is sound
    because a variable occurring in ``E`` is matched, in any valid
    substitution, against some node of ``O`` and must therefore be dominated
    by it; variables not occurring in ``E`` do not affect ``σE`` at all.
    With ``allow_bottom=False`` (strict semantics) ⊥ is removed from the
    candidate pool, mirroring the restriction applied by the matching engine.
    """
    names = sorted(formula.variables())
    try:
        # The candidate pool itself can explode combinatorially (a wide tuple
        # of sets has exponentially many sub-objects), so its construction is
        # bounded by the same budget as the substitution enumeration.
        candidates = _candidate_pool(database, limit=max_combinations if names else None)
    except EnumerationLimitExceeded as error:
        raise ValueError(
            "brute-force interpretation would enumerate too many candidate objects;"
            f" the oracle is only meant for small objects (limit {max_combinations})"
        ) from error
    if not allow_bottom:
        candidates = [candidate for candidate in candidates if not candidate.is_bottom]
    total = len(candidates) ** len(names) if names else 1
    if total > max_combinations:
        raise ValueError(
            f"brute-force interpretation would enumerate {total} substitutions;"
            f" the oracle is only meant for small objects (limit {max_combinations})"
        )
    contributions: List[ComplexObject] = []
    for combination in product(candidates, repeat=len(names)):
        substitution = Substitution(dict(zip(names, combination)))
        instantiation = instantiate(formula, substitution)
        if is_subobject(instantiation, database):
            contributions.append(instantiation)
    return union_all(contributions)


def _candidate_pool(database: ComplexObject, limit: int = None) -> List[ComplexObject]:
    """All reduced sub-objects of every node (sub-tree) of ``database``.

    Raises :class:`EnumerationLimitExceeded` when more than ``limit``
    candidates would be collected.
    """
    pool = []
    seen = set()
    for node in _nodes(database):
        for candidate in all_subobjects(node, limit=limit):
            if candidate in seen:
                continue
            seen.add(candidate)
            pool.append(candidate)
            if limit is not None and len(pool) > limit:
                raise EnumerationLimitExceeded(
                    f"candidate pool exceeds {limit} objects"
                )
    if BOTTOM not in seen:
        pool.append(BOTTOM)
    return pool


def _nodes(value: ComplexObject) -> Iterator[ComplexObject]:
    """Yield every sub-tree of ``value`` (the value itself included)."""
    yield value
    if isinstance(value, TupleObject):
        for _, item in value.items():
            yield from _nodes(item)
    elif isinstance(value, SetObject):
        for element in value:
            yield from _nodes(element)
