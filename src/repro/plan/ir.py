"""The logical plan IR: one intermediate representation for every evaluator.

A rule body (or a query formula) compiles into a :class:`BodyPlan` — a flat
conjunction of *leaves*, each describing one access the matcher must perform
against the database object:

* :class:`ScanLeaf` — enumerate the elements of the set found at an attribute
  path and match one element formula against each of them (the pattern-match /
  scan node; a probe of the paper's Definition 4.2 witness choice);
* :class:`BindLeaf` — bind a spine variable to the whole sub-object at a path;
* :class:`ConstLeaf` — check that a ground constant is a sub-object of the
  value at a path (a pure selection);
* :class:`CheckLeaf` — check the shape (tuple/set) of the value at a path,
  contributed by empty tuple/set formulae.

Executing a body is the *meet-product* over the leaves' alternative
substitution lists — and because the substitution meet is commutative and
associative and results are deduplicated, **any leaf order computes the same
substitution set**.  That order-independence is the soundness argument behind
the cost-based join reordering of :mod:`repro.plan.optimize`, and it is what
lets the vectorized executor (:mod:`repro.plan.execute`) dispatch each leaf
once per *batch* of partial substitutions rather than once per partial: the
meet-product over whole frontiers is the same set either way.

A rule's plan is its body plan: the closure engine joins the head over the
executor's rows with one compiled projection
(:func:`repro.plan.compile.compile_projection`) and schedules rules by the strata of
:mod:`repro.calculus.dependency`.  The same IR is what :mod:`repro.plan.explain`
renders, what :mod:`repro.plan.execute` runs, and what
:mod:`repro.algebra.translate` lowers to algebra expressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from repro.calculus.terms import Formula
from repro.core.errors import ParameterError
from repro.core.objects import Atom, ComplexObject
from repro.core.paths import Path

__all__ = [
    "Leaf",
    "ScanLeaf",
    "BindLeaf",
    "ConstLeaf",
    "CheckLeaf",
    "ParamLeaf",
    "LeafEstimate",
    "BodyPlan",
    "NO_PARAMS",
    "leaf_key",
]


class _Unbound(dict):
    """The values of an execution that binds no ``$parameter``: reading a slot raises."""

    __slots__ = ()

    def __missing__(self, name):
        raise ParameterError(
            f"cannot execute a plan with unbound parameter ${name}; pass its value"
        )


#: The ``params`` of a parameter-free execution: every slot read raises
#: :class:`~repro.core.errors.ParameterError`.
NO_PARAMS = _Unbound()


@dataclass(frozen=True)
class Leaf:
    """One conjunct of a compiled body: an access at an attribute path."""

    path: Path

    def describe(self) -> str:  # pragma: no cover - overridden by subclasses
        raise NotImplementedError


@dataclass(frozen=True)
class ScanLeaf(Leaf):
    """Match ``element`` against every element of the set at ``path``.

    ``element_index`` is the element formula's position inside its set formula
    (the identity the semi-naive delta discipline restricts by).
    ``static_keys`` are (key path, ground atom) pairs usable for an index probe
    immediately; ``dynamic_keys`` are (key path, variable name) pairs usable
    once the variable is bound by an earlier leaf — the optimizer orders
    binding leaves first exactly to turn these into hash lookups.
    """

    element_index: int
    element: Formula
    static_keys: Tuple[Tuple[Path, Atom], ...] = ()
    dynamic_keys: Tuple[Tuple[Path, str], ...] = ()
    variables: FrozenSet[str] = frozenset()
    #: (key path, parameter name) pairs: ``$slots`` that probe like *static*
    #: keys once an execution binds them to atoms — the optimizer costs them
    #: like an equality probe, and :meth:`bound_keys` reads them at execute
    #: time, with no re-planning and no rebuilt leaf.
    param_keys: Tuple[Tuple[Path, str], ...] = ()

    def describe(self) -> str:
        where = str(self.path) or "<root>"
        return f"scan {where} ~ {self.element.to_text()}"

    def bound_keys(self, params) -> Tuple[Tuple[Path, Atom], ...]:
        """The static keys with every slot ``params`` binds to an atom among them.

        In key-path order, which is :func:`repro.plan.indexes.element_keys`'
        walk order: the static keys the element bound to ``params`` has.  A
        slot bound to anything but an atom keys nothing (its leaf scans).
        """
        if not self.param_keys:
            return self.static_keys
        bound = [
            (key_path, value)
            for key_path, name in self.param_keys
            if isinstance(value := params[name], Atom)
        ]
        if not self.static_keys:
            return tuple(bound)
        return tuple(sorted(self.static_keys + tuple(bound), key=lambda key: key[0].steps))


@dataclass(frozen=True)
class BindLeaf(Leaf):
    """Bind spine variable ``name`` to the sub-object at ``path``."""

    name: str = ""

    def describe(self) -> str:
        where = str(self.path) or "<root>"
        return f"bind {self.name} := {where}"


@dataclass(frozen=True)
class ConstLeaf(Leaf):
    """Require the ground ``value`` to be a sub-object of the value at ``path``."""

    value: ComplexObject = None  # type: ignore[assignment]

    def describe(self) -> str:
        where = str(self.path) or "<root>"
        return f"select {where} >= {self.value.to_text()}"


@dataclass(frozen=True)
class ParamLeaf(Leaf):
    """A spine ``$parameter`` slot: a :class:`ConstLeaf` whose value arrives later.

    Compiled from a :class:`repro.calculus.terms.Parameter` on the body's
    spine.  The executor reads its value from the execution's ``params`` and
    tests it as a :class:`ConstLeaf` tests its constant; executing without a
    value for it raises :class:`~repro.core.errors.ParameterError`.
    (:func:`repro.plan.parameters.bind_body_plan`, the oracle and EXPLAIN's
    renderer, replaces it with that :class:`ConstLeaf`.)
    """

    name: str = ""

    def describe(self) -> str:
        where = str(self.path) or "<root>"
        return f"select {where} >= ${self.name}"


@dataclass(frozen=True)
class CheckLeaf(Leaf):
    """Require a tuple/set shape at ``path`` (an empty tuple/set formula)."""

    shape: str = "tuple"  # "tuple" | "set"

    def describe(self) -> str:
        where = str(self.path) or "<root>"
        return f"check {where} is {self.shape}"


@dataclass(frozen=True)
class LeafEstimate:
    """The optimizer's annotation for one leaf: estimated rows and access path."""

    rows: float
    access: str  # e.g. "scan", "index name=abraham", "index name=$X"
    #: The inferred shape of what this leaf reads (a scan leaf's element
    #: shape), rendered by EXPLAIN; ``None`` when the shape pass did not run.
    shape: Optional[str] = None


@dataclass(frozen=True)
class BodyPlan:
    """A compiled body: its leaves, in execution order.

    ``optimized`` records whether :func:`repro.plan.optimize.optimize_body`
    chose the order (else the leaves are in source order); ``estimates`` is a
    tuple parallel to ``leaves`` carrying the optimizer's cost annotations.
    """

    body: Formula
    leaves: Tuple[Leaf, ...]
    optimized: bool = False
    estimates: Optional[Tuple[LeafEstimate, ...]] = None
    #: When the shape analysis proved the body can never produce a row, the
    #: one-line proof; the executor then short-circuits to zero rows without
    #: touching the database.  ``None`` = not pruned.
    pruned: Optional[str] = None
    #: A plan with ``$parameters`` keeps its body's compiled projections by
    #: row names (:func:`repro.plan.compile.compile_projection`): the first
    #: cursor to answer from it compiles one, and it lives as long as the
    #: plan.  ``None`` for a parameter-free plan, whose cursors compile their
    #: own: an ad-hoc query text runs once.
    projections: Optional[Dict[Tuple[str, ...], object]] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.body.parameters():
            object.__setattr__(self, "projections", {})

    @property
    def variables(self) -> FrozenSet[str]:
        return self.body.variables()

    @property
    def parameters(self) -> FrozenSet[str]:
        """The ``$parameter`` names the plan needs bound before execution."""
        return self.body.parameters()

    def describe(self) -> str:
        inner = ", ".join(leaf.describe() for leaf in self.leaves)
        kind = "join" if len(self.leaves) > 1 else "match"
        return f"{kind}({inner})"


def leaf_key(leaf: Leaf) -> Tuple[Tuple[str, ...], int]:
    """The identity of a leaf inside its body: (path steps, element index).

    Non-scan leaves use index ``-1``; tuple attributes are unique, so the pair
    identifies each leaf of a body unambiguously.  The executor uses this key
    to map runtime leaf instances onto the optimizer's chosen order.
    """
    index = leaf.element_index if isinstance(leaf, ScanLeaf) else -1
    return (leaf.path.steps, index)
