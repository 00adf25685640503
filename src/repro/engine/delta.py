"""Delta decomposition: which part of a rule body can be matched incrementally.

The semi-naive discipline only works for a body when every way the body's
match set can grow is witnessed by a **new element of some set** reachable
from the body root through tuple attributes.  For such bodies, a substitution
whose set witnesses are all *old* elements was already enumerated on an
earlier round (old elements are immutable objects, and matching inside a
witness depends on nothing else), so each round only needs, for every set
position in turn, the matches whose witness at that position is new.

A body is **delta-decomposable** when its spine — the part reachable through
tuple attributes — consists of non-empty tuple formulae and non-empty set
formulae only:

* a variable or constant on the spine reads a whole growing subtree, so its
  matches can change without any new set element appearing;
* an empty tuple or set formula matches as soon as *any* tuple/set exists at
  its path, again without contributing a witness;
* a ``bottom`` constant inside a set formula matches the empty set (the
  "vanish" alternative), so its match set can flip when the set first appears.

Everything below a set element is safe: witnesses are immutable complex
objects, and matching descends into the witness only.

Bodies that fail the test fall back to full matching on every round — a pure
performance loss, never a correctness one.

Each delta round's frontier (the new witnesses of one position) reaches the
executor as the ``delta_elements`` of a single :func:`repro.plan.execute.
match_rows` call, so a whole semi-naive frontier flows through the plan as
**one batch**: the restricted scan leaf emits every new witness's
alternatives at once and the meet-product joins them against the other
leaves frontier-at-a-time rather than witness-at-a-time.  The restricted
leaf runs first, whatever the optimizer ranked it, and scans its witnesses
without probing; the other leaves probe the match indexes by the variables
it binds, so a round costs about what its frontier joins with, not what
the sets hold.  The frontier itself is
:func:`repro.core.paths.new_set_elements`: nothing for a set that did not
change, an intern-id diff for one that grew.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.calculus.terms import Constant, Formula, SetFormula, TupleFormula
from repro.core.paths import Path

__all__ = ["DeltaPosition", "BodyDecomposition", "decompose"]

_ROOT = Path(())


@dataclass(frozen=True)
class DeltaPosition:
    """One incremental match position: element ``element_index`` of the set
    formula found at ``path`` (tuple-attribute steps from the body root)."""

    path: Path
    element_index: int


@dataclass(frozen=True)
class BodyDecomposition:
    """The result of analysing one rule body.

    ``decomposable`` tells whether the semi-naive discipline applies;
    ``positions`` are the delta positions to iterate over, and ``set_paths``
    the distinct paths whose per-round deltas must be computed.
    """

    decomposable: bool
    positions: Tuple[DeltaPosition, ...] = ()

    @property
    def set_paths(self) -> Tuple[Path, ...]:
        seen = []
        for position in self.positions:
            if position.path not in seen:
                seen.append(position.path)
        return tuple(seen)


_NOT_DECOMPOSABLE = BodyDecomposition(decomposable=False)


def decompose(body: Optional[Formula]) -> BodyDecomposition:
    """Analyse a rule body; facts (``body is None``) are trivially static."""
    if body is None:
        return BodyDecomposition(decomposable=True)
    positions: List[DeltaPosition] = []

    def walk(node: Formula, path: Path) -> bool:
        if isinstance(node, TupleFormula):
            if not len(node):
                return False
            return all(walk(child, path.child(name)) for name, child in node.items())
        if isinstance(node, SetFormula):
            if not len(node):
                return False
            for index, element in enumerate(node.elements):
                if isinstance(element, Constant) and element.value.is_bottom:
                    # ``{bottom}`` matches the empty set via the vanish
                    # alternative; its match set is not witness-driven.
                    return False
                positions.append(DeltaPosition(path, index))
            return True
        # Variable or Constant on the spine: reads a growing region directly.
        return False

    if not walk(body, _ROOT):
        return _NOT_DECOMPOSABLE
    return BodyDecomposition(decomposable=True, positions=tuple(positions))
