"""Update primitives for complex objects (the paper's future-work item 3).

All updates are *functional*: they return a new object and never mutate the
input (complex objects are immutable).  Four primitives cover the usual needs
of an object database:

* :func:`assign_path` — set the value at an attribute path, creating the
  intermediate tuples as needed;
* :func:`remove_path` — delete the attribute at a path (assigning ⊥);
* :func:`insert_element` / :func:`remove_element` — add or drop an element of
  the set stored at a path;
* :func:`merge_object` — lattice union with another object (the paper's own
  "monotone update").

:func:`diff_object` / :func:`apply_edits` are the inverse pair: the edits that
turn one interned object into another, read off the structure the two share
by identity, and their application — ``apply_edits(old, diff_object(old, new))
is new``.  The write-ahead log (:mod:`repro.store.storage`) commits the edits
instead of the object whenever they are the smaller of the two.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.errors import StoreError
from repro.core.lattice import union
from repro.core.objects import BOTTOM, TOP, ComplexObject, SetObject, TupleObject
from repro.core.paths import Path

__all__ = [
    "assign_path",
    "remove_path",
    "insert_element",
    "remove_element",
    "merge_object",
    "diff_object",
    "apply_edits",
]


def _as_path(path: Union[Path, str]) -> Path:
    return path if isinstance(path, Path) else Path(path)


def assign_path(
    value: ComplexObject, path: Union[Path, str], new_value: ComplexObject
) -> ComplexObject:
    """Return a copy of ``value`` with ``new_value`` stored at ``path``.

    Missing intermediate attributes are created as tuple objects; a non-tuple
    in the middle of the path is an error (the caller is trying to descend
    into an atom or a set).
    """
    steps = _as_path(path).steps
    if not steps:
        return new_value
    return _assign(value, steps, new_value)


def _assign(value: ComplexObject, steps, new_value: ComplexObject) -> ComplexObject:
    head, rest = steps[0], steps[1:]
    if value.is_bottom:
        value = TupleObject({})
    if not isinstance(value, TupleObject):
        raise StoreError(
            f"cannot descend into {value.to_text()} to assign attribute {head!r}"
        )
    child = value.get(head)
    replacement = new_value if not rest else _assign(child, rest, new_value)
    return value.replace(**{head: replacement})


def remove_path(value: ComplexObject, path: Union[Path, str]) -> ComplexObject:
    """Return a copy of ``value`` with the attribute at ``path`` removed."""
    steps = _as_path(path).steps
    if not steps:
        return BOTTOM
    return _assign(value, steps, BOTTOM)


def _descend(value: ComplexObject, steps) -> ComplexObject:
    """The value at ``steps`` below ``value``, through tuples only (⊥ when absent)."""
    for step in steps:
        if not isinstance(value, TupleObject):
            raise StoreError(f"cannot descend into {value.to_text()} at step {step!r}")
        value = value.get(step)
    return value


def insert_element(
    value: ComplexObject, path: Union[Path, str], element: ComplexObject
) -> ComplexObject:
    """Insert ``element`` into the set stored at ``path`` (creating it if absent)."""
    steps = _as_path(path).steps
    current = _descend(value, steps)
    if current.is_bottom:
        target = SetObject([element])
    elif isinstance(current, SetObject):
        target = current.add(element)
    else:
        raise StoreError(f"value at {'.'.join(steps) or '<root>'} is not a set")
    return assign_path(value, Path(steps), target)


def remove_element(
    value: ComplexObject, path: Union[Path, str], element: ComplexObject
) -> ComplexObject:
    """Remove ``element`` from the set stored at ``path`` (no error if absent)."""
    steps = _as_path(path).steps
    current = _descend(value, steps)
    if current.is_bottom:
        return value
    if not isinstance(current, SetObject):
        raise StoreError(f"value at {'.'.join(steps) or '<root>'} is not a set")
    return assign_path(value, Path(steps), current.discard(element))


def merge_object(value: ComplexObject, other: ComplexObject) -> ComplexObject:
    """Lattice union of the stored object with ``other`` (a monotone update)."""
    return union(value, other)


# -- the edit between two versions of an object ----------------------------------------


def diff_object(old: Optional[ComplexObject], new: ComplexObject) -> Optional[List[dict]]:
    """The edits that turn ``old`` into ``new`` — or ``None``: keep the image.

    Interned objects are persistent structures, so the walk follows the spine
    the two versions do *not* share: subtrees equal by ``is`` cost nothing,
    two tuples recurse per attribute, two sets yield ``{"at": path, "add":
    [...], "del": [...]}`` (a changed element is one of each; an added element
    that subsumes old ones finds them under ``del``), and anything else is
    ``{"at": path, "put": value}`` (⊥ for an attribute that vanished).

    The answer is ``None`` when there is nothing to diff against (``old`` is
    ``None``, or a side is not interned) and whenever the edits name at least
    as many nodes as ``new`` itself: the payloads' cached sizes plus one per
    entry and one per path step.  A root that changed kind is the ``put`` of
    all of ``new`` at the empty path, which that count never prefers.
    """
    if old is None or old._iid is None or new._iid is None:
        return None
    edits: List[dict] = []
    _diff(old, new, (), edits)
    cost = 0
    for edit in edits:
        payload = [edit["put"]] if "put" in edit else edit["add"] + edit["del"]
        cost += 1 + len(edit["at"]) + sum(item._size for item in payload)
    return edits if cost < new._size else None


def _diff(old: ComplexObject, new: ComplexObject, at: Tuple[str, ...], edits: List[dict]) -> None:
    if old is new:
        return
    if isinstance(old, TupleObject) and isinstance(new, TupleObject):
        before = old.as_dict()
        for name, value in new.items():
            _diff(before.pop(name, BOTTOM), value, at + (name,), edits)
        edits.extend({"at": at + (name,), "put": BOTTOM} for name in before)
    elif isinstance(old, SetObject) and isinstance(new, SetObject):
        held = {element._iid for element in old}
        kept = {element._iid for element in new}
        edits.append(
            {
                "at": at,
                "add": [element for element in new if element._iid not in held],
                "del": [element for element in old if element._iid not in kept],
            }
        )
    else:
        edits.append({"at": at, "put": new})


def apply_edits(value: ComplexObject, edits: Sequence[dict]) -> ComplexObject:
    """Apply what :func:`diff_object` answered: the inverse, by identity.

    Raises :class:`StoreError` — and applies nothing — when the edits do not
    describe ``value``: a ``del`` of an absent element, an ``add`` of a
    present one, a path that reaches no set, overlapping paths, or a
    resulting set that is not reduced.
    """
    fold = _EditFold(value)
    fold.commit(fold.stage(edits))
    return fold.rebuild()


class _UnreducedEdits(StoreError):
    """A folded set came out smaller than the edits said: they were not its diff."""

    def __init__(self, path: Tuple[str, ...], since: object):
        super().__init__(
            f"the edits of the set at {'.'.join(path) or '<root>'} do not leave it reduced"
        )
        #: What :meth:`_EditFold.commit` was told with the last edit of that set.
        self.since = since


class _EditFold:
    """One object under a sequence of edits, its edited sets rebuilt once.

    Re-reducing a set per edit costs edits × set size; the fold instead keeps
    the live elements of every edited set in a dict by intern id and builds
    the set — through the public, reducing :class:`SetObject` constructor —
    when :meth:`rebuild` asks.  ``len(rebuilt) == len(live)`` is then the
    proof that the edits described reduced sets.  :meth:`stage` validates a
    whole group of edits against the folded state without changing it;
    :meth:`commit` cannot fail.
    """

    __slots__ = ("value", "live", "rebuilt")

    def __init__(self, value: ComplexObject):
        #: Current except below the paths of :attr:`live`.
        self.value = value
        #: set path → (elements by intern id, ``since`` of the last edit folded in).
        self.live: Dict[Tuple[str, ...], Tuple[Dict[int, ComplexObject], object]] = {}
        #: Sets built by :meth:`rebuild` so far.
        self.rebuilt = 0

    def stage(self, edits: Sequence[dict]):
        """Check ``edits`` against the folded state; the answer is for :meth:`commit`."""
        paths = sorted(edit["at"] for edit in edits)
        for path, following in zip(paths, paths[1:]):
            if following[: len(path)] == path:
                raise StoreError(f"edits overlap at path {'.'.join(following) or '<root>'}")
        for edit in edits:
            if "put" in edit:
                # A put overwrites the sets folded at or below its path.
                self.rebuild(edit["at"])
        value, folds = self.value, []
        for edit in edits:
            at = edit["at"]
            if "put" in edit:
                if not at or edit["put"] is TOP:
                    raise StoreError("a put edit replaces an attribute, by a value other than ⊤")
                value = _assign(value, at, edit["put"])
                continue
            if at in self.live:
                live = self.live[at][0]
            else:
                target = _descend(value, at)
                if not isinstance(target, SetObject) or target._iid is None:
                    raise StoreError(f"path {'.'.join(at) or '<root>'} reaches no set")
                live = {element._iid: element for element in target}
            removed = {element._iid for element in edit["del"]}
            added = {element._iid: element for element in edit["add"]}
            if len(removed) < len(edit["del"]) or not removed <= live.keys():
                raise StoreError("a del edit names an element the set does not hold")
            if len(added) < len(edit["add"]) or not added.keys().isdisjoint(live):
                raise StoreError("an add edit names an element the set already holds")
            if BOTTOM._iid in added or TOP._iid in added or None in added:
                raise StoreError("an add edit names ⊥, ⊤ or an object that is not interned")
            folds.append((at, live, removed, added))
        return value, folds

    def commit(self, staged, since: object = None) -> None:
        """Fold in what :meth:`stage` checked (nothing else staged in between)."""
        self.value, folds = staged
        for at, live, removed, added in folds:
            for iid in removed:
                del live[iid]
            live.update(added)
            self.live[at] = (live, since)

    def rebuild(self, under: Tuple[str, ...] = ()) -> ComplexObject:
        """Build every folded set at or below ``under``; return the object."""
        for path in [path for path in self.live if path[: len(under)] == under]:
            live, since = self.live.pop(path)
            rebuilt = SetObject(live.values())
            if not isinstance(rebuilt, SetObject) or len(rebuilt) != len(live):
                raise _UnreducedEdits(path, since)
            self.value = _assign(self.value, path, rebuilt) if path else rebuilt
            self.rebuilt += 1
        return self.value
