"""Attribute paths: navigation into nested objects.

A :class:`Path` is a sequence of attribute names, written ``"family.children"``
in text form.  Paths address tuple attributes only; set elements are not
individually addressable (they have no names), but :func:`iter_paths` descends
*through* sets so an index over the path ``"r1.name"`` sees the ``name``
attribute of every element of the set stored at ``r1``.  :func:`navigate`
does not: it follows tuple attributes only, which is how plans and the
closure engine address a set itself, and :func:`new_set_elements` is the
per-round delta of the set found that way.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.objects import BOTTOM, ComplexObject, SetObject, TupleObject

__all__ = ["Path", "get_path", "has_path", "iter_paths", "navigate", "new_set_elements"]


class Path:
    """An immutable attribute path."""

    __slots__ = ("steps",)

    def __init__(self, steps: Union[str, Sequence[str]]):
        if isinstance(steps, str):
            parts = tuple(part for part in steps.split(".") if part)
        else:
            parts = tuple(steps)
        for part in parts:
            if not isinstance(part, str) or not part:
                raise ValueError(f"path steps must be non-empty strings: {part!r}")
        object.__setattr__(self, "steps", parts)

    def __setattr__(self, key, value):
        raise AttributeError("Path is immutable")

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __eq__(self, other) -> bool:
        if isinstance(other, str):
            other = Path(other)
        if not isinstance(other, Path):
            return NotImplemented
        return self.steps == other.steps

    def __hash__(self) -> int:
        return hash(self.steps)

    def __repr__(self) -> str:
        return f"Path({str(self)!r})"

    def __str__(self) -> str:
        return ".".join(self.steps)

    def child(self, step: str) -> "Path":
        """Return the path extended by one attribute."""
        return Path(self.steps + (step,))

    def parent(self) -> "Path":
        """Return the path without its last step (the empty path stays empty)."""
        return Path(self.steps[:-1])

    @property
    def is_root(self) -> bool:
        return not self.steps


def _as_path(path: Union[Path, str, Sequence[str]]) -> Path:
    return path if isinstance(path, Path) else Path(path)


def get_path(value: ComplexObject, path: Union[Path, str]) -> ComplexObject:
    """Follow ``path`` through tuple attributes; ⊥ when any step is missing.

    When a step lands on a set object the step is applied to every element and
    the results are collected into a set — so ``get_path(db, "r1.name")`` is
    the set of names appearing in relation ``r1``.
    """
    current = value
    for step in _as_path(path):
        if isinstance(current, TupleObject):
            current = current.get(step)
        elif isinstance(current, SetObject):
            gathered: List[ComplexObject] = []
            for element in current:
                if isinstance(element, TupleObject):
                    item = element.get(step)
                    if not item.is_bottom:
                        gathered.append(item)
            current = SetObject(gathered)
        else:
            return BOTTOM
    return current


def has_path(value: ComplexObject, path: Union[Path, str]) -> bool:
    """``True`` when following ``path`` reaches something other than ⊥."""
    result = get_path(value, path)
    if isinstance(result, SetObject):
        return len(result) > 0
    return not result.is_bottom


def iter_paths(value: ComplexObject, prefix: Path = None) -> Iterator[Tuple[Path, ComplexObject]]:
    """Yield every ``(path, value)`` pair of tuple attributes, descending through sets.

    The same path may be yielded several times with different values (once per
    set element).
    """
    current_prefix = prefix if prefix is not None else Path(())
    if isinstance(value, TupleObject):
        for name, item in value.items():
            child = current_prefix.child(name)
            yield (child, item)
            yield from iter_paths(item, child)
    elif isinstance(value, SetObject):
        for element in value:
            yield from iter_paths(element, current_prefix)


def navigate(value: ComplexObject, path: Path) -> ComplexObject:
    """Follow tuple attributes only; ⊥ when a step cannot be taken, ⊤ sticky.

    Unlike :func:`get_path` this does *not* descend through sets — plan and
    delta paths address the sets themselves.
    """
    current = value
    for step in path:
        if current.is_top:
            return current
        if isinstance(current, TupleObject):
            current = current.get(step)
        else:
            return BOTTOM
    return current


def new_set_elements(
    previous: ComplexObject, current: ComplexObject, path: Path
) -> Optional[Tuple[ComplexObject, ...]]:
    """Elements of the set at ``path`` in ``current`` that are new since ``previous``.

    Returns ``None`` when no sound delta exists (⊤ reached along the path —
    matching against ⊤ manufactures bindings without witnesses), and the empty
    tuple when the path holds nothing matchable.  A previously absent set
    makes every current element new.  An unchanged set is the same object
    (interning), so it has no new elements; two interned sets are diffed by
    intern id, with no ``__hash__`` call per element; raw sets, whose
    elements are equal without being identical, by equality.
    """
    now = navigate(current, path)
    if now.is_top:
        return None
    if not isinstance(now, SetObject):
        return ()
    before = navigate(previous, path)
    if before is now:
        return ()
    if before.is_top:  # pragma: no cover - previous ≤ current rules this out
        return None
    if not isinstance(before, SetObject):
        return now.elements
    if before._iid is not None and now._iid is not None:
        old = {element._iid for element in before.elements}
        return tuple([element for element in now.elements if element._iid not in old])
    old = set(before.elements)
    return tuple(element for element in now.elements if element not in old)
