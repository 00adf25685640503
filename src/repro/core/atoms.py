"""Atomic values of the complex-object model.

Definition 2.1(i) of the paper admits exactly four kinds of atomic objects:
integers, floats, strings, and booleans.  This module centralises the notion
of an *atomic value* (the raw Python payload carried by an
:class:`repro.core.objects.Atom`) so that every other module agrees on which
Python values are acceptable and on how two atomic values compare.

Two details deserve attention:

* ``bool`` is a subclass of ``int`` in Python and ``1 == 1.0`` is true, but the
  paper treats atoms of different sorts as distinct objects ("two atomic
  objects are equal if and only if they are the same").  We therefore tag each
  value with its sort so that ``Atom(1)``, ``Atom(1.0)`` and ``Atom(True)`` are
  three different complex objects.
* Atomic values must be totally ordered *within a sort* so that set objects can
  be stored canonically.  Between sorts we order by the sort tag.
"""

from __future__ import annotations

from typing import Tuple, Union

AtomValue = Union[bool, int, float, str]
"""Type alias for the Python payloads allowed inside an atom."""

#: Sort tags, in the (arbitrary but fixed) canonical order used by sort keys.
BOOL_SORT = "bool"
INT_SORT = "int"
FLOAT_SORT = "float"
STRING_SORT = "string"

_SORT_ORDER = {BOOL_SORT: 0, INT_SORT: 1, FLOAT_SORT: 2, STRING_SORT: 3}


def is_atom_value(value: object) -> bool:
    """Return ``True`` when ``value`` may be the payload of an atomic object."""
    return isinstance(value, (bool, int, float, str))


#: The sort of each exact atom type: a subclass is sorted by :func:`atom_sort`.
SORT_OF_TYPE = {bool: BOOL_SORT, int: INT_SORT, float: FLOAT_SORT, str: STRING_SORT}


def atom_sort(value: AtomValue) -> str:
    """Return the sort tag (``"bool"``, ``"int"``, ``"float"`` or ``"string"``).

    ``bool`` must be tested before ``int`` because it is a subclass of ``int``.
    """
    if isinstance(value, bool):
        return BOOL_SORT
    if isinstance(value, int):
        return INT_SORT
    if isinstance(value, float):
        return FLOAT_SORT
    if isinstance(value, str):
        return STRING_SORT
    raise TypeError(f"not an atomic value: {value!r}")


def atom_key(value: AtomValue) -> Tuple[int, object]:
    """Return a totally ordered key for an atomic value.

    The key orders first by sort, then by the value itself; values of the same
    sort are always mutually comparable, so the key is usable for sorting
    heterogeneous collections of atoms.
    """
    sort = atom_sort(value)
    if sort == BOOL_SORT:
        return (_SORT_ORDER[sort], int(value))
    return (_SORT_ORDER[sort], value)


def atoms_identical(left: AtomValue, right: AtomValue) -> bool:
    """Paper equality for atomic values: same sort and same value.

    This deliberately distinguishes ``1`` from ``1.0`` and from ``True`` even
    though plain Python ``==`` would conflate them.
    """
    return atom_sort(left) == atom_sort(right) and left == right
