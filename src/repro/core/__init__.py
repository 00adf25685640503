"""Core complex-object data model of Bancilhon & Khoshafian.

This package implements Sections 2 and 3 of the paper:

* :mod:`repro.core.objects` -- the object constructors (atoms, TOP, BOTTOM,
  tuples, sets) and normalization (Definition 2.1 / 2.2 conventions).
* :mod:`repro.core.depth` -- the depth measure used in every proof
  (Definition 3.2).
* :mod:`repro.core.reduction` -- reduced objects (Definition 3.3).
* :mod:`repro.core.order` -- the sub-object partial order (Definition 3.1,
  Theorems 3.1--3.3).
* :mod:`repro.core.lattice` -- union and intersection, i.e. least upper bound
  and greatest lower bound (Definitions 3.4--3.5, Theorems 3.4--3.6).
* :mod:`repro.core.enumeration` -- exhaustive enumeration of the (finite)
  sub-object lattice of a finite object, used by tests and the brute-force
  calculus oracle.
* :mod:`repro.core.intern` -- hash-consing of normalized objects: O(1)
  equality/hashing and the id-keyed memo cache behind the sub-object order.
* :mod:`repro.core.paths` -- attribute paths and navigation into nested
  objects, shared by the planner, the engine and the store.
"""

from repro.core.atoms import AtomValue, is_atom_value
from repro.core.builder import atom, obj, set_of, tup
from repro.core.depth import depth
from repro.core.enumeration import all_subobjects, count_subobjects
from repro.core.equality import objects_equal
from repro.core.errors import (
    ComplexObjectError,
    DivergenceError,
    NormalizationError,
    NotAnObjectError,
)
from repro.core.intern import (
    clear_object_caches,
    fingerprint,
    intern_id,
    intern_stats,
    is_interned,
)
from repro.core.lattice import (
    intersection,
    intersection_all,
    is_lattice_consistent,
    union,
    union_all,
)
from repro.core.objects import (
    BOTTOM,
    TOP,
    Atom,
    Bottom,
    ComplexObject,
    SetObject,
    Top,
    TupleObject,
)
from repro.core.order import (
    compare,
    is_strict_subobject,
    is_subobject,
    maximal_elements,
    minimal_elements,
    subobject,
)
from repro.core.reduction import is_reduced, reduce_object

__all__ = [
    "Atom",
    "AtomValue",
    "BOTTOM",
    "Bottom",
    "ComplexObject",
    "ComplexObjectError",
    "DivergenceError",
    "NormalizationError",
    "NotAnObjectError",
    "SetObject",
    "TOP",
    "Top",
    "TupleObject",
    "all_subobjects",
    "atom",
    "clear_object_caches",
    "compare",
    "count_subobjects",
    "depth",
    "fingerprint",
    "intern_id",
    "intern_stats",
    "is_interned",
    "intersection",
    "intersection_all",
    "is_atom_value",
    "is_lattice_consistent",
    "is_reduced",
    "is_strict_subobject",
    "is_subobject",
    "maximal_elements",
    "minimal_elements",
    "obj",
    "objects_equal",
    "reduce_object",
    "set_of",
    "subobject",
    "tup",
    "union",
    "union_all",
]
