"""repro.lint.shapes — whole-program abstract shape inference.

The paper's sub-object lattice is itself the abstract domain: every
derivable head object is a sub-object of some finite *shape* summary, so a
bounded abstract interpretation of the program (atoms-with-known-values,
tuple-of, set-of, with depth-k widening) yields, per rule head and per
``$parameter`` slot, a shape that over-approximates everything evaluation
can ever produce there.

Three consumers make the analysis load-bearing rather than advisory:

* **lint** — the RL2xx diagnostics (:mod:`repro.lint.shapes.checks`):
  body literals no derivable object matches, provably-empty regions
  (strictly stronger than RL005), contradictory variable requirements, and
  shape-impossible parameter bindings;
* **plan** — shape-derived cardinality/emptiness bounds when database
  statistics are absent, and compile-time pruning of provably-empty body
  plans (:mod:`repro.plan.optimize` / :mod:`repro.plan.statistics`);
* **engine / EXPLAIN** — statically-empty rules are skipped per stratum and
  the inferred shape is rendered next to each plan leaf.

Soundness contract (pinned by ``tests/test_shape_properties.py``): every
concretely derived object conforms to its inferred shape
(:func:`~repro.lint.shapes.domain.admits`), and pruning never changes query
results.
"""

from repro.lint.shapes.checks import check_params, check_query_shape, check_shapes
from repro.lint.shapes.domain import (
    ABSENT,
    ANY,
    ATOM_LIMIT,
    DEPTH_LIMIT,
    TOPANY,
    AtomShape,
    SetShape,
    Shape,
    TupleShape,
    admits,
    join,
    make_tuple,
    meet,
    merge,
    shape_of_object,
    truncate,
    widen,
)
from repro.lint.shapes.infer import (
    BodyAbstract,
    MatchFailure,
    ProgramShapes,
    RuleShape,
    infer_shapes,
)

__all__ = [
    "ABSENT",
    "ANY",
    "ATOM_LIMIT",
    "DEPTH_LIMIT",
    "TOPANY",
    "AtomShape",
    "BodyAbstract",
    "MatchFailure",
    "ProgramShapes",
    "RuleShape",
    "SetShape",
    "Shape",
    "TupleShape",
    "admits",
    "check_params",
    "check_query_shape",
    "check_shapes",
    "infer_shapes",
    "join",
    "make_tuple",
    "meet",
    "merge",
    "shape_of_object",
    "truncate",
    "widen",
]
