"""repro — A Calculus for Complex Objects (Bancilhon & Khoshafian, PODS 1986).

This package is a complete, from-scratch reproduction of the paper's data
model, lattice theory and object calculus, together with the database
substrates needed to evaluate it:

* :mod:`repro.core` — complex objects, the sub-object order and its lattice
  (Sections 2 and 3 of the paper);
* :mod:`repro.calculus` — well-formed formulae, rules and fixpoint semantics
  (Section 4);
* :mod:`repro.api` — the public query surface: :func:`repro.connect` opens a
  :class:`Session` (in-memory or WAL-backed) with prepared, parameterized,
  streaming queries and version-keyed plan caches — the one way in to the
  optimised stack below;
* :mod:`repro.program` — :class:`Program`, facts and rules over one database
  object, evaluated, linted and explained through the same stack;
* :mod:`repro.plan` — the query pipeline every evaluator compiles through:
  a logical plan IR, attribute-path statistics, a cost-based optimizer
  (join reordering, index pushdown) and the EXPLAIN facility behind
  ``Program.explain()``;
* :mod:`repro.engine` — the closure engine: rule stratification, semi-naive
  delta-driven closure and match indexes behind ``Session.close()`` and
  ``Program.evaluate()``, executing plan IR (:func:`repro.close` is its
  paper-literal oracle);
* :mod:`repro.parser` — the paper's concrete syntax;
* :mod:`repro.relational` — a first-normal-form relational engine and an NF²
  (nested relational) extension used as baselines;
* :mod:`repro.datalog` — a Horn-clause (Datalog) engine used as the recursive
  baseline;
* :mod:`repro.schema` — a typing/schema extension (the paper's future work);
* :mod:`repro.algebra` — an algebra of complex objects and a rule-to-algebra
  translator (the paper's future work);
* :mod:`repro.store` — a persistent object store with path indexes, updates
  and transactions;
* :mod:`repro.workloads` — synthetic data generators used by tests, examples
  and benchmarks.

Quickstart::

    import repro

    with repro.connect() as session:        # repro.connect("db.wal") persists
        session.put("r1", repro.parse_object(
            "{[name: peter, age: 25], [name: john, age: 7]}"))
        people = session.prepare("[r1: {[name: $who, age: A]}]")
        print(people.execute(who="peter").all())   # [r1: {[age: 25, name: peter]}]
        for match in people.execute(who="john"):   # streams lazily
            print(match)
"""

from repro.core import (
    BOTTOM,
    TOP,
    Atom,
    Bottom,
    ComplexObject,
    SetObject,
    Top,
    TupleObject,
    atom,
    clear_object_caches,
    depth,
    intern_stats,
    intersection,
    intersection_all,
    is_interned,
    is_reduced,
    is_subobject,
    obj,
    objects_equal,
    reduce_object,
    set_of,
    subobject,
    tup,
    union,
    union_all,
)
from repro.core.errors import (
    ComplexObjectError,
    ConflictError,
    DivergenceError,
    LockTimeout,
    ParameterError,
    ParseError,
    QueryTimeout,
    SchemaError,
    StoreError,
)
from repro.calculus import (
    ClosureResult,
    Constant,
    Formula,
    Parameter,
    Rule,
    RuleSet,
    SetFormula,
    Substitution,
    TupleFormula,
    Variable,
    apply_rule,
    apply_rules,
    bind_parameters,
    close,
    closure_series,
    formula,
    interpret,
    match,
    param,
    var,
)
from repro.engine import EngineResult, EngineStats, SemiNaiveEngine
from repro.parser import parse_formula, parse_object, parse_program, parse_rule, pretty

# The observability subsystem: tracing, metrics, EXPLAIN ANALYZE support.
# Exposed as a namespace (``repro.obs.enable_tracing()``,
# ``repro.obs.snapshot()``) rather than flattened into the top level.
from repro import obs

# The static analyzer: whole-program diagnostics with stable RLxxx codes
# (``repro.lint.lint_source(...)``, ``repro lint`` on the command line).
# A namespace, like ``repro.obs``.
from repro import lint
from repro.core.errors import LintError, UnboundVariableError

# The session facade is the public query surface; ``interpret`` (imported
# from the calculus above) is Definition 4.2 literally — its oracle.
from repro.api import Cursor, PreparedQuery, ReproError, Session, connect
from repro.program import Program

__version__ = "1.2.0"

__all__ = [
    "Atom",
    "BOTTOM",
    "Bottom",
    "ClosureResult",
    "ComplexObject",
    "ComplexObjectError",
    "ConflictError",
    "Constant",
    "Cursor",
    "DivergenceError",
    "EngineResult",
    "EngineStats",
    "Formula",
    "LintError",
    "LockTimeout",
    "Parameter",
    "ParameterError",
    "ParseError",
    "PreparedQuery",
    "Program",
    "QueryTimeout",
    "ReproError",
    "Rule",
    "RuleSet",
    "SchemaError",
    "SemiNaiveEngine",
    "Session",
    "SetFormula",
    "SetObject",
    "StoreError",
    "Substitution",
    "TOP",
    "Top",
    "TupleFormula",
    "TupleObject",
    "UnboundVariableError",
    "Variable",
    "apply_rule",
    "apply_rules",
    "atom",
    "bind_parameters",
    "clear_object_caches",
    "close",
    "closure_series",
    "connect",
    "depth",
    "formula",
    "intern_stats",
    "interpret",
    "intersection",
    "intersection_all",
    "is_interned",
    "is_reduced",
    "is_subobject",
    "lint",
    "match",
    "obj",
    "objects_equal",
    "obs",
    "param",
    "parse_formula",
    "parse_object",
    "parse_program",
    "parse_rule",
    "pretty",
    "reduce_object",
    "set_of",
    "subobject",
    "tup",
    "union",
    "union_all",
    "var",
    "__version__",
]
