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
* :mod:`repro.store` — a persistent object store with updates and
  transactions;
* :mod:`repro.workloads` — synthetic data generators used by tests, examples
  and benchmarks.

Every export is loaded on first use: ``import repro`` imports no layer,
and the first ``repro.Session`` (or any other export) imports the module
that defines it, with the layers below it and nothing above.
``repro.<subpackage>`` imports that subpackage, so a bare ``import repro``
followed by ``repro.store.ObjectDatabase`` works too.

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

from importlib import import_module as _import_module

__version__ = "1.2.0"

#: Each defining module and the names ``repro`` re-exports from it; the
#: ``"repro"`` entry names the subpackages exported as namespaces.
_EXPORTS = {
    "repro.core": (
        "BOTTOM", "TOP", "Atom", "Bottom", "ComplexObject", "SetObject", "Top",
        "TupleObject", "atom", "clear_object_caches", "depth", "intern_stats",
        "intersection", "intersection_all", "is_interned", "is_reduced",
        "is_subobject", "obj", "objects_equal", "reduce_object", "set_of",
        "subobject", "tup", "union", "union_all",
    ),
    "repro.core.errors": (
        "ComplexObjectError", "ConflictError", "DivergenceError", "LintError",
        "LockTimeout", "ParameterError", "ParseError", "QueryTimeout",
        "SchemaError", "StoreError", "UnboundVariableError",
    ),
    "repro.calculus": (
        "ClosureResult", "Constant", "Formula", "Parameter", "Rule", "RuleSet",
        "SetFormula", "Substitution", "TupleFormula", "Variable", "apply_rule",
        "apply_rules", "bind_parameters", "close", "closure_series", "formula",
        "interpret", "match", "param", "var",
    ),
    "repro.engine": ("EngineResult", "EngineStats", "SemiNaiveEngine"),
    "repro.parser": ("parse_formula", "parse_object", "parse_program", "parse_rule", "pretty"),
    "repro.api": ("Cursor", "PreparedQuery", "ReproError", "Session", "connect"),
    "repro.program": ("Program",),
    # Tracing and metrics (``repro.obs.snapshot()``) and the static analyzer
    # (``repro.lint.lint_source(...)``) are namespaces, not flattened.
    "repro": ("lint", "obs"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """Import what ``name`` needs on first access and keep it as a plain attribute."""
    home = _HOME.get(name, __name__)
    if home != __name__:
        value = getattr(_import_module(home), name)
    else:
        try:
            value = _import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as error:
            if error.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value
    return value


def __dir__():
    import pkgutil

    subpackages = (name for _, name, _ in pkgutil.iter_modules(__path__) if name[0] != "_")
    return sorted({*globals(), *__all__, *subpackages})
