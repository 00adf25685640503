"""Public-API snapshot: pin ``repro.__all__`` and ``repro.api.__all__``.

The exported surface is a compatibility contract: adding a name is a
deliberate act (update the snapshot here), and removing or renaming one is a
breaking change this test turns into a tier-1 failure instead of a silent
downstream surprise.
"""

import inspect

import pytest

import repro
import repro.api
import repro.calculus.fixpoint
import repro.calculus.interpretation
import repro.engine


REPRO_ALL = [
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

API_ALL = [
    "ConflictError",
    "Cursor",
    "LintError",
    "LockTimeout",
    "ParameterError",
    "PreparedQuery",
    "QueryTimeout",
    "ReproError",
    "Session",
    "connect",
]


def test_repro_all_is_pinned():
    assert sorted(repro.__all__) == sorted(REPRO_ALL)


def test_api_all_is_pinned():
    assert sorted(repro.api.__all__) == sorted(API_ALL)


def test_every_exported_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name
    for name in repro.api.__all__:
        assert getattr(repro.api, name, None) is not None, name


def test_no_all_duplicates():
    assert len(repro.__all__) == len(set(repro.__all__))
    assert len(repro.api.__all__) == len(set(repro.api.__all__))


def test_session_facade_identities():
    # The facade names exported at the top level are the api module's own.
    assert repro.Session is repro.api.Session
    assert repro.connect is repro.api.connect
    assert repro.ReproError is repro.api.ReproError
    assert repro.ReproError is repro.ComplexObjectError


@pytest.mark.parametrize(
    "function",
    [
        repro.Program.evaluate,
        repro.Session.__init__,
        repro.Session.close,
        repro.connect,
    ],
    ids=lambda function: function.__qualname__,
)
def test_no_entry_point_selects_an_engine(function):
    parameters = inspect.signature(function).parameters
    assert not {"engine", "default_engine"} & set(parameters)


def test_one_engine_and_its_oracles():
    assert "apply" not in inspect.signature(repro.calculus.fixpoint.close).parameters
    assert not {"NaiveEngine", "ENGINES"} & set(repro.engine.__all__)
    assert repro.interpret is repro.calculus.interpretation.interpret
    assert repro.close is repro.calculus.fixpoint.close
    with pytest.raises(TypeError, match="engine"):
        repro.Program([]).evaluate(engine="naive")
