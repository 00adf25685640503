"""Property-based equivalence of the plan pipeline with the calculus oracles.

The plan pipeline's contract is behavioural identity along every entry point:

* the plan-compiled semi-naive engine ≡ the oracle fixpoint ``close()``, on
  randomized programs over genealogy and part-hierarchy workloads
  (extending ``test_engine_properties.py``);
* plan-compiled matching ≡ ``match_all`` on randomized formula/database
  pairs, under both semantics and regardless of leaf order;
* a session's pushed-down store query and the store's ``find`` ≡
  interpreting/scanning the full snapshot;
* a compiled head projection ≡ the join of the per-row instantiations.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro import (  # noqa: E402
    Program,
    Session,
    is_subobject,
    parse_formula,
    parse_object,
    union,
)
from repro.calculus.interpretation import interpret  # noqa: E402
from repro.calculus.matching import match_all  # noqa: E402
from repro.calculus.fixpoint import close  # noqa: E402
from repro.calculus.rules import Rule  # noqa: E402
from repro.calculus.substitution import Substitution, instantiate  # noqa: E402
from repro.calculus.terms import (  # noqa: E402
    Constant,
    Parameter,
    SetFormula,
    TupleFormula,
    bind_parameters,
    formula,
    var,
)
from repro.core.lattice import union_all  # noqa: E402
from repro.engine import SemiNaiveEngine  # noqa: E402
from repro.plan import (  # noqa: E402
    DatabaseStatistics,
    compile_body,
    match_plan,
    optimize_body,
)
from repro.core.objects import BOTTOM, TOP, Atom, SetObject, TupleObject  # noqa: E402
from repro.plan.compile import compile_projection  # noqa: E402
from repro.plan.execute import match_rows  # noqa: E402
from repro.store.database import ObjectDatabase  # noqa: E402
from repro.workloads import make_genealogy, make_part_hierarchy  # noqa: E402

_ATTRIBUTE_NAMES = ("a", "b", "c", "d", "r1", "r2", "name")


def _atoms():
    return st.one_of(
        st.integers(min_value=-20, max_value=20).map(Atom),
        st.sampled_from(["john", "mary", "x", "y"]).map(Atom),
    )


def complex_objects(max_depth: int = 3):
    """Reduced complex objects of bounded depth (mirrors tests/conftest.py)."""
    if max_depth <= 1:
        return _atoms()
    children = complex_objects(max_depth - 1)
    tuples = st.dictionaries(
        st.sampled_from(_ATTRIBUTE_NAMES), children, max_size=3
    ).map(TupleObject)
    sets = st.lists(children, max_size=3).map(SetObject)
    return st.one_of(_atoms(), tuples, sets)

DESCENDANTS_RULES = """
[doa: {abraham}].
[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].
"""

# Satellite rules drawn alongside the recursive core: a projection, a
# two-pattern join, and a non-decomposable accumulator that forces the
# full-matching fallback inside a recursive stratum.
EXTRA_RULES = {
    "names": "[names: {Y}] :- [family: {[name: Y]}].",
    "grand": (
        "[grand: {[gp: G, gc: C]}] :-"
        " [family: {[name: G, children: {[name: P]}],"
        " [name: P, children: {[name: C]}]}]."
    ),
    "seen": "[seen: {X}] :- [family: {[name: X]}, doa: S].",
}

BODY_SHAPES = [
    "[r1: {[a: X, b: Y]}, r2: {[c: Y, d: Z]}]",
    "[r1: {[name: X]}]",
    "[r1: {X}, r2: {X}]",
    "[r1: {[a: X], [b: Y]}]",
    "[r1: {[a: X, b: X]}]",
    "X",
    "[r1: X, r2: {[c: Y]}]",
]


@st.composite
def genealogy_programs(draw):
    generations = draw(st.integers(min_value=0, max_value=3))
    fanout = draw(st.integers(min_value=1, max_value=3))
    extras = draw(st.sets(st.sampled_from(sorted(EXTRA_RULES))))
    tree = make_genealogy(generations, fanout)
    source = DESCENDANTS_RULES + "".join(EXTRA_RULES[name] for name in sorted(extras))
    return Program.from_source(source, database=tree.family_object)


@st.composite
def hierarchy_programs(draw):
    levels = draw(st.integers(min_value=0, max_value=3))
    children = draw(st.integers(min_value=1, max_value=2))
    assembly = make_part_hierarchy(levels, children, rng=draw(st.integers(0, 99)))
    rules = [
        Rule(formula({"all": [Constant(assembly.nested_object)]})),
        Rule(
            formula({"all": [var("X")]}),
            formula({"all": [formula({"components": [var("X")]})]}),
        ),
    ]
    return Program(rules)


def assert_all_routes_agree(program):
    """The oracle close() ≡ the plan-compiled semi-naive engine."""
    baseline = close(program.seed(), program.rules)
    semi = program.evaluate()
    assert semi.value == baseline.value
    assert semi.converged and baseline.converged


@settings(max_examples=20, deadline=None)
@given(genealogy_programs())
def test_plan_compiled_evaluation_matches_close_on_genealogies(program):
    assert_all_routes_agree(program)


@settings(max_examples=12, deadline=None)
@given(hierarchy_programs())
def test_plan_compiled_evaluation_matches_close_on_hierarchies(program):
    assert_all_routes_agree(program)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(BODY_SHAPES),
    complex_objects(max_depth=3),
    st.booleans(),
)
def test_match_plan_equals_match_all_on_random_objects(body_text, database, allow):
    body = parse_formula(body_text)
    plan = optimize_body(compile_body(body), DatabaseStatistics.collect(database))
    expected = set(match_all(body, database, allow_bottom=allow))
    assert set(match_plan(plan, database, allow_bottom=allow)) == expected
    # The rows behind them bind every body variable, sorted (what a compiled
    # head projection is indexed by).
    names, rows = match_rows(plan, database, allow_bottom=allow)
    assert not rows or names == tuple(sorted(body.variables()))


# A bare-variable body reads the ``out`` its own head writes: a recursive
# stratum, not the single full round this property is about.
@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([shape for shape in BODY_SHAPES if shape != "X"]),
    complex_objects(max_depth=3),
)
def test_one_full_engine_round_matches_rule_apply(body_text, database):
    body = parse_formula(body_text)
    head = formula({"out": [var(sorted(body.variables())[0])]})
    rule = Rule(head, body)
    result = SemiNaiveEngine([rule]).run(database)
    assert result.stats.recursive_strata == 0
    assert result.value == union(database, rule.apply(database))


#: A stored value: a tagged record, or ⊤, which collapses the whole database.
_STORED_VALUES = st.one_of(
    st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=50)).map(
        lambda pair: parse_object(f"[tag: {{t{pair[0]}}}, num: {pair[1]}]")
    ),
    st.just(TOP),
)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(["alpha", "beta", "gamma", "delta"]), _STORED_VALUES, max_size=4
    ),
    st.sampled_from(
        [
            "[alpha: [tag: {t0}]]",
            "[alpha: [tag: {T}], beta: [num: N]]",
            "[gamma: [num: 3]]",
            "[delta: [tag: {t9}]]",
            # ``epsilon`` is never stored.
            "[epsilon: [tag: {T}]]",
            "[alpha: [tag: {T}], epsilon: E]",
            "X",
        ]
    ),
    st.booleans(),
)
def test_store_query_equals_interpretation_of_the_database_object(
    stored, query_text, allow_bottom
):
    database = ObjectDatabase()
    for name, value in stored.items():
        database.put(name, value)
    query = parse_formula(query_text)
    answer = Session(database=database).query(query, allow_bottom=allow_bottom)
    assert answer == interpret(query, database.as_object(), allow_bottom=allow_bottom)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1,
        max_size=10,
    ),
    st.integers(min_value=0, max_value=4),
)
def test_store_find_equals_full_scan(rows, probe):
    database = ObjectDatabase()
    for position, (num, tag) in enumerate(rows):
        database.put(
            f"obj{position}", parse_object(f"[tag: {{t{tag}}}, num: {num}]")
        )
    pattern = parse_object(f"[tag: {{t{probe}}}]")
    expected = sorted(
        name for name in database.names() if is_subobject(pattern, database[name])
    )
    assert database.find(pattern) == expected


# -- compiled head projections --------------------------------------------------------

_ROW_NAMES = ("X", "Y", "Z")


def raw_objects():
    """Un-interned objects: sets left unreduced, tuples keeping their ⊥ attributes."""
    children = st.one_of(complex_objects(2), st.just(BOTTOM))
    return st.one_of(
        st.lists(children, max_size=3).map(SetObject.raw),
        st.dictionaries(st.sampled_from(("a", "b")), children, max_size=2).map(TupleObject.raw),
    )


def row_values():
    """What a row may bind: reduced objects, ⊥, ⊤ and raw objects."""
    return st.one_of(st.just(TOP), st.just(BOTTOM), complex_objects(3), raw_objects())


def head_formulas():
    """Constants (⊤, ⊥ and raw ones too), bound and unbound variables, nested
    tuple and set formulas."""
    leaves = st.one_of(
        st.sampled_from(_ROW_NAMES + ("W",)).map(var),
        st.one_of(complex_objects(2), st.sampled_from((BOTTOM, TOP)), raw_objects()).map(Constant),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.dictionaries(st.sampled_from("abc"), children, max_size=3).map(TupleFormula),
            st.lists(children, max_size=3).map(SetFormula),
        ),
        max_leaves=6,
    )


@st.composite
def row_batches(draw):
    """Rows over ``_ROW_NAMES`` drawn with repeats, the empty batch included."""
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        return []
    distinct = draw(st.lists(st.tuples(*(row_values(),) * len(_ROW_NAMES)), min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=6))


# A set whose elements differ at one atom attribute is built without a
# reduction; these heads put ⊥, ⊤, non-atoms, shared atoms, slots and nothing
# (an unbound variable) in that column, so a reduction skipped wrongly shows.
_COLUMN_VALUES = (
    Atom(1), Atom(2), BOTTOM, TOP, TupleObject({"x": Atom(1)}),
    TupleObject({"x": Atom(1), "y": Atom(2)}), SetObject([Atom(1)]),
)


def _column_leaves():
    return st.one_of(
        st.sampled_from(_ROW_NAMES + ("W",)).map(var),
        st.sampled_from(("p", "q")).map(Parameter),
        st.sampled_from(_COLUMN_VALUES[:3] + _COLUMN_VALUES[4:5]).map(Constant),
    )


@st.composite
def discriminated_heads(draw):
    """``{[a: ·, b: ·], ...}`` (mostly) or ``{·, ...}``, bare or under ``[r: ...]``."""
    if draw(st.integers(min_value=0, max_value=3)):
        elements = draw(st.lists(
            st.fixed_dictionaries(
                {"a": _column_leaves(), "b": _column_leaves()}, optional={"c": _column_leaves()}
            ).map(TupleFormula),
            min_size=1, max_size=3,
        ))
    else:
        elements = draw(st.lists(_column_leaves(), min_size=1, max_size=3))
    head = SetFormula(elements)
    return TupleFormula({"r": head}) if draw(st.booleans()) else head


@st.composite
def discriminated_cases(draw):
    """A discriminated head, rows over :data:`_COLUMN_VALUES` and its slots' values."""
    rows = draw(st.lists(
        st.tuples(*(st.sampled_from(_COLUMN_VALUES),) * len(_ROW_NAMES)), min_size=2, max_size=5
    ))
    params = {name: draw(st.sampled_from(_COLUMN_VALUES)) for name in ("p", "q")}
    return draw(discriminated_heads()), rows, params


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.tuples(head_formulas(), row_batches(), st.just({})), discriminated_cases()))
def test_compiled_projection_is_the_join_of_the_instantiations(case):
    """The join of the per-row instantiations of the head, ``$slots`` read from ``params``."""
    head, rows, params = case
    project = compile_projection(head, _ROW_NAMES)
    bound = bind_parameters(head, params)
    expected = union_all(
        instantiate(bound, Substitution(dict(zip(_ROW_NAMES, row)))) for row in rows
    )
    answer = project(rows, params)
    if expected._iid is None:
        # A raw answer is never canonical: the fold builds a fresh one per call.
        assert answer._iid is None and answer == expected
    else:
        assert answer is expected
