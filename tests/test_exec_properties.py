"""Property-based equivalence of the executor with the calculus oracle.

The executor's reference is ``repro.calculus.matching.match_all``
(Definition 4.2), on random bodies × random targets (⊤ witnesses included —
they exercise the short-circuit layout paths) under both semantics:

* on a **source-ordered** plan ``match_plan`` — and ``iter_match_plan`` on
  the degenerate ``batch_size=1`` schedule — return ``match_all``'s *list*,
  not just its set: cursor streaming, LIMIT semantics and the engine's round
  bookkeeping all observe enumeration order;
* on a **cost-ordered** plan the answer is the same set, and
  ``iter_match_plan`` streams exactly the materialised list for every batch
  size;
* index pushdown (the batch probe cache) changes nothing about the answer —
  nor, with the sessions' build-at-first-probe store, about its order;
* delta restriction (``position=``/``delta_elements=``) enumerates exactly
  the matches that a grown database adds to ``E(O)``;
* below the plan, the one witness matcher
  (:func:`repro.plan.compile.compile_element_matcher`) emits, for any element
  formula and witness, the rows of the oracle's ``_match`` in its order.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro import parse_formula, parse_object  # noqa: E402
from repro.calculus.interpretation import interpret  # noqa: E402
from repro.calculus.matching import _match, match_all  # noqa: E402
from repro.calculus.terms import (  # noqa: E402
    Constant,
    SetFormula,
    TupleFormula,
    Variable,
)
from repro.core.errors import ParameterError  # noqa: E402
from repro.core.lattice import union, union_all  # noqa: E402
from repro.core.objects import BOTTOM, TOP, Atom, SetObject, TupleObject  # noqa: E402
from repro.core.paths import new_set_elements  # noqa: E402
from repro.engine.delta import decompose  # noqa: E402
from repro.plan.indexes import IndexStore, TargetIndexes  # noqa: E402
from repro.plan.stats import EngineStats  # noqa: E402
from repro.plan import (  # noqa: E402
    DatabaseStatistics,
    compile_body,
    match_plan,
    optimize_body,
)
from repro.plan.compile import compile_element_matcher  # noqa: E402
from repro.plan.execute import iter_match_plan, iter_match_rows, match_rows  # noqa: E402

_ATTRIBUTE_NAMES = ("a", "b", "c", "d", "r1", "r2", "name")

#: Body shapes chosen to hit every executor path: flat compiled tuples,
#: repeated variables (the intersection merge), nested set formulae (the
#: compiled nested product), spine variables, multi-element scans, and the
#: vanish alternative (⊥ inside a set formula).
BODY_SHAPES = [
    "[r1: {[a: X, b: Y]}, r2: {[c: Y, d: Z]}]",
    "[r1: {[name: X]}]",
    "[r1: {X}, r2: {X}]",
    "[r1: {[a: X], [b: Y]}]",
    "[r1: {[a: X, b: X]}]",
    "X",
    "[r1: X, r2: {[c: Y]}]",
    "[r1: {[a: {[name: X]}, b: Y]}]",
    "[r1: {bottom, X}]",
    "[r1: {[a: X, b: Y], [a: Y, b: X]}]",
]

BATCH_SIZES = (1, 2, 3, 64)


def _atoms():
    return st.one_of(
        st.integers(min_value=-20, max_value=20).map(Atom),
        st.sampled_from(["john", "mary", "x", "y"]).map(Atom),
        st.just(TOP),
    )


def complex_objects(max_depth: int = 3):
    """Bounded random objects, ⊤ included at every level."""
    if max_depth <= 1:
        return _atoms()
    children = complex_objects(max_depth - 1)
    tuples = st.dictionaries(
        st.sampled_from(_ATTRIBUTE_NAMES), children, max_size=3
    ).map(TupleObject)
    sets = st.lists(children, max_size=3).map(SetObject)
    return st.one_of(_atoms(), tuples, sets)


def _plan(body, database, optimized):
    plan = compile_body(body)
    if optimized:
        plan = optimize_body(plan, DatabaseStatistics.collect(database))
    return plan


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(BODY_SHAPES), complex_objects(max_depth=3), st.booleans())
def test_source_ordered_plan_enumerates_match_all_as_a_list(body_text, database, allow):
    body = parse_formula(body_text)
    plan = _plan(body, database, optimized=False)
    expected = match_all(body, database, allow_bottom=allow)
    # Same list, not just same set: enumeration order is part of the contract.
    assert match_plan(plan, database, allow_bottom=allow) == expected
    one_partial = iter_match_plan(plan, database, allow_bottom=allow, batch_size=1)
    assert list(one_partial) == expected


@st.composite
def _grown_relations(draw):
    """``(previous, current)``, both ``[r1: {...}, r2: {...}]``, previous ≤ current.

    Element shapes are the ones the bodies really match — ``complex_objects``
    almost never satisfies a two-leaf body, which would make the delta
    property vacuous.  No ⊤: a ⊤ on a delta path has no sound delta, and the
    engine falls back to a full match there.
    """
    values = st.integers(min_value=0, max_value=1).map(Atom)
    names = st.lists(
        st.fixed_dictionaries({"name": values}).map(TupleObject), max_size=2
    ).map(SetObject)
    shapes = {
        "r1": st.one_of(
            values,
            st.fixed_dictionaries({"a": st.one_of(values, names), "b": values}).map(TupleObject),
            st.fixed_dictionaries({"name": values}).map(TupleObject),
        ),
        "r2": st.one_of(
            values, st.fixed_dictionaries({"c": values, "d": values}).map(TupleObject)
        ),
    }
    previous, current = {}, {}
    for name, shape in shapes.items():
        elements = draw(st.lists(shape, min_size=1, max_size=5))
        old = draw(st.lists(st.booleans(), min_size=len(elements), max_size=len(elements)))
        current[name] = SetObject(elements)
        previous[name] = SetObject([e for e, keep in zip(elements, old) if keep])
    return TupleObject(previous), TupleObject(current)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(BODY_SHAPES),
    # Relations the bodies really join on, so that index probes answer.
    st.one_of(complex_objects(max_depth=3), _grown_relations().map(lambda pair: pair[1])),
    st.booleans(),
    st.sampled_from(BATCH_SIZES),
)
def test_cost_ordered_plan_streams_what_it_materialises(
    body_text, database, allow, batch_size
):
    body = parse_formula(body_text)
    plan = _plan(body, database, optimized=True)
    materialised = match_plan(plan, database, allow_bottom=allow)
    assert set(materialised) == set(match_all(body, database, allow_bottom=allow))
    streamed = list(
        iter_match_plan(
            plan, database, allow_bottom=allow, batch_size=batch_size
        )
    )
    assert streamed == materialised
    # One walk: whatever the chunk size, a leaf probes each key and matches
    # each witness once per run, exactly as on whole batches.
    indexes = TargetIndexes(database)
    whole = EngineStats()
    _, rows = match_rows(plan, database, indexes=indexes, stats=whole, allow_bottom=allow)
    for size in BATCH_SIZES:
        chunked = EngineStats()
        drained = iter_match_rows(
            plan, database, indexes=indexes, stats=chunked, allow_bottom=allow, batch_size=size
        )
        assert [row for _, row in drained] == rows
        assert _counters(chunked) == _counters(whole)


def _counters(stats):
    return (stats.match_attempts, stats.index_hits, stats.index_misses, stats.substitutions)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=5),
        ),
        min_size=1,
        max_size=8,
    ),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_index_pushdown_changes_nothing_about_the_answer(left, right):
    """The batch probe cache answers exactly what scanning does."""
    body = parse_formula("[r1: {[a: X, b: Y]}, r2: {[c: Y, d: Z]}]")
    database = parse_object(
        "["
        + "r1: {"
        + ", ".join(f"[a: n{a}, b: m{b}]" for a, b in left)
        + "}, r2: {"
        + ", ".join(f"[c: m{c}, d: t{d}]" for c, d in right)
        + "}]"
    )
    indexes = IndexStore(EngineStats())
    indexes.register_body(body)
    indexes.refresh(BOTTOM, database)
    plan = _plan(body, database, optimized=True)
    with_index = match_plan(plan, database, indexes=indexes)
    assert list(iter_match_plan(plan, database, indexes=indexes)) == with_index
    assert set(with_index) == set(match_plan(plan, database))
    assert set(with_index) == set(match_all(body, database))


DELTA_BODIES = [text for text in BODY_SHAPES if decompose(parse_formula(text)).decomposable]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DELTA_BODIES), _grown_relations(), st.booleans())
def test_delta_restriction_enumerates_exactly_the_growth(body_text, relations, optimized):
    """``E(prev) ∪ ⋃ₚ {σ·E | σ uses a new witness at p} = E(cur)`` for prev ≤ cur."""
    body = parse_formula(body_text)
    previous, current = relations
    assert union(previous, current) == current
    plan = _plan(body, current, optimized)
    every_match = set(match_all(body, current))
    pieces = [interpret(body, previous)]
    for position in decompose(body).positions:
        fresh = new_set_elements(previous, current, position.path)
        restricted = match_plan(plan, current, position=position, delta_elements=fresh)
        assert set(restricted) <= every_match
        pieces.extend(substitution.apply(body) for substitution in restricted)
    assert union_all(pieces) == interpret(body, current)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(BODY_SHAPES),
    # Arbitrary objects for the odd shapes, relations the bodies really join on
    # for the probes that answer.
    st.one_of(complex_objects(max_depth=3), _grown_relations().map(lambda pair: pair[1])),
    st.booleans(),
)
def test_probing_a_target_index_keeps_the_source_ordered_list(body_text, database, allow):
    """Buckets list a set's elements in set order, so narrowing keeps ``match_all``'s list."""
    body = parse_formula(body_text)
    plan = _plan(body, database, optimized=False)
    expected = match_all(body, database, allow_bottom=allow)
    indexes = TargetIndexes(database)
    for _ in range(2):  # the probe that builds, then the probes that reuse
        assert match_plan(plan, database, indexes=indexes, allow_bottom=allow) == expected
        streamed = iter_match_plan(
            plan, database, indexes=indexes, allow_bottom=allow, batch_size=1
        )
        assert list(streamed) == expected


#: Element-formula leaves, mostly variables: three names make repeats
#: across levels — the meet on a shared column — common.
_LEAF_FORMULAS = (
    [Variable(name) for name in ("X", "Y", "Z", "X", "Y", "Z")]
    + [Constant(value) for value in (BOTTOM, TOP, Atom(1), Atom("x"))]
)


def element_formulas(max_depth: int = 3):
    """Element formulae up to ``max_depth``: tuples, nested sets, leaves.

    Leaves are mostly variables, else constants (⊤ and ⊥ included); tuples
    and sets may be empty (``[]`` / ``{}``).
    """
    leaves = st.sampled_from(_LEAF_FORMULAS)
    if max_depth <= 1:
        return leaves
    children = element_formulas(max_depth - 1)
    tuples = st.dictionaries(
        st.sampled_from(("a", "b", "name")), children, max_size=3
    ).map(TupleFormula)
    sets = st.lists(children, max_size=3).map(SetFormula)
    return st.one_of(sets, tuples, leaves)


@st.composite
def witnesses_for(draw, element):
    """A witness shaped after ``element``, so that most draws match something.

    One node in ten is ⊤ or an arbitrary object (kind mismatches
    included); set witnesses may be empty or hold up to four elements shaped
    after any of the formula's elements.
    """
    kind = draw(st.sampled_from(("shaped",) * 18 + ("top", "any")))
    if kind == "top":
        return TOP
    if kind == "any":
        return draw(complex_objects(max_depth=2))
    if isinstance(element, Variable):
        # Few distinct values: shared variables meet both equal and unequal.
        return draw(st.sampled_from((Atom(1), Atom(2), SetObject([Atom(1), Atom(2)]))))
    if isinstance(element, Constant):
        return draw(st.sampled_from((element.value, Atom(1))))
    if isinstance(element, TupleFormula):
        return TupleObject(
            {name: draw(witnesses_for(child)) for name, child in element.items()}
        )
    if not len(element):
        return SetObject(draw(st.lists(_atoms(), max_size=2)))
    shapes = st.sampled_from(element.elements).flatmap(witnesses_for)
    size = draw(st.sampled_from((2, 3, 0, 1, 4)))
    return SetObject(draw(st.lists(shapes, min_size=size, max_size=size)))


@settings(max_examples=400, deadline=None)
@given(element_formulas().flatmap(lambda element: st.tuples(st.just(element), witnesses_for(element))))
def test_compiled_matcher_emits_the_oracle_rows_in_order(case):
    """Rows aligned to the layout are ``_match``'s bindings, as a list.

    The uncached compiler is called: the cache keys on formula equality,
    which ignores set-element order, so a reordered spelling would reuse
    another's enumeration order.
    """
    element, witness = case
    layout, match = compile_element_matcher.__wrapped__(element)
    assert len(set(layout)) == len(layout)
    assert set(layout) == element.variables()
    rows = []
    match(witness, rows)
    expected = [substitution.as_dict() for substitution in _match(element, witness)]
    assert [dict(zip(layout, row)) for row in rows] == expected


def test_an_unbound_parameter_does_not_compile():
    with pytest.raises(ParameterError, match=r"\$p"):
        compile_element_matcher(parse_formula("[a: $p]"))
