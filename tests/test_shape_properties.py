"""Property-based soundness of the shape analysis (:mod:`repro.lint.shapes`).

Three properties pin the subsystem's whole contract:

**Conformance** — the inferred database shape over-approximates reality:
every object the program *concretely* derives (the seed, every intermediate
round, the closure) is admitted by the abstract summary ``D̂*`` the fixpoint
computed.  This is the soundness invariant every consumer leans on; if it
held only "usually", pruning would silently drop answers.

**Pruning invariance** — shape-based rule pruning is an optimization, not a
semantics change: for every drawn workload, the engine with ``use_shapes``
on and off produces the oracle's closure, and every query over the closure
answers identically whether or not its plan was pruned.

**Exact fold** — :func:`~repro.lint.shapes.shape_of_object` walks an
object of any depth on an explicit stack; its shape equals the recursive
fold's (kept here as the oracle), ⊤ and ⊥ included.

Workloads are drawn from :mod:`repro.workloads` (genealogies and part
hierarchies) with rule satellites that include shape-dead branches, so the
pruning paths are actually exercised on a meaningful fraction of draws.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro import Program, parse_formula  # noqa: E402
from repro.core.objects import BOTTOM, TOP, Atom, SetObject, TupleObject  # noqa: E402
from repro.calculus.fixpoint import close  # noqa: E402
from repro.engine import SemiNaiveEngine  # noqa: E402
from repro.lint.shapes import (  # noqa: E402
    ABSENT,
    DEPTH_LIMIT,
    TOPANY,
    AtomShape,
    SetShape,
    admits,
    infer_shapes,
    join,
    make_tuple,
    shape_of_object,
)
from repro.plan import (  # noqa: E402
    DatabaseStatistics,
    compile_body,
    interpret_plan,
    optimize_body,
)
from repro.workloads import make_genealogy  # noqa: E402

DESCENDANTS_RULES = """
[doa: {abraham}].
[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].
"""

# Satellites drawn alongside the recursive core.  The "ghost" rules are
# shape-dead on every generated genealogy: no family element ever carries a
# 'haunted' attribute and no doa element is a tuple with a 'spirit' slot, so
# drawing them exercises pruning against a live recursive stratum.
EXTRA_RULES = {
    "names": "[names: {Y}] :- [family: {[name: Y]}].",
    "ghost_scan": "[ghosts: {X}] :- [family: {[haunted: X]}].",
    "ghost_rec": "[ghosts: {X}] :- [doa: {[spirit: X]}, ghosts: {X}].",
}

QUERIES = (
    "[doa: {X}]",
    "[names: {X}]",
    "[ghosts: {X}]",
    "[family: {[name: X, children: {[name: Y]}]}]",
)


@st.composite
def genealogy_programs(draw):
    generations = draw(st.integers(min_value=0, max_value=3))
    fanout = draw(st.integers(min_value=1, max_value=3))
    extras = draw(st.sets(st.sampled_from(sorted(EXTRA_RULES))))
    tree = make_genealogy(generations, fanout)
    source = DESCENDANTS_RULES + "".join(EXTRA_RULES[name] for name in sorted(extras))
    return Program.from_source(source, database=tree.family_object)


@settings(max_examples=30, deadline=None)
@given(genealogy_programs())
def test_every_derived_object_conforms_to_its_summary(program):
    """Open- and closed-world ``D̂*`` both admit the concrete closure."""
    seed = program.seed()
    rules = tuple(program.facts) + tuple(program.rules)
    closure = program.evaluate().value

    # Open-world inference summarises what the program itself can derive —
    # regions an *external* seed would populate are modelled by the ANY
    # fallback at lookup time, not by the database summary.  So the
    # open-world claim is over the facts-only closure.
    open_world = infer_shapes(rules)
    bare_closure = Program(rules).evaluate().value
    assert open_world.grounded
    assert admits(open_world.database, bare_closure)

    closed_world = infer_shapes(tuple(program.rules), seed)
    assert closed_world.closed
    assert admits(closed_world.database, seed)
    assert admits(closed_world.database, closure)

    # Per-rule summaries admit each rule's own concrete contribution.
    for summary in closed_world.summaries:
        rule = closed_world.rules[summary.index]
        contribution = rule.apply(closure)
        if contribution is BOTTOM:
            continue
        assert admits(closed_world.database, contribution)


@settings(max_examples=20, deadline=None)
@given(genealogy_programs())
def test_pruning_never_changes_engine_results(program):
    seed = program.seed()
    pruned = SemiNaiveEngine(program.rules).run(seed)
    plain = SemiNaiveEngine(program.rules, use_shapes=False).run(seed)
    assert pruned.value == plain.value == close(seed, program.rules).value
    assert pruned.converged == plain.converged


@settings(max_examples=20, deadline=None)
@given(genealogy_programs(), st.sampled_from(QUERIES))
def test_pruned_query_plans_answer_identically(program, query):
    closure = program.evaluate().value
    statistics = DatabaseStatistics.collect(closure)
    shapes = infer_shapes(tuple(program.rules), closure)
    formula = parse_formula(query)
    with_shapes = optimize_body(compile_body(formula), statistics, shapes)
    without = optimize_body(compile_body(formula), statistics)
    assert interpret_plan(with_shapes, closure) == interpret_plan(without, closure)


# -- the fold against the recursive one ------------------------------------------------


def _recursive_shape(value):
    """The fold as a recursion over the object, joining its elements' shapes (the oracle)."""
    if value is BOTTOM:
        return ABSENT
    if value is TOP:
        return TOPANY
    if isinstance(value, Atom):
        return AtomShape(frozenset((value,)))
    if isinstance(value, TupleObject):
        return make_tuple((name, _recursive_shape(item)) for name, item in value.items())
    element = ABSENT
    for item in value.elements:
        element = join(element, _recursive_shape(item))
    return SetShape(element, float(len(value.elements)))


_FOLD_ATOMS = st.sampled_from([Atom(1), Atom(2), Atom("x")])
_FOLD_NAMES = st.sampled_from(["a", "b"])
#: Deep enough that a drawn spine passes truncate's cut.
_SPINE = DEPTH_LIMIT + 5


def _small_objects(raw):
    """Shallow objects of mixed kinds; raw ones may hold ⊤ and ⊥ anywhere."""
    tuple_of = TupleObject.raw if raw else TupleObject
    set_of = SetObject.raw if raw else SetObject
    leaves = st.one_of(_FOLD_ATOMS, st.sampled_from([TOP, BOTTOM])) if raw else _FOLD_ATOMS
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.dictionaries(_FOLD_NAMES, children, max_size=2).map(tuple_of),
            st.lists(children, max_size=3).map(set_of),
        ),
        max_leaves=8,
    )


@st.composite
def _deep_objects(draw, raw):
    """A small object under a spine of up to ``DEPTH_LIMIT + 5`` tuples and sets,
    each level with a few shallow siblings of any kind."""
    value = draw(_small_objects(raw))
    for _ in range(draw(st.integers(0, _SPINE))):
        siblings = draw(st.lists(_small_objects(raw), max_size=2))
        if draw(st.booleans()):
            attributes = dict(zip(("c", "d"), siblings), **{draw(_FOLD_NAMES): value})
            value = TupleObject.raw(attributes) if raw else TupleObject(attributes)
        else:
            value = SetObject.raw([value] + siblings) if raw else SetObject([value] + siblings)
    return value


@settings(max_examples=300, deadline=None)
@given(st.one_of(_deep_objects(raw=False), _deep_objects(raw=True)))
def test_the_fold_is_the_recursive_one(value):
    """The fold on a stack gives the recursive fold's shape exactly, for normalized
    objects and for raw ones that hold ⊤ and ⊥ at any level."""
    assert shape_of_object(value) == _recursive_shape(value)
