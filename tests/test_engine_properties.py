"""Property-based equivalence of the semi-naive engine and close().

The engine's contract is behavioural identity with the oracle fixpoint of
Theorem 4.1: same closure value, same convergence report, and the same
``DivergenceError`` on programs without a finite closure.  Hypothesis draws
genealogy and part-hierarchy workloads from :mod:`repro.workloads` together
with program shapes over them and checks the contract on every draw.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro import Program, parse_program, parse_object  # noqa: E402
from repro.core.errors import DivergenceError  # noqa: E402
from repro.calculus.rules import Rule, RuleSet  # noqa: E402
from repro.calculus.terms import Constant, formula, var  # noqa: E402
from repro.calculus.fixpoint import close  # noqa: E402
from repro.workloads import make_genealogy, make_part_hierarchy  # noqa: E402

DESCENDANTS_RULES = """
[doa: {abraham}].
[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].
"""

# Optional satellite rules drawn alongside the recursive core: a projection
# (non-recursive stratum), a grandparent join, and a non-decomposable copy
# rule that forces the full-matching fallback.
EXTRA_RULES = {
    "names": "[names: {Y}] :- [family: {[name: Y]}].",
    "grand": (
        "[grand: {[gp: G, gc: C]}] :-"
        " [family: {[name: G, children: {[name: P]}],"
        " [name: P, children: {[name: C]}]}]."
    ),
    "mirror": "[mirror: X] :- [doa: X].",
}


@st.composite
def genealogy_programs(draw):
    generations = draw(st.integers(min_value=0, max_value=4))
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
    # Transitive unnesting: collect every sub-assembly into the flat set.
    rules = [
        Rule(formula({"all": [Constant(assembly.nested_object)]})),
        Rule(
            formula({"all": [var("X")]}),
            formula({"all": [formula({"components": [var("X")]})]}),
        ),
    ]
    return Program(rules)


def assert_engine_matches_oracle(program):
    oracle = close(program.seed(), program.rules)
    semi = program.evaluate()
    assert semi.value == oracle.value
    assert semi.converged and oracle.converged


@settings(max_examples=25, deadline=None)
@given(genealogy_programs())
def test_seminaive_matches_close_on_genealogies(program):
    assert_engine_matches_oracle(program)


@settings(max_examples=15, deadline=None)
@given(hierarchy_programs())
def test_seminaive_matches_close_on_hierarchies(program):
    assert_engine_matches_oracle(program)


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=6),
)
def test_divergence_reported_identically(fanout, budget):
    """Programs with no finite closure raise DivergenceError from the oracle and the engine alike."""
    program = parse_program(
        "[list: {1}]. [list: {[head: 1, tail: X]}] :- [list: {X}]."
    )
    rules = RuleSet([r for r in program if not r.is_fact])
    database = parse_object("[list: {1}]")
    with pytest.raises(DivergenceError):
        close(database, rules, max_iterations=budget * fanout)
    from repro.engine import SemiNaiveEngine

    with pytest.raises(DivergenceError):
        SemiNaiveEngine(rules, max_iterations=budget * fanout).run(database)


# -- resuming from a cached closure ---------------------------------------------------

# On top of EXTRA_RULES (a second stratum, a two-witness join, a
# non-decomposable spine variable): a merge that reaches ⊤ as soon as two
# people descend from abraham.
MERGING_RULE = "[heir: X] :- [doa: {X}]."


@st.composite
def grown_databases(draw):
    """``(rules, O, O')`` with ``O ≤ O'``: a pruned genealogy and the whole one,
    or a genealogy and the same one after one-leaf writes."""
    from repro.core.lattice import union
    from repro.core.objects import Atom, SetObject, TupleObject

    tree = make_genealogy(
        draw(st.integers(min_value=0, max_value=3)), draw(st.integers(1, 3))
    )
    family = tree.family_object["family"]
    if draw(st.booleans()):
        kept = []
        for person in family.elements:
            fate = draw(st.sampled_from(["keep", "drop", "childless"]))
            if fate == "keep":
                kept.append(person)
            elif fate == "childless":
                kept.append(person.replace(children=SetObject()))
        small = TupleObject({"family": SetObject(kept)})
        large = union(small, tree.family_object)
    else:
        # The write closure_after_write makes: a parent's tuple replaced by
        # one that dominates it (one more child), plus the child's own tuple.
        small, written = tree.family_object, family
        for number in range(draw(st.integers(min_value=1, max_value=3))):
            parent = draw(st.sampled_from(written.elements))
            child = TupleObject({"name": Atom(f"n{number}")})
            grown = parent.replace(children=parent.get("children").add(child))
            leaf = child.replace(children=SetObject())
            written = written.discard(parent).add(grown).add(leaf)
        large = TupleObject({"family": written})
    extras = draw(st.sets(st.sampled_from(sorted(EXTRA_RULES))))
    source = DESCENDANTS_RULES + "".join(EXTRA_RULES[name] for name in sorted(extras))
    if draw(st.booleans()):
        source += MERGING_RULE
    program = Program.from_source(source, database=small)
    grown = program.with_database(large)
    return program.rules, program.seed(), grown.seed()


@settings(max_examples=60, deadline=None)
@given(grown_databases(), st.booleans())
def test_resuming_from_a_smaller_closure_equals_running_from_scratch(drawn, use_indexes):
    from repro.engine import SemiNaiveEngine

    rules, small, grown = drawn
    engine = SemiNaiveEngine(rules, use_indexes=use_indexes)
    base = engine.run(small)
    assert base.value == close(small, rules).value
    resumed = engine.run(grown, previous=base.value)
    assert resumed.value == close(grown, rules).value
    # Only the engine's own last closure is a base: anything else recomputes.
    assert engine.run(grown, previous=small).value == resumed.value
