"""Property-based soundness of the shape analysis (:mod:`repro.lint.shapes`).

Two properties pin the subsystem's whole contract:

**Conformance** — the inferred database shape over-approximates reality:
every object the program *concretely* derives (the seed, every intermediate
round, the closure) is admitted by the abstract summary ``D̂*`` the fixpoint
computed.  This is the soundness invariant every consumer leans on; if it
held only "usually", pruning would silently drop answers.

**Pruning invariance** — shape-based rule pruning is an optimization, not a
semantics change: for every drawn workload, the engine with ``use_shapes``
on and off produces the oracle's closure, and every query over the closure
answers identically whether or not its plan was pruned.

Workloads are drawn from :mod:`repro.workloads` (genealogies and part
hierarchies) with rule satellites that include shape-dead branches, so the
pruning paths are actually exercised on a meaningful fraction of draws.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro import Program, parse_formula  # noqa: E402
from repro.core.objects import BOTTOM  # noqa: E402
from repro.calculus.fixpoint import close  # noqa: E402
from repro.engine import SemiNaiveEngine  # noqa: E402
from repro.lint.shapes import admits, infer_shapes  # noqa: E402
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
