"""B11 — the closure engine against its oracle, ``fixpoint.close``.

Three workload shapes stress the three pillars of :mod:`repro.engine`:

* **recursive depth** (the Example 4.5 descendants sweep): the semi-naive
  delta discipline should cut the per-round matching from the whole family
  relation to the previous round's new descendants, and the dynamic
  ``name``-path index should turn the parent lookup into a hash probe;
* **non-recursive breadth** (a pipeline of projections): the dependency
  scheduler should evaluate each stratum exactly once instead of iterating
  the whole rule set to a joint fixpoint;
* **transitive unnesting** (a part hierarchy folded flat): recursion through
  nested sub-objects rather than a flat relation.

Every benchmark asserts the two arms agree before timing is trusted.
"""

from functools import lru_cache

import pytest

from repro import Program
from repro.calculus.fixpoint import close
from repro.calculus.rules import Rule
from repro.calculus.terms import Constant, formula, var
from repro.workloads import make_genealogy, make_part_hierarchy

GENEALOGY_SWEEP = [(3, 2), (5, 2), (4, 3)]
#: The baseline arm is the paper-literal series; the other is the engine.
ARMS = {
    "oracle": lambda program: close(program.seed(), program.rules).value,
    "seminaive": lambda program: program.evaluate().value,
}

DESCENDANTS_SOURCE = """
[doa: {abraham}].
[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].
"""

PIPELINE_SOURCE = """
[adults: {N}] :- [family: {[name: N, children: {[name: C]}]}].
[minors: {C}] :- [family: {[name: N, children: {[name: C]}]}].
[people: {X}] :- [adults: {X}].
[people: {X}] :- [minors: {X}].
[census: {[person: X]}] :- [people: {X}].
"""


@lru_cache(maxsize=None)
def _tree(generations: int, fanout: int):
    return make_genealogy(generations, fanout)


@lru_cache(maxsize=None)
def _descendants_program(generations: int, fanout: int) -> Program:
    return Program.from_source(
        DESCENDANTS_SOURCE, database=_tree(generations, fanout).family_object
    )


@lru_cache(maxsize=None)
def _unnesting_program(levels: int, children: int) -> Program:
    assembly = make_part_hierarchy(levels, children, rng=0)
    return Program(
        [
            Rule(formula({"all": [Constant(assembly.nested_object)]})),
            Rule(
                formula({"all": [var("X")]}),
                formula({"all": [formula({"components": [var("X")]})]}),
            ),
        ]
    )


@pytest.mark.benchmark(group="B11-engine-recursive")
@pytest.mark.parametrize("generations,fanout", GENEALOGY_SWEEP)
@pytest.mark.parametrize("arm", sorted(ARMS))
def test_descendants_by_engine(benchmark, arm, generations, fanout):
    tree = _tree(generations, fanout)
    program = _descendants_program(generations, fanout)
    closure = benchmark(lambda: ARMS[arm](program))
    assert len(closure.get("doa")) == len(tree.expected_descendants)


@pytest.mark.benchmark(group="B11-engine-strata")
@pytest.mark.parametrize("arm", sorted(ARMS))
def test_projection_pipeline_by_engine(benchmark, arm):
    tree = _tree(4, 3)
    program = Program.from_source(PIPELINE_SOURCE, database=tree.family_object)
    closure = benchmark(lambda: ARMS[arm](program))
    assert len(closure.get("people")) == len(tree.people)


@pytest.mark.benchmark(group="B11-engine-unnesting")
@pytest.mark.parametrize("levels,children", [(4, 2), (3, 3)])
@pytest.mark.parametrize("arm", sorted(ARMS))
def test_transitive_unnesting_by_engine(benchmark, arm, levels, children):
    program = _unnesting_program(levels, children)
    closure = benchmark(lambda: ARMS[arm](program))
    assert len(closure.get("all")) > 1


@pytest.mark.benchmark(group="B11-engine-recursive")
@pytest.mark.parametrize("generations,fanout", [(5, 2), (4, 3)])
def test_engine_agrees_with_the_oracle_on_the_headline_sweeps(
    benchmark, generations, fanout
):
    """Equality check, benchmarked as the cost of running both arms."""
    program = _descendants_program(generations, fanout)

    def run_both():
        semi = ARMS["seminaive"](program)
        assert ARMS["oracle"](program) == semi
        return semi

    benchmark(run_both)
