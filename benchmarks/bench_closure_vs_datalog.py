"""B7 — recursive closure: calculus (Example 4.5) vs Datalog naive vs semi-naive.

The descendants query is evaluated four ways on the same generated family
trees: the complex-object closure of the paper's program under the oracle
``fixpoint.close`` and the semi-naive indexed engine (:mod:`repro.engine`),
and the flat Datalog program under naive and semi-naive evaluation.  The sweep varies the number of
generations (recursion depth) and the fan-out (database size).
"""

from functools import lru_cache

import pytest

from repro import Program
from repro.calculus.fixpoint import close
from repro.datalog import DatalogEngine
from repro.workloads import make_genealogy

SWEEP = [(3, 2), (5, 2), (4, 3)]

DESCENDANTS_SOURCE = """
[doa: {abraham}].
[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].
"""


@lru_cache(maxsize=None)
def _tree(generations: int, fanout: int):
    return make_genealogy(generations, fanout)


@pytest.mark.benchmark(group="B7-closure")
@pytest.mark.parametrize("generations,fanout", SWEEP)
def test_calculus_closure(benchmark, generations, fanout):
    tree = _tree(generations, fanout)
    program = Program.from_source(DESCENDANTS_SOURCE, database=tree.family_object)

    def run():
        return close(program.seed(), program.rules).value

    closure = benchmark(run)
    assert len(closure.get("doa")) == len(tree.expected_descendants)


@pytest.mark.benchmark(group="B7-closure")
@pytest.mark.parametrize("generations,fanout", SWEEP)
def test_calculus_closure_seminaive(benchmark, generations, fanout):
    tree = _tree(generations, fanout)
    program = Program.from_source(DESCENDANTS_SOURCE, database=tree.family_object)

    def run():
        return program.evaluate().value

    closure = benchmark(run)
    assert len(closure.get("doa")) == len(tree.expected_descendants)


@pytest.mark.benchmark(group="B7-closure")
@pytest.mark.parametrize("generations,fanout", SWEEP)
def test_datalog_semi_naive(benchmark, generations, fanout):
    tree = _tree(generations, fanout)
    engine = DatalogEngine(tree.datalog_program)
    result = benchmark(lambda: engine.query("doa", semi_naive=True))
    assert len(result) == len(tree.expected_descendants)


@pytest.mark.benchmark(group="B7-closure")
@pytest.mark.parametrize("generations,fanout", SWEEP)
def test_datalog_naive(benchmark, generations, fanout):
    tree = _tree(generations, fanout)
    engine = DatalogEngine(tree.datalog_program)
    result = benchmark(lambda: engine.query("doa", semi_naive=False))
    assert len(result) == len(tree.expected_descendants)
