"""Integration tests: the calculus closure against the Datalog baseline.

Example 4.5 (descendants of Abraham) is expressible both as a complex-object
program and as a flat Datalog program; the two engines — and the relational
baseline computing the same transitive closure by iterated joins — must agree
on every generated genealogy.
"""

import pytest

from repro import Program, Session, parse_formula
from repro.datalog import DatalogEngine
from repro.relational.algebra import equijoin, project, rename, union as relation_union
from repro.relational.relation import Relation
from repro.workloads import make_genealogy

DESCENDANTS_SOURCE = """
[doa: {abraham}].
[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].
"""


def relational_descendants(parent_relation: Relation, root: str) -> set:
    """Iterated-join transitive closure over the flat parent relation."""
    known = Relation(("person",), [{"person": root}])
    while True:
        parents = rename(known, {"person": "parent"})
        next_generation = project(
            equijoin(parents, rename(parent_relation, {"parent": "p", "child": "c"}), [("parent", "p")]),
            ["c"],
        )
        next_generation = rename(next_generation, {"c": "person"})
        combined = relation_union(known, next_generation)
        if combined == known:
            return {row["person"] for row in known}
        known = combined


@pytest.mark.parametrize("generations,fanout", [(0, 2), (1, 3), (3, 2), (4, 1), (2, 3)])
class TestThreeEnginesAgree:
    def test_calculus_vs_datalog_vs_relational(self, generations, fanout):
        tree = make_genealogy(generations, fanout)

        program = Program.from_source(DESCENDANTS_SOURCE, database=tree.family_object)
        calculus_answer = {
            element.value
            for element in Session.over_program(program)
            .query(parse_formula("[doa: X]"), on_closure=True)
            .get("doa")
        }

        datalog_answer = {
            values[0] for values in DatalogEngine(tree.datalog_program).query("doa")
        }

        relational_answer = relational_descendants(tree.parent_relation, tree.root)

        expected = set(tree.expected_descendants)
        assert calculus_answer == expected
        assert datalog_answer == expected
        assert relational_answer == expected


class TestSemiNaiveAgreesWithNaive:
    def test_on_generated_genealogies(self):
        tree = make_genealogy(4, 2)
        engine = DatalogEngine(tree.datalog_program)
        assert engine.query("doa", semi_naive=True) == engine.query("doa", semi_naive=False)
