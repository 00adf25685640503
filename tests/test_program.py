"""Unit tests for the Program facade (repro.program)."""

import pytest

from repro import Program, Session, parse_formula, parse_object, parse_rule
from repro.core.builder import obj
from repro.core.errors import DivergenceError
from repro.core.objects import BOTTOM


class TestConstruction:
    def test_facts_and_rules_separated(self):
        program = Program(
            [parse_rule("[doa: {abraham}]."), parse_rule("[doa: {X}] :- [doa: {X}]")]
        )
        assert len(program.facts) == 1
        assert len(program.rules) == 1

    def test_default_database_is_bottom(self):
        assert Program([]).database is BOTTOM

    def test_from_source(self, genealogy_small):
        program = Program.from_source(
            "[doa: {abraham}].\n"
            "[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].",
            database=genealogy_small.family_object,
        )
        assert len(program.facts) == 1
        assert len(program.rules) == 1

    def test_with_database_and_with_rules(self):
        base = Program([parse_rule("[out: {X}] :- [r1: {X}]")])
        with_db = base.with_database(parse_object("[r1: {1}]"))
        assert with_db.database == parse_object("[r1: {1}]")
        extended = with_db.with_rules([parse_rule("[out2: {X}] :- [out: {X}]")])
        assert len(extended.rules) == 2


class TestEvaluation:
    def test_seed_joins_facts_and_database(self):
        program = Program(
            [parse_rule("[doa: {abraham}].")], database=parse_object("[family: {}]")
        )
        assert program.seed() == parse_object("[doa: {abraham}, family: {}]")

    def test_evaluate_computes_closure(self, genealogy_small):
        program = Program.from_source(
            "[doa: {abraham}].\n"
            "[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].",
            database=genealogy_small.family_object,
        )
        result = program.evaluate()
        names = {element.value for element in result.value.get("doa")}
        assert names == set(genealogy_small.expected_descendants)

    def test_query_interprets_against_closure(self, genealogy_small):
        program = Program.from_source(
            "[doa: {abraham}].\n"
            "[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].",
            database=genealogy_small.family_object,
        )
        session = Session.over_program(program)
        result = session.query(parse_formula("[doa: X]"), on_closure=True)
        assert len(result.get("doa")) == len(genealogy_small.expected_descendants)

    def test_query_accepts_python_literals(self):
        from repro import var

        program = Program(
            [parse_rule("[out: {X}] :- [r1: {X}]")], database=parse_object("[r1: {1, 2}]")
        )
        result = Session.over_program(program).query(
            {"out": var("Out")}, on_closure=True
        )
        assert result == parse_object("[out: {1, 2}]")

    def test_divergence_propagates(self):
        program = Program.from_source("[list: {1}]. [list: {[head: 1, tail: X]}] :- [list: {X}].")
        with pytest.raises(DivergenceError):
            program.evaluate(max_iterations=20)

    def test_lint_flags_the_diverging_rule(self):
        program = Program.from_source(
            "[list: {1}]. [list: {[head: 1, tail: X]}] :- [list: {X}]."
        )
        codes = {diagnostic.code for diagnostic in program.lint().diagnostics}
        assert "RL003" in codes
