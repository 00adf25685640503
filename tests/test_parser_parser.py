"""Unit tests for the parser (repro.parser.parser)."""

import pytest

from repro import parse_formula, parse_object, parse_program, parse_rule
from repro.core.builder import obj
from repro.core.errors import ParseError
from repro.core.objects import BOTTOM, TOP, Atom
from repro.calculus.terms import Constant, SetFormula, TupleFormula, Variable


class TestParseObject:
    def test_atoms(self):
        assert parse_object("25") == obj(25)
        assert parse_object("2.5") == obj(2.5)
        assert parse_object("john") == obj("john")
        assert parse_object('"New York"') == obj("New York")
        assert parse_object("true") == obj(True)
        assert parse_object("false") == obj(False)

    def test_specials(self):
        assert parse_object("top") is TOP
        assert parse_object("bottom") is BOTTOM

    def test_tuples(self):
        assert parse_object("[name: peter, age: 25]") == obj({"name": "peter", "age": 25})
        assert parse_object("[]") == obj({})

    def test_sets(self):
        assert parse_object("{john, mary, susan}") == obj(["john", "mary", "susan"])
        assert parse_object("{}") == obj([])

    def test_nested(self):
        text = "[name: [first: john, last: doe], children: {john, mary, susan}]"
        expected = obj(
            {"name": {"first": "john", "last": "doe"}, "children": ["john", "mary", "susan"]}
        )
        assert parse_object(text) == expected

    def test_normalization_applies(self):
        assert parse_object("[a: bottom, b: 2]") == obj({"b": 2})
        assert parse_object("{bottom, 1}") == obj([1])
        assert parse_object("[a: top]") is TOP

    def test_string_attribute_names(self):
        value = parse_object('["first name": john]')
        assert value.get("first name") == Atom("john")

    def test_variables_rejected_in_objects(self):
        with pytest.raises(ParseError):
            parse_object("[a: X]")

    def test_round_trip_through_to_text(self, relational_db_object):
        assert parse_object(relational_db_object.to_text()) == relational_db_object

    def test_errors_report_position(self):
        with pytest.raises(ParseError) as info:
            parse_object("[a: ]")
        assert "line 1" in str(info.value)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_object("1 2")

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(ParseError):
            parse_object("[a: 1, a: 2]")


class TestParseFormula:
    def test_variables(self):
        formula = parse_formula("X")
        assert isinstance(formula, Variable)
        assert formula.name == "X"

    def test_underscore_variables(self):
        assert isinstance(parse_formula("_tmp"), Variable)

    def test_tuple_formula_with_variables(self):
        formula = parse_formula("[r1: {[A: X, B: b]}]")
        assert isinstance(formula, TupleFormula)
        assert formula.variables() == {"X"}

    def test_constants_become_ground(self):
        formula = parse_formula("[a: 1, b: {2, 3}]")
        assert formula.is_ground

    def test_set_formula(self):
        formula = parse_formula("{X, john}")
        assert isinstance(formula, SetFormula)
        assert formula.variables() == {"X"}


class TestParseRule:
    def test_rule_with_body(self):
        rule = parse_rule("[r: {X}] :- [r1: {X}, r2: {X}]")
        assert not rule.is_fact
        assert rule.head.variables() == {"X"}

    def test_trailing_period_optional(self):
        assert parse_rule("[r: {X}] :- [r1: {X}].") == parse_rule("[r: {X}] :- [r1: {X}]")

    def test_fact(self):
        fact = parse_rule("[doa: {abraham}].")
        assert fact.is_fact

    def test_unbound_head_variable_rejected(self):
        with pytest.raises(ValueError):
            parse_rule("[r: {X}] :- [r1: {Y}]")

    def test_fact_with_variable_rejected(self):
        with pytest.raises((ValueError, ParseError)):
            parse_rule("[r: {X}].")


class TestParseProgram:
    def test_example_45_program(self):
        source = """
        % descendants of abraham
        [doa: {abraham}].
        [doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].
        """
        rules = parse_program(source)
        assert len(rules) == 2
        assert rules[0].is_fact
        assert not rules[1].is_fact

    def test_empty_program(self):
        assert parse_program("   % nothing here\n") == []

    def test_missing_period_rejected(self):
        with pytest.raises(ParseError):
            parse_program("[a: {1}]")


class TestParseParameters:
    def test_formula_accepts_parameters(self):
        parsed = parse_formula("[r1: {[name: $who, age: X]}]")
        assert parsed.parameters() == frozenset({"who"})
        assert parsed.variables() == frozenset({"X"})

    def test_parameter_round_trips_through_to_text(self):
        source = "[r1: {[name: $who]}]"
        assert parse_formula(source).to_text() == source

    def test_object_rejects_parameters(self):
        with pytest.raises(ParseError):
            parse_object("[name: $who]")

    def test_rule_rejects_parameters(self):
        with pytest.raises(ParseError):
            parse_rule("[doa: {$x}] :- [family: {$x}]")

    def test_program_rejects_parameters(self):
        with pytest.raises(ParseError):
            parse_program("[doa: {$seed}].")


class TestHostileNesting:
    """ROADMAP 4(c): nesting the descent cannot follow is a typed error."""

    DEEP = "[a: " * 3000 + "1" + "]" * 3000

    @pytest.mark.parametrize(
        "parse, text, depth",
        [
            pytest.param(parse_object, DEEP, 3000, id="object-tuples"),
            pytest.param(parse_object, "{" * 3000 + "}" * 3000, 3000, id="object-sets"),
            # Parses, but is too deep to convert to an object.
            pytest.param(parse_object, "{" * 400 + "}" * 400, 400, id="object-conversion"),
            pytest.param(parse_formula, DEEP.replace("1", "X"), 3000, id="formula"),
            pytest.param(
                parse_rule, f"[p: {{X}}] :- {DEEP.replace('1', 'X')}", 3000, id="rule"
            ),
            pytest.param(parse_program, f"[p: {{1}}].\n{DEEP}.", 3000, id="program"),
        ],
    )
    def test_raises_parse_error_naming_the_depth_and_where(self, parse, text, depth):
        with pytest.raises(ParseError) as caught:
            parse(text)
        error = caught.value
        assert f"nested {depth} levels deep" in str(error)
        assert f"line {text.count(chr(10)) + 1}, column" in str(error)
        # The position is the innermost opening bracket.
        assert text[error.position] in "[{" and text[error.position + 1] not in "[{"
        assert not isinstance(error.__cause__, RecursionError)

    def test_four_hundred_levels_still_parse(self):
        assert parse_object("[a: " * 400 + "1" + "]" * 400).kind == "tuple"
        assert parse_formula("{" * 400 + "X" + "}" * 400).variables() == frozenset({"X"})

    def test_a_session_survives_a_hostile_query(self):
        import repro

        with repro.connect() as session:
            session.put("r", parse_object("{[a: 1]}"))
            with pytest.raises(repro.ReproError, match="too deep to parse"):
                session.prepare(self.DEEP)
            assert session.query("[r: {[a: X]}]") == parse_object("[r: {[a: 1]}]")
