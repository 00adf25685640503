"""Literal reproduction of every numbered example in the paper.

Each test class corresponds to one example block of Bancilhon & Khoshafian's
"A Calculus for Complex Objects"; the objects and formulae are transcribed
from the paper verbatim (in the library's concrete syntax).  These tests are
the analytic half of the reproduction — see ``EXPERIMENTS.md`` for the index.
"""

import pytest

from repro import (
    BOTTOM,
    TOP,
    Program,
    Session,
    interpret,
    intersection,
    is_subobject,
    parse_formula,
    parse_object,
    parse_program,
    parse_rule,
    union,
)
from repro.core.errors import DivergenceError
from repro.core.objects import SetObject
from repro.core.order import compare
from repro.core.reduction import is_reduced
from repro.calculus.fixpoint import close
from repro.calculus.rules import RuleSet


class TestExample21:
    """Example 2.1: the variety of things that are objects."""

    OBJECTS = [
        "john",
        "25",
        "{john, mary, susan}",
        "[name: peter, age: 25]",
        "[name: [first: john, last: doe], age: 25]",
        "[name: [first: john, last: doe], children: {john, mary, susan}]",
        "{[name: peter, age: 25], [name: john, age: 7], [name: mary, age: 13]}",
        "{[name: peter], [name: john, age: 7], [name: mary, address: austin]}",
        "{[name: peter, children: {max, susan}],"
        " [name: john, children: {mary, john, frank}],"
        " [name: mary, children: {}]}",
        "[r1: {[name: peter, age: 25], [name: john, age: 7]},"
        " r2: {[name: john, address: austin], [name: mary, address: paris]}]",
    ]

    @pytest.mark.parametrize("source", OBJECTS)
    def test_each_example_parses_to_a_reduced_object(self, source):
        value = parse_object(source)
        assert is_reduced(value)
        # Round trip through the concrete syntax.
        assert parse_object(value.to_text()) == value

    def test_relation_with_null_values_drops_nothing(self):
        relation = parse_object(
            "{[name: peter], [name: john, age: 7], [name: mary, address: austin]}"
        )
        assert len(relation) == 3


class TestExample22:
    """Example 2.2: the equality axioms."""

    def test_attribute_order_is_irrelevant(self):
        assert parse_object("[a: 1, b: 2]") == parse_object("[b: 2, a: 1]")

    def test_bottom_attribute_is_absent(self):
        assert parse_object("[a: 1, b: 2]") == parse_object("[a: 1, b: 2, c: bottom]")

    def test_set_order_is_irrelevant(self):
        assert parse_object("{1, 2, 3}") == parse_object("{2, 3, 1}")

    def test_duplicate_elements_collapse(self):
        assert parse_object("{1, 1}") == parse_object("{1}")

    def test_top_contagion(self):
        assert parse_object("[a: {top}, b: 2]") is TOP

    def test_tuple_set_and_atom_are_not_equal(self):
        assert parse_object("[a: 1]") != parse_object("{1}")
        assert parse_object("{1}") != parse_object("1")
        assert parse_object("[a: 1]") != parse_object("1")


class TestExample31:
    """Example 3.1: positive and negative sub-object facts."""

    POSITIVE = [
        ("[a: 1, b: 2]", "[a: 1, b: 2, c: 3]"),
        ("{1, 2, 3}", "{1, 2, 3, 4}"),
        (
            "{[a: 1], [a: 2, b: 3]}",
            "{[a: 1, b: 2], [a: 2, b: 3], [a: 5, b: 5, c: 5]}",
        ),
        ("[a: {1}, b: 2]", "[a: {1, 2}, b: 2]"),
    ]

    @pytest.mark.parametrize("smaller,larger", POSITIVE)
    def test_positive_cases(self, smaller, larger):
        assert is_subobject(parse_object(smaller), parse_object(larger))

    def test_atom_is_not_a_subobject_of_containers(self):
        assert not is_subobject(parse_object("1"), parse_object("[a: 1, b: 2]"))
        assert not is_subobject(parse_object("1"), parse_object("{1, 2, 3}"))


class TestExample32:
    """Example 3.2: antisymmetry fails on non-reduced objects."""

    def test_mutual_subobjects_that_are_not_equal(self):
        first = SetObject.raw(
            [parse_object("[a1: 3, a2: 5]"), parse_object("[a1: 3]")]
        )
        second = SetObject.raw([parse_object("[a1: 3, a2: 5]")])
        assert is_subobject(first, second)
        assert is_subobject(second, first)
        assert first != second
        assert not is_reduced(first)

    def test_compare_reports_equivalence(self):
        first = SetObject.raw(
            [parse_object("[a1: 3, a2: 5]"), parse_object("[a1: 3]")]
        )
        second = SetObject.raw([parse_object("[a1: 3, a2: 5]")])
        assert compare(first, second) == 0


class TestExample33:
    """Example 3.3: the union table, row by row."""

    ROWS = [
        ("[a: 1, b: 2]", "[b: 2, c: 3]", "[a: 1, b: 2, c: 3]"),
        ("[a: 1]", "[b: 2, c: 3]", "[a: 1, b: 2, c: 3]"),
        ("[a: 1, b: 2]", "[b: 3, c: 4]", "top"),
        ("{1, 2}", "{2, 3}", "{1, 2, 3}"),
        ("1", "2", "top"),
        ("[a: 1, b: 2]", "{1, 2, 3}", "top"),
        ("[a: 1, b: {2, 3}]", "[b: {3, 4}, c: 5]", "[a: 1, b: {2, 3, 4}, c: 5]"),
    ]

    @pytest.mark.parametrize("left,right,expected", ROWS)
    def test_union_rows(self, left, right, expected):
        assert union(parse_object(left), parse_object(right)) == parse_object(expected)

    @pytest.mark.parametrize("left,right,expected", ROWS)
    def test_union_is_commutative_on_the_rows(self, left, right, expected):
        assert union(parse_object(right), parse_object(left)) == parse_object(expected)


class TestExample34:
    """Example 3.4: the intersection table, row by row."""

    ROWS = [
        ("[a: 1, b: 2]", "[b: 2, c: 3]", "[b: 2]"),
        ("[a: 1]", "[b: 2, c: 3]", "[]"),
        ("[a: 1, b: 2]", "[b: 3, c: 4]", "[]"),
        ("{1, 2}", "{2, 3}", "{2}"),
        ("1", "2", "bottom"),
        ("[a: 1, b: 2]", "{1, 2, 3}", "bottom"),
        ("[a: 1, b: {2, 3}]", "[b: {3, 4}, c: 5]", "[b: {3}]"),
    ]

    @pytest.mark.parametrize("left,right,expected", ROWS)
    def test_intersection_rows(self, left, right, expected):
        assert intersection(parse_object(left), parse_object(right)) == parse_object(expected)

    @pytest.mark.parametrize("left,right,expected", ROWS)
    def test_intersection_is_commutative_on_the_rows(self, left, right, expected):
        assert intersection(parse_object(right), parse_object(left)) == parse_object(expected)


@pytest.fixture
def section4_database():
    """A concrete database of the shape assumed throughout Section 4."""
    return parse_object(
        "[r1: {[a: 1, b: b], [a: 2, b: c], [a: a, b: b]},"
        " r2: {[c: b, d: 10], [c: z, d: 20]}]"
    )


class TestExample41:
    """Example 4.1: the interpretations of the seven formulae."""

    def test_formula_1_selection(self, section4_database):
        result = interpret(parse_formula("[r1: {[a: X, b: b]}]"), section4_database)
        assert result == parse_object("[r1: {[a: 1, b: b], [a: a, b: b]}]")

    def test_formula_2_semi_join(self, section4_database):
        result = interpret(
            parse_formula("[r1: {[a: X, b: Y]}, r2: {[c: Y, d: Z]}]"), section4_database
        )
        # Only r1 tuples whose b value has a matching r2.c value survive, and
        # vice versa.
        assert result == parse_object(
            "[r1: {[a: 1, b: b], [a: a, b: b]}, r2: {[c: b, d: 10]}]"
        )

    def test_formula_3_semi_join_with_selection(self, section4_database):
        result = interpret(
            parse_formula("[r1: {[a: a, b: Y]}, r2: {[c: Y, d: Z]}]"), section4_database
        )
        assert result == parse_object("[r1: {[a: a, b: b]}, r2: {[c: b, d: 10]}]")

    def test_formula_4_intersection_of_relations(self):
        database = parse_object("[r1: {[a: 1], [a: 2, b: 2]}, r2: {[a: 2, b: 2], [a: 3]}]")
        result = interpret(parse_formula("[r1: {X}, r2: {X}]"), database)
        both = intersection(database.get("r1"), database.get("r2"))
        assert result == parse_object("[r1: X, r2: X]".replace("X", both.to_text()))

    def test_formula_5_symmetric_join(self):
        database = parse_object(
            "[r1: {[a: 1, b: 2], [a: 9, b: 9]}, r2: {[c: 1, d: 2], [c: 7, d: 7]}]"
        )
        result = interpret(
            parse_formula("[r1: {[a: X, b: Y]}, r2: {[c: X, d: Y]}]"), database
        )
        assert result == parse_object("[r1: {[a: 1, b: 2]}, r2: {[c: 1, d: 2]}]")

    def test_formula_6_whole_relations(self, section4_database):
        result = interpret(parse_formula("[r1: X, r2: Y]"), section4_database)
        assert result == section4_database

    def test_formula_7_also_returns_the_relations(self, section4_database):
        result = interpret(parse_formula("[r1: {X}, r2: {Y}]"), section4_database)
        assert result == section4_database

    def test_interpretations_are_subobjects(self, section4_database):
        for source in (
            "[r1: {[a: X, b: b]}]",
            "[r1: {[a: X, b: Y]}, r2: {[c: Y, d: Z]}]",
            "[r1: {X}, r2: {X}]",
            "[r1: X, r2: Y]",
        ):
            result = interpret(parse_formula(source), section4_database)
            assert is_subobject(result, section4_database)


class TestExample42:
    """Example 4.2: the seven rules and their relational glosses."""

    def test_rule_1_selection_projection_rename(self, section4_database):
        rule = parse_rule("[r: {[c: X]}] :- [r1: {[a: X, b: b]}]")
        assert rule.apply(section4_database) == parse_object("[r: {[c: 1], [c: a]}]")

    def test_rule_2_projection_into_relation(self, section4_database):
        rule = parse_rule("[r: {X}] :- [r1: {[a: X, b: b]}]")
        assert rule.apply(section4_database) == parse_object("[r: {1, a}]")

    def test_rule_3_join(self, section4_database):
        rule = parse_rule("[r: {[a: X, d: Z]}] :- [r1: {[a: X, b: Y]}, r2: {[c: Y, d: Z]}]")
        assert rule.apply(section4_database) == parse_object(
            "[r: {[a: 1, d: 10], [a: a, d: 10]}]"
        )

    def test_rule_4_join_with_renaming(self, section4_database):
        rule = parse_rule(
            "[r: {[a1: X, a2: Z]}] :- [r1: {[a: X, b: Y]}, r2: {[c: Y, d: Z]}]"
        )
        assert rule.apply(section4_database) == parse_object(
            "[r: {[a1: 1, a2: 10], [a1: a, a2: 10]}]"
        )

    def test_rule_5_intersection_into_relation(self):
        database = parse_object("[r1: {[a: 1], [a: 2, b: 2]}, r2: {[a: 2, b: 2], [a: 3]}]")
        rule = parse_rule("[r: {X}] :- [r1: {X}, r2: {X}]")
        expected_set = intersection(database.get("r1"), database.get("r2"))
        assert rule.apply(database) == parse_object(f"[r: {expected_set.to_text()}]")

    def test_rule_6_intersection_into_bare_set(self):
        database = parse_object("[r1: {1, 2}, r2: {2, 3}]")
        rule = parse_rule("{X} :- [r1: {X}, r2: {X}]")
        assert rule.apply(database) == parse_object("{2}")

    def test_rule_7_intersection_after_renaming(self):
        database = parse_object(
            "[r1: {[a: 1, b: 2], [a: 9, b: 9]}, r2: {[c: 1, d: 2], [c: 7, d: 7]}]"
        )
        rule = parse_rule(
            "{[a1: X, a2: Y]} :- [r1: {[a: X, b: Y]}, r2: {[c: X, d: Y]}]"
        )
        assert rule.apply(database) == parse_object("{[a1: 1, a2: 2]}")


class TestExample45:
    """Example 4.5: the descendants-of-Abraham program has a closure."""

    SOURCE = """
    [doa: {abraham}].
    [doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].
    """

    def test_biblical_family(self):
        family = parse_object(
            "[family: {"
            "[name: abraham, children: {[name: isaac], [name: ishmael]}],"
            "[name: isaac, children: {[name: jacob], [name: esau]}],"
            "[name: jacob, children: {[name: joseph], [name: juda]}],"
            "[name: terah, children: {[name: abraham], [name: nahor]}]"
            "}]"
        )
        program = Program.from_source(self.SOURCE, database=family)
        result = Session.over_program(program).query(
            parse_formula("[doa: X]"), on_closure=True
        )
        names = {element.value for element in result.get("doa")}
        # terah and nahor are not descendants of abraham.
        assert names == {"abraham", "isaac", "ishmael", "jacob", "esau", "joseph", "juda"}

    def test_generated_genealogies(self, genealogy_small):
        program = Program.from_source(self.SOURCE, database=genealogy_small.family_object)
        result = program.evaluate()
        names = {element.value for element in result.value.get("doa")}
        assert names == set(genealogy_small.expected_descendants)

    def test_closure_is_a_fixpoint(self, genealogy_small):
        program = Program.from_source(self.SOURCE, database=genealogy_small.family_object)
        closure = program.evaluate().value
        # The closure is closed under the rules (Definition 4.5) and applying
        # the rules once more therefore adds nothing new.
        assert program.rules.is_closed(closure)
        assert union(closure, program.rules.apply(closure)) == closure


class TestExample46:
    """Example 4.6: the list-of-ones program has no closure."""

    def test_divergence_detected(self):
        rules = parse_program("[list: {1}]. [list: {[head: 1, tail: X]}] :- [list: {X}].")
        program = Program(rules)
        with pytest.raises(DivergenceError) as info:
            program.evaluate(max_iterations=30)
        assert info.value.partial is not None

    def test_series_grows_without_bound(self):
        rule = parse_rule("[list: {[head: 1, tail: X]}] :- [list: {X}]")
        database = parse_object("[list: {1}]")
        sizes = []
        current = database
        for _ in range(6):
            current = union(current, RuleSet([rule]).apply(current))
            sizes.append(len(current.get("list")))
        assert sizes == sorted(sizes)
        assert sizes[-1] > sizes[0]

    def test_static_analysis_flags_the_rule(self):
        from repro.lint import lint_rules

        rule = parse_rule("[list: {[head: 1, tail: X]}] :- [list: {X}]")
        assert "RL003" in {d.code for d in lint_rules([rule]).diagnostics}
