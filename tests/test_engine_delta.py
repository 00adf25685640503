"""Unit tests for delta decomposition (repro.engine.delta)."""

from repro import parse_rule
from repro.calculus.terms import formula, var
from repro.engine.delta import DeltaPosition, decompose
from repro.core.objects import BOTTOM
from repro.core.paths import Path


class TestDecompose:
    def test_example_45_body(self):
        body = parse_rule(
            "[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}]"
        ).body
        decomposition = decompose(body)
        assert decomposition.decomposable
        assert set(decomposition.positions) == {
            DeltaPosition(Path("family"), 0),
            DeltaPosition(Path("doa"), 0),
        }
        assert set(decomposition.set_paths) == {Path("family"), Path("doa")}

    def test_multiple_elements_in_one_set(self):
        body = parse_rule("[out: {X}] :- [r1: {X, [a: Y]}]").body
        decomposition = decompose(body)
        assert decomposition.decomposable
        assert set(decomposition.positions) == {
            DeltaPosition(Path("r1"), 0),
            DeltaPosition(Path("r1"), 1),
        }

    def test_nested_tuple_spine(self):
        body = formula({"a": {"b": [var("X")]}})
        decomposition = decompose(body)
        assert decomposition.decomposable
        assert decomposition.positions == (DeltaPosition(Path("a.b"), 0),)

    def test_fact_is_trivially_decomposable(self):
        assert decompose(None).decomposable
        assert decompose(None).positions == ()

    def test_variable_on_spine_blocks(self):
        # [doa: X] reads the whole growing set through a variable.
        assert not decompose(parse_rule("[out: X] :- [doa: X]").body).decomposable

    def test_constant_on_spine_blocks(self):
        assert not decompose(parse_rule("[out: {X}] :- [flag: on, r1: {X}]").body).decomposable

    def test_root_variable_blocks(self):
        assert not decompose(var("X")).decomposable

    def test_empty_set_formula_blocks(self):
        assert not decompose(formula({"r1": set()})).decomposable

    def test_empty_tuple_formula_blocks(self):
        assert not decompose(formula({"r1": {}})).decomposable

    def test_bottom_constant_element_blocks(self):
        # {bottom} matches the empty set via the vanish alternative.
        assert not decompose(formula({"r1": [BOTTOM]})).decomposable

    def test_sets_nested_in_elements_are_safe(self):
        # The inner set lives inside a witness; only the outer set is a
        # delta position.
        body = parse_rule("[out: {X}] :- [family: {[children: {[name: X]}]}]").body
        decomposition = decompose(body)
        assert decomposition.decomposable
        assert decomposition.positions == (DeltaPosition(Path("family"), 0),)
