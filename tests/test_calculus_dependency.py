"""Unit tests for the scheduler's rule dependency graph (repro.calculus.dependency)."""

from repro import parse_program, parse_rule
from repro.calculus.dependency import DependencyGraph, access_paths, paths_interact
from repro.calculus.terms import formula, var
from repro.core.paths import Path


class TestAccessPaths:
    def test_set_formula_path(self):
        body = parse_rule("[out: {X}] :- [r1: {X}]").body
        assert access_paths(body) == (Path("r1"),)

    def test_nested_tuple_paths(self):
        target = formula({"a": {"b": [var("X")], "c": var("Y")}})
        assert access_paths(target) == (Path("a.b"), Path("a.c"))

    def test_root_variable(self):
        assert access_paths(var("X")) == (Path(()),)

    def test_empty_tuple_formula_is_an_access_point(self):
        assert access_paths(formula({})) == (Path(()),)

    def test_sets_are_opaque(self):
        # Paths do not descend into set elements: the set's own path stands
        # for everything inside it.
        body = parse_rule("[out: {X}] :- [family: {[name: Y, children: {[name: X]}]}]").body
        assert access_paths(body) == (Path("family"),)


class TestPathsInteract:
    def test_equal_paths(self):
        assert paths_interact(frozenset({Path("a")}), frozenset({Path("a")}))

    def test_prefix_either_direction(self):
        assert paths_interact(frozenset({Path("a")}), frozenset({Path("a.b")}))
        assert paths_interact(frozenset({Path("a.b")}), frozenset({Path("a")}))

    def test_disjoint(self):
        assert not paths_interact(frozenset({Path("a")}), frozenset({Path("b")}))

    def test_root_interacts_with_everything(self):
        assert paths_interact(frozenset({Path(())}), frozenset({Path("x.y.z")}))


class TestDependencyGraph:
    def test_recursive_rule_has_self_edge(self):
        rules = parse_program("[doa: {X}] :- [family: {[name: X]}, doa: {X}].")
        graph = DependencyGraph(rules)
        assert graph.depends_on(0, 0)
        strata = graph.strata()
        assert len(strata) == 1
        assert strata[0].recursive

    def test_pipeline_is_topologically_ordered(self):
        rules = parse_program(
            """
            [c: {X}] :- [b: {X}].
            [b: {X}] :- [a: {X}].
            [d: {X}] :- [c: {X}].
            """
        )
        graph = DependencyGraph(rules)
        strata = graph.strata()
        assert [len(s.rules) for s in strata] == [1, 1, 1]
        assert not any(s.recursive for s in strata)
        order = [s.rules[0].head.to_text() for s in strata]
        assert order == ["[b: {X}]", "[c: {X}]", "[d: {X}]"]

    def test_mutual_recursion_is_one_stratum(self):
        rules = parse_program(
            """
            [even: {X}] :- [odd: {X}].
            [odd: {X}] :- [even: {X}].
            [seed: {X}] :- [raw: {X}].
            """
        )
        strata = DependencyGraph(rules).strata()
        sizes = sorted(len(s.rules) for s in strata)
        assert sizes == [1, 2]
        recursive = [s for s in strata if len(s.rules) == 2]
        assert recursive[0].recursive

    def test_independent_rules_are_separate_non_recursive_strata(self):
        rules = parse_program(
            """
            [x: {A}] :- [a: {A}].
            [y: {B}] :- [b: {B}].
            """
        )
        strata = DependencyGraph(rules).strata()
        assert len(strata) == 2
        assert not any(s.recursive for s in strata)

    def test_producer_scheduled_before_recursive_consumer(self):
        # The descendants program: the fact-free projection feeds the
        # recursive component and must come first.
        rules = parse_program(
            """
            [doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].
            [family: {[name: X]}] :- [people: {X}].
            """
        )
        strata = DependencyGraph(rules).strata()
        assert [s.recursive for s in strata] == [False, True]
        assert "people" in strata[0].rules[0].body.to_text()

    def test_facts_read_nothing(self):
        rules = parse_program(
            """
            [doa: {abraham}].
            [doa: {X}] :- [family: {[name: X]}, doa: {X}].
            """
        )
        graph = DependencyGraph(rules)
        # The fact (index 0) feeds the rule but depends on nothing.
        fact_index = next(i for i, r in enumerate(graph.rules) if r.is_fact)
        rule_index = 1 - fact_index
        assert graph.depends_on(rule_index, fact_index)
        assert not graph.depends_on(fact_index, rule_index)
