"""Unit tests for the plan IR, the compiler, statistics and the optimizer."""

import pytest

from repro import parse_formula, parse_object
from repro.core.paths import Path
from repro.plan import (
    BindLeaf,
    BodyPlan,
    CheckLeaf,
    ConstLeaf,
    DatabaseStatistics,
    ScanLeaf,
    compile_body,
    estimate_leaf,
    leaf_key,
    optimize_body,
)


class TestCompileBody:
    def test_join_body_produces_one_scan_leaf_per_set_element(self):
        plan = compile_body(parse_formula("[r1: {[a: X, b: Y]}, r2: {[c: Y, d: Z]}]"))
        assert [type(leaf) for leaf in plan.leaves] == [ScanLeaf, ScanLeaf]
        assert sorted(str(leaf.path) for leaf in plan.leaves) == ["r1", "r2"]

    def test_multiple_elements_of_one_set_get_distinct_indexes(self):
        plan = compile_body(parse_formula("[r: {[a: X], [b: Y]}]"))
        assert sorted(leaf.element_index for leaf in plan.leaves) == [0, 1]
        assert len({leaf_key(leaf) for leaf in plan.leaves}) == 2

    def test_static_and_dynamic_keys(self):
        plan = compile_body(parse_formula("[r: {[name: abraham, child: X]}]"))
        (leaf,) = plan.leaves
        assert [(str(p), a.to_text()) for p, a in leaf.static_keys] == [
            ("name", "abraham")
        ]
        assert [(str(p), n) for p, n in leaf.dynamic_keys] == [("child", "X")]

    def test_spine_variable_and_constant_leaves(self):
        plan = compile_body(parse_formula("[a: X, b: 5]"))
        kinds = {type(leaf): str(leaf.path) for leaf in plan.leaves}
        assert kinds == {BindLeaf: "a", ConstLeaf: "b"}

    def test_empty_tuple_and_set_formulae_become_checks(self):
        plan = compile_body(parse_formula("[a: [], b: {}]"))
        shapes = sorted((str(leaf.path), leaf.shape) for leaf in plan.leaves)
        assert shapes == [("a", "tuple"), ("b", "set")]
        assert all(isinstance(leaf, CheckLeaf) for leaf in plan.leaves)

    def test_nested_structure_below_elements_stays_in_the_element(self):
        # The witness-internal set formula contributes no extra leaf.
        plan = compile_body(
            parse_formula("[family: {[name: Y, children: {[name: X]}]}]")
        )
        assert len(plan.leaves) == 1
        assert plan.leaves[0].variables == frozenset({"X", "Y"})

    def test_compilation_is_cached_on_the_formula(self):
        body = parse_formula("[r1: {[a: X]}]")
        assert compile_body(body) is compile_body(body)


class TestStatistics:
    DB = "[r1: {[a: 1, b: x], [a: 2, b: x], [a: 3, b: y]}, deep: [r2: {[c: 9]}]]"

    def test_cardinalities_and_distincts(self):
        stats = DatabaseStatistics.collect(parse_object(self.DB))
        assert stats.set_cardinalities == {Path("r1"): 3, Path("deep.r2"): 1}
        assert stats.distinct(Path("r1"), Path("a")) == 3
        assert stats.distinct(Path("r1"), Path("b")) == 2

    def test_equality_estimate_uses_distinct_counts(self):
        stats = DatabaseStatistics.collect(parse_object(self.DB))
        assert stats.equality_estimate(Path("r1"), Path("b")) == pytest.approx(1.5)
        # Unknown paths fall back to defaults rather than claiming zero cost.
        assert stats.cardinality(Path("missing")) > 0
        assert stats.distinct(Path("missing"), Path("x")) > 0


class TestOptimizer:
    def test_selective_static_key_leaf_runs_first(self):
        # z_sel sorts last in the canonical attribute order but is by far the
        # most selective atom: the optimizer must move it first.
        db = parse_object(
            "[a_r: {" + ", ".join(f"[x: {i}, y: {i % 5}]" for i in range(20)) + "},"
            " z_sel: {" + ", ".join(f"[y: {i % 5}, tag: t{i}]" for i in range(20)) + "}]"
        )
        body = parse_formula("[a_r: {[x: X, y: Y]}, z_sel: {[y: Y, tag: t3]}]")
        source = compile_body(body)
        assert str(source.leaves[0].path) == "a_r"  # source order is alphabetical
        optimized = optimize_body(source, DatabaseStatistics.collect(db))
        assert optimized.optimized
        assert str(optimized.leaves[0].path) == "z_sel"
        assert "index tag=" in optimized.estimates[0].access
        # The second leaf is reached with Y bound: a dynamic index probe.
        assert "index y=$Y" in optimized.estimates[1].access

    def test_free_leaves_run_before_scans_and_bind_variables(self):
        db = parse_object("[k: v, r: {[a: 1]}]")
        plan = optimize_body(
            compile_body(parse_formula("[r: {[a: X]}, k: K]")),
            DatabaseStatistics.collect(db),
        )
        assert isinstance(plan.leaves[0], BindLeaf)

    def test_cross_products_run_last(self):
        db = parse_object(
            "[r1: {[a: 1], [a: 2]}, r2: {[a: 1]}, lonely: {[z: 9], [z: 8], [z: 7]}]"
        )
        body = parse_formula("[r1: {[a: X]}, r2: {[a: X]}, lonely: {[z: Z]}]")
        plan = optimize_body(compile_body(body), DatabaseStatistics.collect(db))
        assert str(plan.leaves[-1].path) == "lonely"

    def test_without_statistics_static_keys_still_go_first(self):
        body = parse_formula("[big: {[v: V]}, small: {[k: pin, v: V]}]")
        plan = optimize_body(compile_body(body))
        assert str(plan.leaves[0].path) == "small"

    def test_estimates_parallel_the_leaves(self):
        plan = optimize_body(compile_body(parse_formula("[r: {[a: X]}, k: K]")))
        assert len(plan.estimates) == len(plan.leaves)
        estimate = estimate_leaf(plan.leaves[-1], set(), None)
        assert estimate.rows >= 1.0


class TestDescribe:
    def test_body_plan_describe_mentions_join(self):
        plan = compile_body(parse_formula("[r1: {[a: X]}, r2: {[b: X]}]"))
        assert "join" in plan.describe()
        assert isinstance(plan, BodyPlan)

    def test_leaf_descriptions_name_paths_and_patterns(self):
        plan = compile_body(parse_formula("[r1: {[a: X]}, k: K, c: 5, e: {}]"))
        described = " / ".join(leaf.describe() for leaf in plan.leaves)
        assert "scan r1 ~ [a: X]" in described
        assert "bind K := k" in described
        assert "select c >= 5" in described
        assert "check e is set" in described
