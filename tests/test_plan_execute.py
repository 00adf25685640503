"""The physical executor agrees with the baseline matcher on every fragment.

``match_plan`` is the one matching loop behind every evaluation path, so its
contract is behavioural identity with :func:`repro.calculus.matching.match_all`
— same substitution sets under the strict and the literal semantics, same
delta-restricted subsets, same answers through interpretation and rule
application.  These tests pin the crafted edge cases (⊤ on the spine, shape
mismatches, vanish alternatives, repeated variables); the property suite in
``test_plan_properties.py`` covers randomized programs.
"""

import pytest

import repro
from repro import parse_formula, parse_object, parse_rule
from repro.calculus.interpretation import interpret
from repro.calculus.matching import match_all
from repro.calculus.rules import Rule
from repro.core.errors import ComplexObjectError
from repro.core.objects import BOTTOM
from repro.engine import SemiNaiveEngine
from repro.engine.delta import decompose
from repro.plan.indexes import TargetIndexes
from repro.plan.stats import EngineStats
from repro.plan import (
    DatabaseStatistics,
    compile_body,
    interpret_plan,
    iter_match_plan,
    match_plan,
    optimize_body,
)

CASES = [
    # (formula, database) pairs covering the matcher's edge cases.
    ("[r1: {[a: X, b: Y]}, r2: {[c: Y, d: Z]}]",
     "[r1: {[a: 1, b: x], [a: 2, b: y]}, r2: {[c: x, d: 10], [c: z, d: 20]}]"),
    ("[r1: {[name: X]}]", "[r1: {[name: peter, age: 25], [name: john]}]"),
    ("[r1: {X}]", "[r1: {}]"),                      # vanish: bare variable
    ("[a: {bottom}]", "[a: {}]"),                   # vanish: bottom constant
    ("[a: {bottom}]", "[a: {1}]"),
    ("[r1: {X}]", "[r2: {1}]"),
    ("X", "[a: {1}]"),                              # bare-variable body
    ("[a: X]", "5"),                                # tuple formula vs atom
    ("[a: []]", "[a: [x: 1]]"),                     # empty tuple check
    ("[a: {}]", "[a: [x: 1]]"),                     # set check vs tuple
    ("[a: top]", "[a: top]"),
    ("[a: X]", "top"),                              # ⊤ at the root
    ("[a: [b: X]]", "[a: top]"),                    # ⊤ mid-spine
    ("[r: {[x: X, y: X]}]", "[r: {[x: 1, y: 1], [x: 1, y: 2]}]"),
    ("[family: {[name: Y, children: {[name: X]}]}, doa: {Y}]",
     "[family: {[name: a, children: {[name: b], [name: c]}],"
     " [name: b, children: {[name: d]}]}, doa: {a}]"),
    ("[a: {[b: {Y}, c: X]}]", "[a: {[b: {1, 2}, c: q], [b: {3}, c: r]}]"),
]


@pytest.mark.parametrize("formula_text,object_text", CASES)
@pytest.mark.parametrize("allow_bottom", [False, True])
def test_match_plan_agrees_with_match_all(formula_text, object_text, allow_bottom):
    formula = parse_formula(formula_text)
    database = parse_object(object_text)
    plan = optimize_body(compile_body(formula), DatabaseStatistics.collect(database))
    expected = set(match_all(formula, database, allow_bottom=allow_bottom))
    actual = set(match_plan(plan, database, allow_bottom=allow_bottom))
    assert actual == expected


@pytest.mark.parametrize("formula_text,object_text", CASES)
def test_interpret_plan_agrees_with_interpret(formula_text, object_text):
    formula = parse_formula(formula_text)
    database = parse_object(object_text)
    plan = optimize_body(compile_body(formula), DatabaseStatistics.collect(database))
    assert interpret_plan(plan, database) == interpret(formula, database)


class TestDeltaRestriction:
    BODY = "[family: {[name: Y, children: {[name: X]}]}, doa: {Y}]"
    DB = (
        "[family: {[name: a, children: {[name: b], [name: c]}],"
        " [name: b, children: {[name: d]}]}, doa: {a, b}]"
    )

    def test_union_over_positions_with_full_deltas_recovers_full_match(self):
        body = parse_formula(self.BODY)
        database = parse_object(self.DB)
        plan = optimize_body(compile_body(body))
        full = set(match_plan(plan, database))
        from repro.core.paths import navigate

        recovered = set()
        for position in decompose(body).positions:
            elements = navigate(database, position.path).elements
            recovered |= set(
                match_plan(
                    plan, database, position=position, delta_elements=elements
                )
            )
        assert recovered == full

    def test_empty_delta_yields_no_new_witness_matches(self):
        body = parse_formula(self.BODY)
        database = parse_object(self.DB)
        plan = optimize_body(compile_body(body))
        position = decompose(body).positions[0]
        restricted = match_plan(
            plan, database, position=position, delta_elements=()
        )
        # With no fresh witnesses the only alternatives are vanish bindings,
        # which the strict semantics filters out.
        assert restricted == []


class TestIndexes:
    def test_index_hits_counted_and_answers_identical(self):
        body = parse_formula(
            "[family: {[name: Y, children: {[name: X]}]}, doa: {Y}]"
        )
        database = parse_object(
            "[family: {[name: a, children: {[name: b]}],"
            " [name: b, children: {[name: c]}]}, doa: {a}]"
        )
        stats = EngineStats()
        indexes = TargetIndexes(database)
        plan = optimize_body(compile_body(body), DatabaseStatistics.collect(database))
        with_index = set(match_plan(plan, database, indexes=indexes, stats=stats))
        without = set(match_plan(plan, database))
        assert with_index == without
        assert stats.index_hits > 0

    def test_allow_bottom_disables_narrowing(self):
        body = parse_formula("[r: {[k: pin, v: X]}]")
        database = parse_object("[r: {[k: pin, v: 1], [k: other, v: 2]}]")
        stats = EngineStats()
        indexes = TargetIndexes(database)
        plan = optimize_body(compile_body(body))
        result = match_plan(
            plan, database, indexes=indexes, stats=stats, allow_bottom=True
        )
        assert stats.index_hits == 0
        assert set(result) == set(match_all(body, database, allow_bottom=True))


class TestRuleApplication:
    """One full engine round is ``r(O)`` of Definition 4.4, joined onto ``O``."""

    def test_one_full_round_matches_rule_apply(self):
        rule = parse_rule(
            "[j: {[a: X, d: Z]}] :- [r1: {[a: X, b: Y]}, r2: {[c: Y, d: Z]}]"
        )
        database = parse_object(
            "[r1: {[a: 1, b: x], [a: 3, b: x]}, r2: {[c: x, d: 10]}]"
        )
        result = SemiNaiveEngine([rule]).run(database)
        assert result.stats.full_matches == 1
        assert result.value == repro.union(database, rule.apply(database))

    def test_a_fact_emits_its_head_on_bottom(self):
        fact = Rule(parse_formula("[doa: {abraham}]"))
        result = SemiNaiveEngine([fact]).run(BOTTOM)
        assert result.stats.full_matches == 1
        assert result.value == fact.apply(BOTTOM)


class TestActualRecording:
    def test_record_collects_per_leaf_rows_and_total(self):
        body = parse_formula("[r1: {[a: X]}, r2: {[b: X]}]")
        database = parse_object("[r1: {[a: 1], [a: 2]}, r2: {[b: 1]}]")
        plan = optimize_body(compile_body(body), DatabaseStatistics.collect(database))
        record = {}
        results = match_plan(plan, database, record=record)
        assert record["rows"] == len(results) == 1
        assert len(record["by_leaf"]) == 2
        assert all(rows >= 1 for rows in record["by_leaf"].values())


class TestMatcherErrors:
    """A matcher that raises reaches the caller, and the metrics still flush."""

    BODY = "[r: {[a: X, b: Y]}]"
    DB = "[r: {[a: 1, b: 2], [a: 3, b: 4]}]"

    @pytest.mark.parametrize(
        "run", [match_plan, lambda plan, db: list(iter_match_plan(plan, db))]
    )
    def test_forged_matcher_raises_and_metrics_still_flush(self, run, monkeypatch):
        from repro.obs.metrics import REGISTRY
        from repro.plan import execute

        def forged(element):
            seen = []

            def match(witness, out, params):
                seen.append(witness)
                if len(seen) == 2:
                    raise ComplexObjectError("forged failure at the second witness")
                out.append((witness, witness))

            return ("X", "Y"), match

        monkeypatch.setattr(execute, "compile_element_matcher", forged)
        plan = compile_body(parse_formula(self.BODY))
        hits = REGISTRY.counter("exec.compiled_leaf_hits").value
        with pytest.raises(ComplexObjectError, match="forged failure"):
            run(plan, parse_object(self.DB))
        assert REGISTRY.counter("exec.compiled_leaf_hits").value == hits + 2


@pytest.mark.parametrize("batch_size", [0, -3, True, 2.5, "8"])
def test_batch_size_must_be_a_positive_int_at_both_layers(batch_size):
    plan = compile_body(parse_formula("[r: {X}]"))
    with pytest.raises(ValueError, match="batch_size"):
        next(iter_match_plan(plan, parse_object("[r: {1}]"), batch_size=batch_size))
    with repro.connect() as session:
        session.put("r", parse_object("{1}"))
        with pytest.raises(repro.ReproError, match="batch_size"):
            session.execute("[r: {X}]", batch_size=batch_size)
