"""Unit tests for the shape-inference subsystem (:mod:`repro.lint.shapes`).

The subsystem has three consumers — the RL2xx lint family, the optimizer's
pruning/cardinality hooks, and the engine's per-stratum rule skipping — and
each is pinned here against small hand-checked programs.  Soundness over
random workloads lives in ``tests/test_shape_properties.py``; end-to-end
diagnostics are pinned program-by-program in ``tests/lint_corpus/``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import parse_formula, parse_object, parse_program
from repro.api import LintError, Session
from repro.program import Program
from repro.core.builder import obj
from repro.calculus.fixpoint import close
from repro.engine import SemiNaiveEngine
from repro.lint import lint_query, lint_source
from repro.lint.shapes import infer as shapes_infer
from repro.lint.shapes import (
    ABSENT,
    ANY,
    TOPANY,
    AtomShape,
    SetShape,
    admits,
    infer_shapes,
    join,
    meet,
    shape_of_object,
    truncate,
    widen,
)
from repro.plan import DatabaseStatistics, compile_body, match_plan, optimize_body
from repro.plan.explain import render_body_plan
from repro.obs.metrics import REGISTRY
from repro.plan.statistics import DEFAULT_CARDINALITY
from repro.core.paths import Path

CHAIN = """
[r1: {[a: 1]}].
[r2: {X}] :- [r1: {[b: X]}].
[r3: {X}] :- [r2: {X}].
"""

CLOSURE = """
[edge: {[src: a, dst: b]}].
[edge: {[src: b, dst: c]}].
[path: {[src: X, dst: Y]}] :- [edge: {[src: X, dst: Y]}].
[path: {[src: X, dst: Z]}] :-
    [path: {[src: X, dst: Y]}, edge: {[src: Y, dst: Z]}].
[dead: {X}] :- [edge: {[src: X, kind: audit]}].
"""


def rules_of(source):
    return tuple(parse_program(source))


class TestDomain:
    def test_shape_of_object_round_trips_through_admits(self):
        value = parse_object("[r: {[a: 1, b: {x, y}]}]")
        shape = shape_of_object(value)
        assert admits(shape, value)

    def test_join_widens_atom_sets(self):
        one = shape_of_object(parse_object("1"))
        two = shape_of_object(parse_object("2"))
        joined = join(one, two)
        assert isinstance(joined, AtomShape)
        assert admits(joined, parse_object("1"))
        assert admits(joined, parse_object("2"))
        assert not admits(joined, parse_object("3"))

    def test_meet_of_disjoint_atoms_is_absent(self):
        one = shape_of_object(parse_object("1"))
        two = shape_of_object(parse_object("2"))
        assert meet(one, two) is ABSENT

    def test_admits_ignores_cardinality_bounds(self):
        # ``admits`` is deliberately upward-closed on cardinality: a shape
        # with max_card 1 still admits a larger set of admitted elements.
        shape = SetShape(ANY, 1.0)
        assert admits(shape, parse_object("{1, 2, 3}"))

    def test_truncate_bounds_depth(self):
        nested = parse_object("[a: [b: [c: [d: [e: [f: [g: [h: [i: 1]]]]]]]]]")
        truncated = truncate(shape_of_object(nested), depth=3)
        assert admits(truncated, nested)

    def test_widen_is_increasing(self):
        old = SetShape(AtomShape(frozenset([obj(1)])), 1.0)
        new = SetShape(AtomShape(frozenset([obj(1), obj(2)])), 2.0)
        widened = widen(old, new)
        assert admits(widened, parse_object("{1, 2}"))

    def test_top_any_admits_everything(self):
        assert admits(TOPANY, parse_object("top"))
        assert admits(ANY, parse_object("[a: 1]"))
        assert not admits(ABSENT, parse_object("1"))


class TestInference:
    def test_program_database_shape_covers_derivations(self):
        program = Program.from_source(CLOSURE)
        shapes = infer_shapes(rules_of(CLOSURE))
        closure = program.evaluate().value
        assert shapes.grounded
        assert admits(shapes.database, closure)

    def test_fact_free_program_is_not_grounded(self):
        shapes = infer_shapes(rules_of("[a: {X}] :- [b: {X}]."))
        assert not shapes.grounded

    def test_closed_world_inference_uses_the_database(self):
        rules = rules_of("[out: {X}] :- [in: {X}].")
        database = parse_object("[in: {1, 2}]")
        shapes = infer_shapes(rules, database)
        assert shapes.closed and shapes.grounded
        assert shapes.set_cardinality(Path(("in",))) == 2.0

    def test_scan_element_is_none_on_dead_regions(self):
        shapes = infer_shapes(rules_of(CHAIN))
        assert shapes.scan_element(Path(("r2",))) is None
        assert shapes.scan_element(Path(("r1",))) is not None

    def test_recursive_widening_terminates(self):
        # Structure-growing recursion: the per-round widening must reach a
        # fixpoint (or the TOPANY fallback) instead of looping forever.
        source = """
        [list: {[head: 1]}].
        [list: {[head: 1, tail: X]}] :- [list: {X}].
        """
        shapes = infer_shapes(rules_of(source))
        assert shapes.grounded
        assert shapes.summary_lines()

    def test_summaries_cover_every_rule(self):
        shapes = infer_shapes(rules_of(CLOSURE))
        subjects = [subject for subject, _ in shapes.summary_lines()]
        assert subjects[0] == "database"
        assert any(subject.startswith("rule") for subject in subjects)


class TestLintFindings:
    def test_rl201_rl202_on_the_dead_chain(self):
        report = lint_source(CHAIN, query="[r3: {X}]")
        codes = {(d.rule_index, d.code) for d in report.diagnostics}
        assert (2, "RL201") in codes
        assert (3, "RL202") in codes

    def test_rl203_on_contradictory_variable(self):
        report = lint_source(
            "[p: {[l: 1, r: 2]}].\n[s: {X}] :- [p: {[l: X, r: X]}].\n"
        )
        assert "RL203" in {d.code for d in report.diagnostics}

    def test_rl204_on_shape_impossible_parameter(self):
        rules = rules_of("[r1: {[a: 1]}].\n[r2: {X}] :- [r1: {[a: X]}].")
        query = parse_formula("[r2: {$v}]")
        report = lint_query(query, rules=rules, params={"v": 2})
        assert "RL204" in {d.code for d in report.diagnostics}
        clean = lint_query(query, rules=rules, params={"v": 1})
        assert "RL204" not in {d.code for d in clean.diagnostics}

    def test_fact_free_programs_stay_silent(self):
        # Without facts (and without a database) the analysis has no ground
        # truth: RL2xx must not guess.
        report = lint_source("[a: {X}] :- [b: {X}].")
        assert not {d.code for d in report.diagnostics} & {
            "RL201", "RL202", "RL203", "RL204"
        }

    def test_report_carries_inferred_shapes(self):
        report = lint_source(CHAIN)
        assert report.shapes
        rendered = report.render()
        assert "inferred shapes:" in rendered
        payload = report.to_json()
        assert payload["shapes"]
        assert {"subject", "shape"} <= set(payload["shapes"][0])


class TestPlanIntegration:
    def test_optimize_body_prunes_provably_empty_queries(self):
        rules = rules_of(CHAIN)
        database = Program(rules).seed()
        shapes = infer_shapes(rules, database)
        plan = optimize_body(
            compile_body(parse_formula("[r2: {X}]")),
            DatabaseStatistics.collect(database),
            shapes,
        )
        assert plan.pruned is not None
        assert match_plan(plan, database) == []
        rendered = render_body_plan(plan)
        assert "pruned by shape analysis" in rendered

    def test_leaf_estimates_carry_shape_annotations(self):
        rules = rules_of(CLOSURE)
        database = Program(rules).seed()
        shapes = infer_shapes(rules, database)
        plan = optimize_body(
            compile_body(parse_formula("[edge: {[src: X, dst: Y]}]")),
            DatabaseStatistics.collect(database),
            shapes,
        )
        assert plan.pruned is None
        assert all(estimate.shape is not None for estimate in plan.estimates)

    def test_statistics_fall_back_to_shape_cardinalities(self):
        rules = rules_of("[out: {X}] :- [in: {X}].")
        database = parse_object("[in: {1, 2, 3}]")
        shapes = infer_shapes(rules, database)
        # A statistics profile of a *different* object has no count for the
        # path the shapes can still bound.
        statistics = DatabaseStatistics.collect(parse_object("[other: {1}]"))
        assert statistics.cardinality(Path(("in",))) == DEFAULT_CARDINALITY
        assert statistics.cardinality(Path(("in",)), shapes) == 3.0
        # optimize_body's shapes argument is the estimator's one route to them.
        plan = optimize_body(compile_body(parse_formula("[in: {X}]")), statistics, shapes)
        assert plan.estimates[0].rows == 3.0
        assert optimize_body(plan, statistics).estimates[0].rows == DEFAULT_CARDINALITY


class TestEngineIntegration:
    def test_engine_prunes_dead_rules_without_changing_results(self):
        program = Program.from_source(CLOSURE)
        seed = program.seed()
        pruned = SemiNaiveEngine(program.rules).run(seed)
        baseline = SemiNaiveEngine(program.rules, use_shapes=False).run(seed)
        assert pruned.value == baseline.value == close(seed, program.rules).value
        assert pruned.stats.rules_pruned == 1
        assert baseline.stats.rules_pruned == 0
        assert "pruned by shape analysis" in pruned.stats.summary()

    def test_a_fact_deeper_than_the_cut_keeps_dead_rules_pruned(self):
        # The seed holds the fact, and inference unites the two shapes before
        # truncating: folded exactly, they unite to the fact's own shape.
        fact = "[f: " + "[a: " * 10 + "1" + "]" * 10 + "]."
        program = Program.from_source(fact + "\n[g: {X}] :- [h: {X}].\n")
        report = program.lint()
        assert (2, "RL202") in {(d.rule_index, d.code) for d in report.diagnostics}
        assert dict(report.shapes)["database"] == "[f: " + "[a: " * 7 + "any" + "]" * 8
        assert program.evaluate().stats.rules_pruned == 1

    def test_allow_bottom_disables_shape_pruning(self):
        # The abstract matcher models the strict (⊥-dropping) semantics
        # only; the literal Definition 4.2 semantics must not prune.
        program = Program.from_source(CLOSURE)
        engine = SemiNaiveEngine(program.rules, allow_bottom=True)
        result = engine.run(program.seed())
        assert result.stats.rules_pruned == 0


class TestSessionDoor:
    def make_session(self):
        session = Session()
        session.register("[r1: {[a: 1]}].\n[r2: {X}] :- [r1: {[a: X]}].")
        return session

    def test_prepare_records_parameter_slot_shapes(self):
        session = self.make_session()
        prepared = session.prepare("[r2: {$v}]")
        assert set(prepared.param_shapes) == {"v"}
        assert prepared.param_shapes["v"].describe() == "atom{1}"

    def test_strict_execution_refutes_impossible_bindings(self):
        session = self.make_session()
        prepared = session.prepare("[r2: {$v}]", lint="strict")
        with pytest.raises(LintError) as excinfo:
            prepared.execute(v=2)
        assert any(d.code == "RL204" for d in excinfo.value.diagnostics)
        # A value inside the slot shape executes normally.
        assert prepared.all(v=1) is not None

    def test_warn_execution_counts_but_proceeds(self):
        from repro.obs.metrics import REGISTRY

        session = self.make_session()
        prepared = session.prepare("[r2: {$v}]")
        before = REGISTRY.counter("lint.code.RL204").value
        assert prepared.all(v=2).is_bottom
        assert REGISTRY.counter("lint.code.RL204").value == before + 1

    def test_lint_off_skips_the_shape_door(self):
        session = self.make_session()
        prepared = session.prepare("[r2: {$v}]", lint="off")
        assert prepared.param_shapes == {}
        assert prepared.all(v=2).is_bottom  # executes, no refutation

    def test_seeded_explain_renders_shapes(self):
        session = Session.over_object(parse_object("[r1: {[a: 1]}]"))
        rendered = session.explain("[r1: {[b: X]}]")
        assert "pruned by shape analysis" in rendered


#: The parameterised query over the ``[r1: {[a: c]}]`` / ``r2`` programs below.
PARAM_QUERY = "[r2: {$v}]"
_ATOMS = ("a", "b", "c", "d")


def _param_program(atoms):
    facts = "".join(f"[r1: {{[a: {atom}]}}].\n" for atom in sorted(atoms))
    return facts + "[r2: {X}] :- [r1: {[a: X]}].\n"


def _fields(diagnostic):
    return diagnostic.code, diagnostic.message, diagnostic.formula, diagnostic.hint


class TestOneRL204:
    """RL204 is one check: bind time and ``lint_query(params=)`` agree."""

    @settings(max_examples=40, deadline=None)
    @given(
        atoms=st.sets(st.sampled_from(_ATOMS), min_size=1),
        bound=st.sampled_from(_ATOMS + ("1", "{a}", "[a: b]")),
    )
    def test_execute_reports_what_lint_query_reports(self, atoms, bound):
        source = _param_program(atoms)
        value = parse_object(bound)
        expected = [
            d for d in lint_query(PARAM_QUERY, rules=rules_of(source), params={"v": value})
            .diagnostics if d.code == "RL204"
        ]
        assert len(expected) == (bound not in atoms)

        session = Session()
        session.register(source)
        strict = session.prepare(PARAM_QUERY, lint="strict")
        raised = ()
        if expected:
            with pytest.raises(LintError) as excinfo:
                strict.execute(v=value)
            raised = excinfo.value.diagnostics
        else:
            strict.execute(v=value).all()
        assert [_fields(d) for d in raised] == [_fields(d) for d in expected]

        warned = session.prepare(PARAM_QUERY)
        before = REGISTRY.counter("lint.code.RL204").value
        answer = warned.execute(v=value).all()
        assert REGISTRY.counter("lint.code.RL204").value - before == len(expected)
        if expected:
            assert answer.is_bottom

    def test_a_prepare_miss_runs_the_abstract_matcher_once(self, monkeypatch):
        session = Session()
        session.register(_param_program({"e"}))
        session.prepare("[r1: {[a: $w]}]")  # warms the program's inference
        runs = []
        original = shapes_infer._Matcher.run

        def counted(matcher, body):
            runs.append(body)
            return original(matcher, body)

        monkeypatch.setattr(shapes_infer._Matcher, "run", counted)
        session.prepare(PARAM_QUERY)
        assert len(runs) == 1  # a miss: findings and slots from one match
        session.prepare(PARAM_QUERY)
        session.prepare(PARAM_QUERY, lint="strict")
        assert len(runs) == 1  # hits run nothing


def test_program_explain_renders_shape_annotations():
    rendered = Program.from_source(CLOSURE).explain(analyze=False)
    assert "shape " in rendered
    assert "pruned by shape analysis" in rendered
