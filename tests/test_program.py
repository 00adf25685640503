"""Unit tests for the Program facade (repro.program)."""

import sys

import pytest

from repro import Program, Rule, Session, parse_formula, parse_object, parse_rule
from repro.calculus.terms import SetFormula, TupleFormula, var
from repro.core.builder import obj
from repro.core.errors import DivergenceError, NestingError, ParseError
from repro.core.objects import BOTTOM
from repro.lint import lint_query, lint_rules
from repro.obs import metrics
from repro.parser.printer import pretty
from repro.plan import compile_body


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


def _deep_rule_program(depth=400):
    """One rule ``f :- f`` with ``f`` = ``[a: [a: ... X]]``, ``depth`` tuples deep."""
    deep = parse_formula("[a: " * depth + "X" + "]" * depth)
    return Program([Rule(deep, deep)])


#: The formula depth budget (``repro.calculus.terms.within_budget``).
BUDGET = sys.getrecursionlimit() // 4


def _nested(levels, alternate, leaf):
    """``leaf`` under ``levels`` containers: tuples, or tuples and sets taking turns
    (the outermost always a tuple, so it matches against a database)."""
    for level in range(levels, 0, -1):
        if alternate and (levels - level) % 2:
            leaf = SetFormula([leaf])
        else:
            leaf = TupleFormula(a=leaf)
    return leaf


def _under_frames(frames, call):
    """``call()`` from ``frames`` more Python frames down the stack."""
    return call() if frames == 0 else _under_frames(frames - 1, call)


def _entry_points(query, rule, data):
    """``(verb, call)`` for every intake of a formula and the walks behind it."""
    session = Session(seed=data)
    return [
        ("prepare", lambda: session.prepare(query)),
        ("prepare", lambda: session.prepare(query, lint="off")),
        ("execute", lambda: session.execute(query).all()),
        ("explain", lambda: session.explain(query)),
        ("make a rule", lambda: Session(seed=data).register([rule()]).close()),
        ("make a rule", lambda: Program([rule()], database=data).evaluate()),
        ("make a rule", lambda: Program([rule()], database=data).explain()),
        ("make a rule", lambda: Program([rule()], database=data).lint()),
        ("explain", lambda: Program([], database=data).explain(query)),
        ("lint", lambda: lint_rules([], query=query, database=data)),
        ("lint", lambda: lint_query(query)),
        ("print", lambda: str(query)),
        ("print", lambda: pretty(query)),
        ("make a rule", lambda: str(rule())),
        ("make a rule", lambda: pretty(rule())),
    ]


class TestNestingErrors:
    """One depth budget for formulae: refused at intake, and every walk fits within it."""

    def test_a_rule_too_deep_is_refused_when_it_is_made(self):
        with pytest.raises(NestingError, match="nested 400 levels deep, too deep to make a rule$"):
            _deep_rule_program()

    @pytest.mark.parametrize("alternate", [False, True], ids=["tuples", "tuples-and-sets"])
    def test_a_formula_of_the_budget_fits_every_walk_under_150_frames(self, alternate):
        query = _nested(BUDGET, alternate, var("X"))
        data = obj({"a": 1}) if alternate else parse_object(
            "[a: " * BUDGET + "1" + "]" * BUDGET
        )
        assert query._depth == BUDGET
        for _, call in _entry_points(query, lambda: Rule(query, query), data):
            _under_frames(150, call)

    @pytest.mark.parametrize("alternate", [False, True], ids=["tuples", "tuples-and-sets"])
    def test_one_level_more_is_refused_at_intake_before_any_walk(self, alternate):
        query = _nested(BUDGET + 1, alternate, var("X"))
        runs = metrics.REGISTRY.counter("lint.runs")
        before = (runs.value, compile_body.cache.misses)
        message = f"formula is nested {BUDGET + 1} levels deep, too deep to "
        for verb, call in _entry_points(query, lambda: Rule(query, query), obj({"a": 1})):
            with pytest.raises(NestingError, match=f"^{message}{verb}$"):
                call()
        assert (runs.value, compile_body.cache.misses) == before

    def test_a_parsed_rule_too_deep_is_rules_error_not_a_parse_error(self):
        deep = "[a: " * (BUDGET + 1) + "X" + "]" * (BUDGET + 1)
        parses = ((parse_rule, f"{deep} :- {deep}"), (Program.from_source, f"{deep} :- {deep}."))
        for parse, text in parses:
            with pytest.raises(NestingError, match="too deep to make a rule$") as caught:
                parse(text)
            assert not isinstance(caught.value, ParseError)

    def test_a_seed_database_of_any_depth_is_walked(self):
        deep = obj(1)
        for _ in range(900):
            deep = obj({"a": deep})
        rules = [parse_rule("[u: {X}] :- [r: {X}]")]
        program = Program(rules, database=obj({"r": [1], "x": deep}))
        report = program.lint()
        assert (report.diagnostics, report.rules) == ((), 1)
        # Deriving u grows a 901-deep database: past the default depth guard.
        for call in (program.evaluate, program.explain):
            with pytest.raises(DivergenceError, match="closure exceeded depth 200"):
                call()
        assert program.evaluate(max_depth=1000).value.get("u") == obj([1])
        assert "scan r ~ X" in program.explain(max_depth=1000)
        # A closure that derives nothing returns at any depth.
        for _ in range(2100):
            deep = obj({"a": deep})
        idle = Program([parse_rule("[u: {X}] :- [q: {X}]")], database=obj({"x": deep}))
        result = idle.evaluate()
        assert (result.value, result.iterations) == (idle.database, 0)
        # One that must walk it, to project or unite, names its depth.
        growing = idle.with_rules([parse_rule("[y: {X}] :- [x: X]")])
        message = "^object is nested 3001 levels deep, too deep to close$"
        with pytest.raises(NestingError, match=message):
            growing.evaluate()
