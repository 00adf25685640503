"""End-to-end tests for the closure engine (repro.engine.core)."""

from unittest import mock

import pytest

from repro import Program, Session, parse_formula, parse_object, parse_program, parse_rule
from repro.core.errors import DivergenceError
from repro.core.intern import clear_object_caches
from repro.core.objects import TOP, Atom, ComplexObject, SetObject, TupleObject
from repro.core.order import is_subobject
from repro.core.paths import Path, new_set_elements
from repro.calculus.fixpoint import close
from repro.calculus.interpretation import interpret
from repro.calculus.rules import RuleSet
from repro.engine import EngineResult, SemiNaiveEngine, create_engine
from repro.engine import core as engine_core
from repro.core import order
from repro.workloads import make_genealogy

DESCENDANTS = """
[doa: {abraham}].
[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].
"""


def seminaive(rules, database, **options):
    return SemiNaiveEngine(rules, **options).run(database)


class TestAgreementWithClose:
    """The semi-naive engine computes exactly the closure of Definition 4.6."""

    def test_descendants_example_45(self, genealogy_small):
        program = Program.from_source(DESCENDANTS, database=genealogy_small.family_object)
        semi = program.evaluate()
        assert semi.value == close(program.seed(), program.rules).value
        names = {element.value for element in semi.value.get("doa")}
        assert names == set(genealogy_small.expected_descendants)

    def test_join_program(self, relational_db_object):
        rules = RuleSet(
            [parse_rule("[r: {[name: X, address: Z]}] :- [r1: {[name: X]}, r2: {[name: X, address: Z]}]")]
        )
        assert seminaive(rules, relational_db_object).value == close(
            relational_db_object, rules
        ).value

    def test_non_recursive_pipeline(self):
        database = parse_object("[a: {1, 2, 3}]")
        rules = parse_program(
            """
            [b: {X}] :- [a: {X}].
            [c: {X}] :- [b: {X}].
            """
        )
        ruleset = RuleSet([r for r in rules])
        result = seminaive(ruleset, database)
        assert result.value == close(database, ruleset).value
        assert result.value == parse_object("[a: {1, 2, 3}, b: {1, 2, 3}, c: {1, 2, 3}]")
        # One application per stratum: no fixpoint iteration needed.
        assert result.stats.recursive_strata == 0

    def test_non_decomposable_body_falls_back_to_full_matching(self):
        # [doa: X] copies the whole growing set through a spine variable, so
        # every round must re-match it fully; results still agree.
        database = parse_object("[family: {[name: a, children: {[name: b]}]}, doa: {a}]")
        rules = RuleSet(
            [
                parse_rule("[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}]"),
                parse_rule("[mirror: X] :- [doa: X]"),
            ]
        )
        result = seminaive(rules, database)
        assert result.value == close(database, rules).value

    def test_constants_in_bodies(self):
        database = parse_object("[r1: {[a: 1, b: x], [a: 2, b: y], [a: 3, b: x]}]")
        rules = RuleSet([parse_rule("[sel: {[a: A]}] :- [r1: {[a: A, b: x]}]")])
        result = seminaive(rules, database)
        assert result.value == close(database, rules).value
        assert result.value.get("sel") == parse_object("{[a: 1], [a: 3]}")

    def test_facts_fire_once(self):
        rules = RuleSet([parse_rule("[seed: {1}]"), parse_rule("[out: {X}] :- [seed: {X}]")])
        result = seminaive(rules, parse_object("[]"))
        assert result.value == close(parse_object("[]"), rules).value

    def test_empty_ruleset_returns_database(self):
        database = parse_object("[a: {1}]")
        result = seminaive(RuleSet([]), database)
        assert result.value == database
        assert result.converged
        assert result.iterations == 0

    def test_top_database(self):
        rules = RuleSet([parse_rule("[out: {X}] :- [r1: {X}]")])
        assert seminaive(rules, TOP).value == close(TOP, rules).value == TOP

    def test_conflicting_heads_collapse_to_top(self):
        # Two facts whose union is inconsistent: the closure is ⊤ either way.
        rules = parse_program("[flag: 1]. [flag: 2].")
        ruleset = RuleSet(list(rules))
        database = parse_object("[]")
        assert seminaive(ruleset, database).value == close(database, ruleset).value == TOP

    def test_the_literal_semantics_is_the_oracles(self):
        # The engine runs the strict semantics only: Y meets x and y to ⊥,
        # which kills the row.  The literal Definition 4.2 closure, where a
        # ⊥ binding matches, is reached through the oracle alone.
        database = parse_object("[r1: {[a: 1, b: x]}, r2: {[c: y, d: 2]}]")
        rules = RuleSet([parse_rule("[j: {[a: X, d: Z]}] :- [r1: {[a: X, b: Y]}, r2: {[c: Y, d: Z]}]")])
        assert seminaive(rules, database).value == close(database, rules).value == database
        literal = close(database, rules, allow_bottom=True).value
        assert literal.get("j") == parse_object("{[a: 1, d: 2]}")
        with pytest.raises(TypeError):
            SemiNaiveEngine(rules, allow_bottom=True)

    def test_without_indexes_agrees(self, genealogy_small):
        rules = RuleSet([r for r in parse_program(DESCENDANTS) if not r.is_fact])
        database = parse_object("[doa: {abraham}]")
        from repro.core.lattice import union

        seeded = union(genealogy_small.family_object, database)
        indexed = seminaive(rules, seeded)
        plain = seminaive(rules, seeded, use_indexes=False)
        assert indexed.value == plain.value
        assert indexed.stats.index_hits > 0
        assert plain.stats.index_hits == 0


class TestDivergence:
    LISTS = RuleSet([parse_rule("[list: {[head: 1, tail: X]}] :- [list: {X}]")])
    SEED = parse_object("[list: {1}]")

    def test_example_46_raises(self):
        with pytest.raises(DivergenceError) as info:
            seminaive(self.LISTS, self.SEED, max_iterations=25)
        assert info.value.partial is not None

    def test_node_guard(self):
        with pytest.raises(DivergenceError):
            seminaive(self.LISTS, self.SEED, max_nodes=50)

    def test_depth_guard(self):
        with pytest.raises(DivergenceError):
            seminaive(self.LISTS, self.SEED, max_depth=10)

    def test_oracle_raises_identically(self):
        with pytest.raises(DivergenceError):
            close(self.SEED, self.LISTS, max_iterations=25)


class TestIterationBudget:
    """``iterations`` / ``max_iterations`` are summed over recursive strata."""

    # Two independent depth-8 chains: a1 → … → a9 and b1 → … → b9.
    SOURCE = (
        "[ra: {a1}]. [rb: {b1}].\n"
        "[ra: {Y}] :- [ea: {[s: X, t: Y]}, ra: {X}].\n"
        "[rb: {Y}] :- [eb: {[s: X, t: Y]}, rb: {X}].\n"
    )
    EDGES = parse_object(
        "[%s]"
        % ", ".join(
            "e%s: {%s}"
            % (c, ", ".join(f"[s: {c}{i}, t: {c}{i + 1}]" for i in range(1, 9)))
            for c in "ab"
        )
    )

    def program(self):
        return Program.from_source(self.SOURCE, database=self.EDGES)

    def test_independent_recursions_each_pay_their_own_rounds(self):
        program = self.program()
        oracle = close(program.seed(), program.rules)
        assert oracle.iterations == 8  # global rounds advance both chains
        assert program.evaluate().iterations == 16

    def test_budget_counts_each_stratum_s_confirming_round(self):
        program = self.program()
        with pytest.raises(DivergenceError) as info:
            program.evaluate(max_iterations=16)
        # The first chain finished inside the budget; the second did not.
        partial = info.value.partial
        assert {len(partial.get("ra")), len(partial.get("rb"))} == {9, 8}
        converged = program.evaluate(max_iterations=18)
        assert converged.value == close(program.seed(), program.rules).value


class TestResume:
    """``run(database, previous=...)`` continues from the engine's last closure."""

    RULES = [rule for rule in parse_program(DESCENDANTS) if not rule.is_fact]
    SMALL = parse_object("[doa: {abraham}, family: {[name: abraham, children: {[name: isaac]}]}]")
    GROWN = parse_object(
        "[doa: {abraham}, family: {[name: abraham, children: {[name: isaac]}],"
        " [name: isaac, children: {[name: esau], [name: jacob]}]}]"
    )

    def test_resumed_run_derives_only_the_delta(self):
        engine = SemiNaiveEngine(self.RULES)
        base = engine.run(self.SMALL)
        resumed = engine.run(self.GROWN, previous=base.value)
        assert resumed.value == close(self.GROWN, RuleSet(self.RULES)).value
        # The record is this call's: no full match, two heads, one growing round.
        assert resumed.stats.full_matches == 0
        assert resumed.stats.subobjects_derived == 2
        assert resumed.iterations == resumed.stats.iterations == 1

    def test_rules_pruned_against_the_old_database_run_live(self):
        engine = SemiNaiveEngine(self.RULES)
        base = engine.run(parse_object("[doa: {abraham}]"))
        assert base.stats.rules_pruned == 1  # no family: the body cannot match
        resumed = engine.run(self.GROWN, previous=base.value)
        assert resumed.stats.rules_pruned == 0
        assert resumed.value == close(self.GROWN, RuleSet(self.RULES)).value

    def test_round_budget_is_charged_per_call(self):
        engine = SemiNaiveEngine(self.RULES, max_iterations=3)
        base = engine.run(self.SMALL)  # two rounds of three
        resumed = engine.run(self.GROWN, previous=base.value)  # two more: a fresh budget
        assert resumed.converged

    def test_an_aborted_run_leaves_nothing_to_resume_from(self):
        engine = SemiNaiveEngine(self.RULES, max_nodes=12)
        base = engine.run(self.SMALL)
        with pytest.raises(DivergenceError):
            engine.run(self.GROWN, previous=base.value)
        again = engine.run(self.SMALL, previous=base.value)
        assert again.stats.full_matches > 0 and again.value == base.value


class TestEngineInterface:
    def test_create_engine_builds_the_one_engine(self):
        engine = create_engine("seminaive", [parse_rule("[b: {X}] :- [a: {X}]")])
        assert isinstance(engine, SemiNaiveEngine)

    @pytest.mark.parametrize("name", ["naive", "quantum"])
    def test_create_engine_unknown_name(self, name):
        with pytest.raises(ValueError, match="unknown engine"):
            create_engine(name, [])

    def test_engine_result_is_a_closure_result(self, genealogy_small):
        program = Program.from_source(DESCENDANTS, database=genealogy_small.family_object)
        result = program.evaluate()
        assert isinstance(result, EngineResult)
        assert result.converged
        assert is_subobject(genealogy_small.family_object, result.value)

    def test_query_on_the_engine_closure_matches_the_oracles(self, genealogy_small):
        program = Program.from_source(DESCENDANTS, database=genealogy_small.family_object)
        answer = Session.over_program(program).query("[doa: X]", on_closure=True)
        closure = close(program.seed(), program.rules).value
        assert answer == interpret(parse_formula("[doa: X]"), closure)


class TestStats:
    def test_descendants_stats(self, genealogy_small):
        program = Program.from_source(DESCENDANTS, database=genealogy_small.family_object)
        result = program.evaluate()
        stats = result.stats
        assert stats.iterations == result.iterations > 0
        assert stats.strata >= 1
        assert stats.recursive_strata == 1
        assert stats.delta_matches > 0
        assert stats.full_matches >= 1
        assert stats.match_attempts > 0
        assert stats.index_hits > 0
        assert stats.subobjects_derived > 0

    def test_as_dict_and_summary(self):
        result = seminaive(RuleSet([parse_rule("[b: {X}] :- [a: {X}]")]), parse_object("[a: {1}]"))
        snapshot = result.stats.as_dict()
        assert snapshot["iterations"] == result.iterations
        assert "strata" in result.stats.summary()

    def test_seminaive_does_less_matching_than_naive(self):
        # The headline claim: on a deep recursion the delta engine performs
        # fewer element-match attempts than round-count × database-size.
        tree = make_genealogy(5, 2)
        program = Program.from_source(DESCENDANTS, database=tree.family_object)
        semi = program.evaluate()
        people = len(tree.people)
        rounds = semi.iterations
        assert semi.stats.match_attempts < rounds * people


class TestBucketBuilds:
    """The engine buckets a set at its first probe, and the table stays on the
    set: rounds that leave the set alone find it, and a write that grows the
    set derives the grown set's table (the one function that buckets is the count)."""

    def test_a_close_buckets_each_probed_set_once_and_resumed_closes_derive_the_rest(self):
        tree = make_genealogy(3, 3)
        family = tree.family_object.get("family")
        root = next(person for person in family if person.get("name") == Atom(tree.root))
        clear_object_caches()
        session = Session()
        session.put("family", family)
        session.register(parse_program(DESCENDANTS))

        def builds(run):
            with mock.patch.object(order, "_bucket", wraps=order._bucket) as build:
                result = run()
            return result, [(call.args[0], str(call.args[1])) for call in build.call_args_list]

        def write_leaf(parent, name):
            grown = parent.replace(
                children=parent.get("children").add(TupleObject({"name": Atom(name)}))
            )
            leaf = TupleObject({"name": Atom(name), "children": SetObject()})
            session.transact(
                lambda txn: txn.put(
                    "family", txn.get("family").discard(parent).add(grown).add(leaf)
                )
            )
            return grown

        cold, built = builds(session.close)
        # (family, name) once, over all 40 people: the full first round scans doa.
        assert [(len(members), key) for members, key in built] == [(40, "name")]
        assert built[0][0] is cold.value.get("family")
        assert cold.stats.full_matches > 0

        grown = write_leaf(root, "n0")
        resumed, built = builds(session.close)
        assert session.cache_info()["closure_maintained"] == 1
        assert resumed.stats.full_matches == 0
        # The new family tuples run first and probe doa by their names: the
        # cold close's 40-person doa set is bucketed by element, once.  The
        # write derived the 41-person family's table from the 40-person one's.
        assert [(len(members), key) for members, key in built] == [(40, "")]
        assert built[0][0] is cold.value.get("doa")
        grown_family = resumed.value.get("family")
        assert grown_family._tables[Path("name")] == order._bucket(grown_family, Path("name"))
        written = TupleObject({"family": family.discard(root).add(grown).add(
            TupleObject({"name": Atom("n0"), "children": SetObject()})
        )})
        assert resumed.value == close(written, RuleSet(list(parse_program(DESCENDANTS)))).value

        # Every table the next resumed close probes was derived by a write or a round.
        write_leaf(grown, "n1")
        again, built = builds(session.close)
        assert session.cache_info()["closure_maintained"] == 2
        assert built == []
        doa = again.value.get("doa")
        assert doa._tables[Path(())] == order._bucket(doa, Path(()))
        assert {element.value for element in doa} == {
            *tree.expected_descendants, "n0", "n1"
        }


class TestResumedCloseCost:
    """A resumed close is driven by its delta: its cost does not grow with the closure."""

    @staticmethod
    def resume_after_one_leaf(generations):
        tree = make_genealogy(generations, 3)
        family = tree.family_object.get("family")
        root = next(person for person in family if person.get("name") == Atom(tree.root))
        grown = root.replace(
            children=root.get("children").add(TupleObject({"name": Atom("n0")}))
        )
        leaf = TupleObject({"name": Atom("n0"), "children": SetObject()})
        session = Session()
        session.put("family", family)
        session.register(parse_program(DESCENDANTS))
        session.close()
        session.transact(
            lambda txn: txn.put("family", txn.get("family").discard(root).add(grown).add(leaf))
        )
        return len(family), session

    @pytest.mark.parametrize("generations, people", [(4, 121), (5, 364)])
    def test_a_one_leaf_write_costs_five_match_attempts_at_any_size(self, generations, people):
        size, session = self.resume_after_one_leaf(generations)
        assert size == people
        resumed = session.close()
        assert session.cache_info()["closure_maintained"] == 1
        # Round 1: the two new family tuples (the grown root, the leaf), then
        # doa probed by the root's name; round 2, which derives nothing: the
        # new doa element, then family probed by its name (the leaf).
        assert resumed.stats.match_attempts == 5
        assert "n0" in {element.value for element in resumed.value.get("doa")}

    def test_the_delta_is_found_without_hashing_an_element(self):
        _, session = self.resume_after_one_leaf(4)
        diffing, diffs, hashed = [False], [], []
        original = ComplexObject.__hash__

        def diff(*args):
            diffs.append(args[2])
            diffing[0] = True
            try:
                return new_set_elements(*args)
            finally:
                diffing[0] = False

        def counting_hash(value):
            if diffing[0]:
                hashed.append(value)
            return original(value)

        with mock.patch.object(engine_core, "new_set_elements", diff), \
                mock.patch.object(ComplexObject, "__hash__", counting_hash):
            session.close()
        assert session.cache_info()["closure_maintained"] == 1
        # Both set paths (family, doa) of each of the two delta rounds.
        assert len(diffs) == 4
        assert hashed == []
