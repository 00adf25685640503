"""Store-side pushdown: query restriction, index short-circuit, find prefilter."""

import pytest

from repro import Session, is_subobject, parse_formula, parse_object
# The oracle must stay independent of the session pipeline under test, so
# it is the calculus baseline interpret.
from repro.calculus.interpretation import interpret
from repro.core.objects import BOTTOM
from repro.store.database import ObjectDatabase
from repro.store.index import PathIndex


def ask(database, formula, **options):
    """The answer of a fresh session over ``database`` (no cached plan)."""
    return Session(database=database).query(formula, **options)


@pytest.fixture
def populated():
    database = ObjectDatabase()
    for position in range(20):
        database.put(
            f"obj{position}",
            parse_object(f"[tag: {{t{position % 4}}}, num: {position}]"),
        )
    database.put(
        "family",
        parse_object(
            "[family: {[name: abraham, kids: {isaac}], [name: sarah, kids: {isaac}]}]"
        ),
    )
    return database


class TestQueryPushdown:
    def test_tuple_query_counts_a_root_pushdown(self, populated):
        before = populated.access_stats["query_root_pushdowns"]
        ask(populated, "[family: [family: {[name: X]}]]")
        assert populated.access_stats["query_root_pushdowns"] == before + 1

    def test_pushdown_answer_equals_full_snapshot_interpretation(self, populated):
        for source in (
            "[family: [family: {[name: X]}]]",
            "[obj3: [tag: {T}]]",
            "[missing: {X}]",
            "[obj1: [num: N], obj2: [num: M]]",
        ):
            query = parse_formula(source)
            assert ask(populated, query) == interpret(query, populated.as_object())

    def test_non_tuple_query_falls_back_to_the_snapshot(self, populated):
        before = populated.access_stats["query_scans"]
        query = parse_formula("X")
        assert ask(populated, query) == interpret(query, populated.as_object())
        assert populated.access_stats["query_scans"] == before + 1

    def test_allow_bottom_pushdown_agrees(self, populated):
        query = parse_formula("[family: [family: {[name: X, kids: {K}]}]]")
        assert ask(populated, query, allow_bottom=True) == interpret(
            query, populated.as_object(), allow_bottom=True
        )

    def test_top_valued_object_disables_pushdown(self, populated):
        # A stored ⊤ collapses as_object() to ⊤ even for names the formula
        # never mentions; the pushdown must fall back to the snapshot path.
        populated.put("anything", parse_object("top"))
        query = parse_formula("[family: [family: {[name: X]}]]")
        assert ask(populated, query) == interpret(query, populated.as_object())
        assert ask(populated, query).is_top
        # Removing the ⊤ value re-enables the pushdown.
        populated.remove("anything")
        before = populated.access_stats["query_root_pushdowns"]
        assert ask(populated, query) == interpret(query, populated.as_object())
        assert populated.access_stats["query_root_pushdowns"] == before + 1

    def test_against_still_targets_one_object(self, populated):
        query = parse_formula("[family: {[name: X]}]")
        assert ask(populated, query, against="family") == interpret(
            query, populated["family"]
        )


class TestIndexShortCircuit:
    def test_absent_atom_answers_bottom_from_the_index(self, populated):
        populated.create_index("family.name")
        before = populated.access_stats["query_index_shortcircuits"]
        result = ask(populated, "[family: [family: {[name: nobody, kids: K]}]]")
        assert result is BOTTOM
        assert populated.access_stats["query_index_shortcircuits"] == before + 1

    def test_present_atom_is_not_shortcircuited(self, populated):
        populated.create_index("family.name")
        result = ask(populated, "[family: [family: {[name: abraham, kids: K]}]]")
        assert not result.is_bottom

    def test_shortcircuit_agrees_with_interpretation(self, populated):
        populated.create_index("family.name")
        query = parse_formula("[family: [family: {[name: nobody]}]]")
        assert ask(populated, query) == interpret(query, populated.as_object())

    def test_top_at_indexed_path_is_wildcarded_not_missed(self, populated):
        populated.create_index("family.name")
        populated.put("weird", parse_object("[family: {[name: top, kids: {x}]}]"))
        query = parse_formula("[weird: [family: {[name: anyname]}]]")
        # ⊤ dominates any name, so the index must not refute this query.
        assert ask(populated, query) == interpret(query, populated.as_object())
        assert not ask(populated, query).is_bottom


class TestFindPrefilter:
    def test_prefilter_counts_and_agrees_with_scan(self, populated):
        pattern = parse_object("[tag: {t3}]")
        expected = populated.find(pattern)
        assert populated.access_stats["find_scans"] >= 1
        populated.create_index("tag")
        prefiltered = populated.find(pattern)
        stats = populated.access_stats
        assert stats["find_index_prefilters"] >= 1
        assert prefiltered == expected

    def test_unconstrained_pattern_still_scans(self, populated):
        populated.create_index("tag")
        before = populated.access_stats["find_scans"]
        names = populated.find(parse_object("[num: 7]"))
        assert names == ["obj7"]
        assert populated.access_stats["find_scans"] == before + 1

    def test_multiple_indexes_intersect(self, populated):
        populated.create_index("tag")
        populated.create_index("num")
        names = populated.find(parse_object("[tag: {t3}, num: 7]"))
        assert names == ["obj7"]
        assert populated.access_stats["find_index_prefilters"] >= 1

    def test_wildcard_objects_survive_the_prefilter(self, populated):
        populated.create_index("tag")
        populated.put("anything", parse_object("[tag: top]"))
        names = populated.find(parse_object("[tag: {t2}]"))
        assert "anything" in names

    def test_explicit_path_behaviour_is_preserved(self, populated):
        populated.create_index("tag")
        names = populated.find(parse_object("[tag: {t1}]"), path="tag")
        scan = [
            name
            for name in populated.names()
            if is_subobject(parse_object("[tag: {t1}]"), populated[name])
        ]
        assert names == scan


class TestPathIndexWildcards:
    def test_lookup_includes_wildcards(self):
        index = PathIndex("family.name")
        index.add("normal", parse_object("[family: {[name: abraham]}]"))
        index.add("wild", parse_object("[family: top]"))
        assert index.lookup(parse_object("abraham")) == {"normal", "wild"}
        assert index.lookup(parse_object("zzz")) == {"wild"}

    def test_wildcard_cleared_on_remove_and_overwrite(self):
        index = PathIndex("name")
        index.add("w", parse_object("top"))
        assert "w" in index.lookup(parse_object("anything"))
        index.add("w", parse_object("[name: fixed]"))
        assert "w" not in index.lookup(parse_object("anything"))
        index.remove("w")
        assert index.lookup(parse_object("fixed")) == frozenset()

    def test_set_descended_keys_are_not_reduced_away(self):
        # The two elements are incomparable, but their k-values dominate each
        # other: folding the collected values into a normalized set (as
        # get_path does) would absorb [a: 1] and lose its key — the index's
        # own traversal must keep both.
        index = PathIndex("items.k")
        index.add(
            "both",
            parse_object("[items: {[k: [a: 1], t: 1], [k: [a: 1, b: 2], t: 0]}]"),
        )
        assert "both" in index.lookup(parse_object("[a: 1]"))
        assert "both" in index.lookup(parse_object("[a: 1, b: 2]"))


class TestCloseUnder:
    RULES = "[doa: {abraham}]. [doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}]."

    def make_db(self):
        from repro.workloads import make_genealogy

        database = ObjectDatabase()
        database.put("family_tree", make_genealogy(3, 2).family_object)
        return database

    def test_engine_and_oracle_agree(self):
        from repro import parse_program
        from repro.calculus.fixpoint import close

        database = self.make_db()
        rules = parse_program(self.RULES)
        result = database.close_under(rules, against="family_tree")
        assert result.converged
        assert result.value == close(database["family_tree"], rules).value

    def test_oracle_only_keywords_are_not_sniffed(self):
        from repro import parse_program

        with pytest.raises(TypeError, match="inflationary"):
            self.make_db().close_under(
                parse_program(self.RULES), against="family_tree", inflationary=True
            )
        with pytest.raises(TypeError, match="engine"):
            self.make_db().close_under(
                parse_program(self.RULES), against="family_tree", engine=None
            )
