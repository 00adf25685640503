"""Unit tests for the ObjectDatabase facade (repro.store.database)."""

import pytest

import repro
from repro import Session, parse_formula, parse_object, parse_rule
from repro.core.builder import obj
from repro.core.errors import SchemaError, StoreError
from repro.schema.types import integer, set_type, string, tuple_type
from repro.store.database import ObjectDatabase
from repro.store.storage import FileStorage


@pytest.fixture
def database(genealogy_small):
    db = ObjectDatabase()
    db.put("family_tree", genealogy_small.family_object)
    db.put("people", parse_object("{[name: peter, age: 25], [name: john, age: 7]}"))
    return db


class TestCrud:
    def test_put_converts_python_values(self, database):
        stored = database.put("config", {"limit": 10, "tags": ["a", "b"]})
        assert stored == obj({"limit": 10, "tags": ["a", "b"]})
        assert database["config"] == stored

    def test_get_and_contains(self, database):
        assert "people" in database
        assert database.get("missing") is None
        with pytest.raises(KeyError):
            database["missing"]

    def test_remove(self, database):
        database.remove("people")
        assert "people" not in database
        database.remove("people")  # idempotent

    def test_names_items_len(self, database):
        assert set(database.names()) == {"family_tree", "people"}
        assert len(database) == 2
        assert dict(database.items())["people"] == database["people"]

    def test_as_object_is_the_paper_database(self, database):
        whole = database.as_object()
        assert whole.get("people") == database["people"]
        assert whole.get("family_tree") == database["family_tree"]

    def test_file_backed_database_round_trips(self, tmp_path, genealogy_small):
        path = str(tmp_path / "db.jsonl")
        db = ObjectDatabase(FileStorage(path))
        db.put("family", genealogy_small.family_object)
        db.close()
        reopened = ObjectDatabase(FileStorage(path))
        assert reopened["family"] == genealogy_small.family_object
        reopened.close()


class TestQueries:
    def test_query_against_one_object(self, database):
        result = Session(database=database).query("{[name: X, age: 25]}", against="people")
        assert result == parse_object("{[name: peter, age: 25]}")

    def test_query_against_whole_database(self, database):
        result = Session(database=database).query("[people: {[name: X]}]")
        assert result == parse_object("[people: {[name: peter], [name: john]}]")

    def test_query_accepts_formula_objects(self, database):
        result = Session(database=database).query(
            parse_formula("{[age: X]}"), against="people"
        )
        assert len(result) == 2

    def test_find_scans_without_index(self, database):
        matches = database.find(parse_object("{[name: peter]}"))
        assert matches == ["people"]

    def test_find_with_index(self, database, genealogy_small):
        database.create_index("family.name")
        matches = database.find(
            parse_object("[family: {[name: abraham]}]"), path="family.name"
        )
        assert matches == ["family_tree"]
        assert "family.name" in database.indexes()

    def test_index_maintained_on_updates(self, database):
        database.create_index("name")
        database.put("one_person", {"name": "zoe"})
        assert database.find(parse_object("[name: zoe]"), path="name") == ["one_person"]
        database.remove("one_person")
        assert database.find(parse_object("[name: zoe]"), path="name") == []

    def test_drop_index(self, database):
        database.create_index("name")
        database.drop_index("name")
        assert database.indexes() == ()


class TestFindOnAnIndexedPath:
    """``find(p, path=...)`` narrows on the atoms ``p`` pins there, else scans."""

    STORED = {
        "x": "[a: 1, b: 1]",
        "y": "[a: 2, b: 1]",
        "z": "[a: [c: 1, d: 2]]",
        "w": "[a: {1, 2, 3}]",
        "v": "[a: {[c: 1, d: 2]}, b: 1]",
    }

    @pytest.mark.parametrize(
        "pattern, expected, counter",
        [
            ("[b: 1]", ["v", "x", "y"], "find_scans"),  # ⊥ at the path
            ("[a: 1, b: 1]", ["x"], "find_path_lookups"),  # an atom
            ("[a: [c: 1]]", ["z"], "find_scans"),  # a tuple sub-object
            ("[a: {1, 2}]", ["w"], "find_path_lookups"),  # a set of atoms
            ("[a: {[c: 1]}]", ["v"], "find_scans"),  # a set of tuples
        ],
    )
    def test_find_on_the_path_equals_the_scan(self, pattern, expected, counter):
        indexed, unindexed = ObjectDatabase(), ObjectDatabase()
        indexed.create_index("a")
        for db in (indexed, unindexed):
            for name, text in self.STORED.items():
                db.put(name, parse_object(text))
        before = indexed.access_stats
        found = indexed.find(parse_object(pattern), path="a")
        assert found == unindexed.find(parse_object(pattern)) == expected
        after = indexed.access_stats
        assert {key: after[key] - before[key] for key in after if after[key] != before[key]} == {
            counter: 1
        }


class TestMissingAgainst:
    """A missing ``against=`` name is a StoreError, not a bare KeyError."""

    def test_query_missing_against(self, database):
        with pytest.raises(StoreError):
            Session(database=database).query("{[name: X]}", against="missing")

    def test_apply_rules_missing_against(self, database):
        rule = parse_rule("[minors: {X}] :- [people: {[name: X, age: 7]}]")
        with pytest.raises(StoreError):
            database.apply_rules(rule, against="missing")

    def test_close_under_missing_against(self, database):
        rule = parse_rule("[doa: {abraham}].")
        with pytest.raises(StoreError):
            database.close_under(rule, against="missing")


class TestBatchCommit:
    def test_commit_batch_applies_writes_and_deletes_together(self, database):
        database.commit_batch({"people": None, "cities": obj(["austin"])})
        assert "people" not in database
        assert database["cities"] == obj(["austin"])

    def test_commit_batch_maintains_indexes(self, database):
        database.create_index("name")
        database.commit_batch(
            {"zoe": obj({"name": "zoe"}), "ann": obj({"name": "ann"})}
        )
        assert database.find(parse_object("[name: zoe]"), path="name") == ["zoe"]
        database.commit_batch({"zoe": None})
        assert database.find(parse_object("[name: zoe]"), path="name") == []

    def test_version_bumps_once_per_batch(self, database):
        before = database.version
        database.commit_batch({"a": obj(1), "b": obj(2), "c": obj(3)})
        assert database.version == before + 1

    def test_removing_an_absent_name_is_a_no_op_commit(self, database):
        before = database.version
        database.remove("missing")
        assert database.version == before

    @pytest.mark.parametrize(
        "bad",
        [{"people": obj(1), "bad": "not-an-object"}, {"people": obj(1), 7: obj(1)}],
        ids=["value", "name"],
    )
    def test_a_batch_with_a_non_object_or_a_non_string_name_changes_nothing(
        self, database, bad
    ):
        before = (database.version, database.snapshot())
        with pytest.raises(StoreError):
            database.commit_batch(bad)
        assert (database.version, database.snapshot()) == before

    def test_compact_requires_a_compactable_engine(self, database):
        with pytest.raises(StoreError):
            database.compact()


class TestRulesAndClosure:
    def test_apply_rules(self, database):
        rule = parse_rule("[minors: {X}] :- [people: {[name: X, age: 7]}]")
        result = database.apply_rules(rule)
        assert result == parse_object("[minors: {john}]")

    def test_close_under_descendants(self, database, genealogy_small):
        rules = [
            parse_rule("[doa: {abraham}]."),
            parse_rule(
                "[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}]"
            ),
        ]
        result = database.close_under(rules, against="family_tree", store_as="descendants")
        names = {element.value for element in result.value.get("doa")}
        assert names == set(genealogy_small.expected_descendants)
        assert "descendants" in database


class TestSchemas:
    PEOPLE_SCHEMA = set_type(
        tuple_type({"name": string(), "age": integer()}, required=["name"])
    )

    def test_declared_schema_validates_existing_object(self, database):
        database.declare_schema("people", self.PEOPLE_SCHEMA)
        assert database.schema_of("people") == self.PEOPLE_SCHEMA

    def test_declaring_a_violated_schema_fails(self, database):
        with pytest.raises(SchemaError):
            database.declare_schema("people", set_type(integer()))

    def test_writes_are_checked(self, database):
        database.declare_schema("people", self.PEOPLE_SCHEMA)
        with pytest.raises(SchemaError):
            database.put("people", [{"name": 42}])
        # A conforming write still succeeds.
        database.put("people", [{"name": "zoe", "age": 1}])

    def test_declared_schemas_last_only_for_the_process(self, tmp_path):
        # The WAL logs objects, not schemas: a reopened store has none.
        path = str(tmp_path / "db.wal")
        with repro.connect(path) as session:
            session.database.declare_schema("xs", set_type(integer()))
            session.put("xs", [1, 2])
            with pytest.raises(SchemaError):
                session.put("xs", parse_object("{a}"))
        with repro.connect(path) as session:
            assert session.database.schema_of("xs") is None
            session.put("xs", parse_object("{a}"))
            assert session.database["xs"] == parse_object("{a}")


class TestUpdates:
    def test_update_path(self, database):
        database.put("doc", {"title": "x", "meta": {"version": 1}})
        database.update("doc", "meta.version", 2)
        assert database["doc"] == obj({"title": "x", "meta": {"version": 2}})

    def test_insert_and_discard_elements(self, database):
        database.insert("people", "", {"name": "zoe", "age": 3})
        assert len(database["people"]) == 3
        database.discard("people", "", {"name": "zoe", "age": 3})
        assert len(database["people"]) == 2

    def test_merge(self, database):
        database.merge("people", [{"name": "ann", "age": 40}])
        assert len(database["people"]) == 3

    def test_merge_creates_missing_objects(self, database):
        database.merge("fresh", {"a": 1})
        assert database["fresh"] == obj({"a": 1})

    def test_update_missing_object_rejected(self, database):
        with pytest.raises(StoreError):
            database.update("missing", "a", 1)
