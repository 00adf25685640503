"""Unit tests for the ObjectDatabase facade (repro.store.database)."""

import pytest

import repro
from repro import Session, is_subobject, parse_formula, parse_object, parse_rule
from repro.core.builder import obj, set_of, tup
from repro.core.errors import SchemaError, StoreError
from repro.schema import check_object
from repro.schema.types import integer, set_type
from repro.store.database import ObjectDatabase
from repro.store.storage import FileStorage


def _nested(depth, wrap):
    value = obj(1)
    for _ in range(depth):
        value = wrap(value)
    return value


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

    def test_find_a_nested_pattern(self, database, genealogy_small):
        matches = database.find(parse_object("[family: {[name: abraham]}]"))
        assert matches == ["family_tree"]

    def test_find_follows_updates(self, database):
        database.put("one_person", {"name": "zoe"})
        assert database.find(parse_object("[name: zoe]")) == ["one_person"]
        database.remove("one_person")
        assert database.find(parse_object("[name: zoe]")) == []

    def test_find_sees_a_transaction_only_once_it_commits(self, database):
        pattern = parse_object("[name: zoe]")
        with database.transaction() as transaction:
            transaction.put("one_person", obj({"name": "zoe"}))
            assert database.find(pattern) == []
        assert database.find(pattern) == ["one_person"]

    def test_find_takes_a_pattern_and_no_path(self, database):
        with pytest.raises(TypeError):
            database.find(parse_object("[name: peter]"), path="name")

    def test_find_after_reopening_reads_the_recovered_objects(self, tmp_path):
        path = str(tmp_path / "db.wal")
        db = ObjectDatabase(FileStorage(path))
        db.put("a", parse_object("[tag: {red, blue}]"))
        db.put("b", parse_object("[tag: {red}]"))
        db.put("c", parse_object("[tag: {blue}]"))
        db.remove("c")
        db.close()
        reopened = ObjectDatabase(FileStorage(path))
        try:
            assert reopened.find(parse_object("[tag: {red}]")) == ["a", "b"]
            assert reopened.find(parse_object("[tag: {blue}]")) == ["a"]
        finally:
            reopened.close()

    def test_find_after_compacting_and_reopening_is_unchanged(self, tmp_path):
        path = str(tmp_path / "db.wal")
        db = ObjectDatabase(FileStorage(path))
        for version in range(3):
            db.put("x", parse_object(f"[n: {version}, tag: {{t}}]"))
        db.put("y", parse_object("[tag: {t}]"))
        pattern = parse_object("[tag: {t}]")
        before = db.find(pattern)
        db.compact()
        db.close()
        reopened = ObjectDatabase(FileStorage(path))
        try:
            assert reopened.find(pattern) == before == ["x", "y"]
            assert reopened.find(parse_object("[n: 2]")) == ["x"]
        finally:
            reopened.close()


class TestFindEqualsTheScan:
    """``find(p)`` names the stored objects ``p`` is a sub-object of, in one scan."""

    STORED = {
        "x": "[a: 1, b: 1]",
        "y": "[a: 2, b: 1]",
        "z": "[a: [c: 1, d: 2]]",
        "w": "[a: {1, 2, 3}]",
        "v": "[a: {[c: 1, d: 2]}, b: 1]",
    }

    @pytest.mark.parametrize(
        "pattern, expected",
        [
            ("[b: 1]", ["v", "x", "y"]),  # ⊥ at a
            ("[a: 1, b: 1]", ["x"]),  # an atom
            ("[a: [c: 1]]", ["z"]),  # a tuple sub-object
            ("[a: {1, 2}]", ["w"]),  # a set of atoms
            ("[a: {[c: 1]}]", ["v"]),  # a set of tuples
        ],
    )
    def test_find_equals_the_scan(self, pattern, expected):
        db = ObjectDatabase()
        for name, text in self.STORED.items():
            db.put(name, parse_object(text))
        before = db.access_stats
        found = db.find(parse_object(pattern))
        scan = [name for name in db.names() if is_subobject(parse_object(pattern), db[name])]
        assert found == scan == expected
        after = db.access_stats
        assert {key: after[key] - before[key] for key in after if after[key] != before[key]} == {
            "find_scans": 1
        }

    def test_deep_puts_keep_find_equal_to_the_scan(self):
        old = parse_object("[a: 1]")
        deep_tuple = _nested(2500, lambda inner: tup(a=inner))
        deep_set = tup(a=_nested(3000, set_of))
        db = ObjectDatabase()
        db.put("q", old)
        db.put("q", deep_tuple)
        db.put("s", deep_set)
        for pattern in (old, deep_tuple, deep_set, parse_object("[a: 2]")):
            assert db.find(pattern) == [
                name for name in db.names() if is_subobject(pattern, db[name])
            ]
        assert db.find(deep_tuple) == ["q"]


class TestMissingAgainst:
    """A missing ``against=`` name is a StoreError, not a bare KeyError."""

    def test_query_missing_against(self, database):
        with pytest.raises(StoreError):
            Session(database=database).query("{[name: X]}", against="missing")

    def test_execute_missing_against_raises_before_a_row(self, database):
        with pytest.raises(StoreError, match="missing"):
            Session(database=database).execute("{[name: X]}", against="missing")

    def test_explain_missing_against(self, database):
        with pytest.raises(StoreError, match="missing"):
            Session(database=database).explain("{[name: X]}", against="missing")


class TestBatchCommit:
    def test_commit_batch_applies_writes_and_deletes_together(self, database):
        database.commit_batch({"people": None, "cities": obj(["austin"])})
        assert "people" not in database
        assert database["cities"] == obj(["austin"])

    def test_find_sees_each_committed_batch(self, database):
        database.commit_batch(
            {"zoe": obj({"name": "zoe"}), "ann": obj({"name": "ann"})}
        )
        assert database.find(parse_object("[name: zoe]")) == ["zoe"]
        database.commit_batch({"zoe": None})
        assert database.find(parse_object("[name: zoe]")) == []

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
    """The store evaluates no rules: a session closes a stored object, ``put`` keeps it."""

    def test_a_closed_stored_object_is_stored_with_put(self, database, genealogy_small):
        rules = [
            parse_rule("[doa: {abraham}]."),
            parse_rule(
                "[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}]"
            ),
        ]
        result = Session(seed=database["family_tree"], rules=rules).close()
        database.put("descendants", result.value)
        names = {element.value for element in result.value.get("doa")}
        assert names == set(genealogy_small.expected_descendants)
        assert database["descendants"] == result.value

    def test_the_store_has_no_rule_evaluation(self):
        for name in ("apply_rules", "close_under"):
            assert not hasattr(ObjectDatabase, name)
            assert not hasattr(Session, name)


class TestUntypedStore:
    """The store keeps objects, not types: ``repro.schema`` is a library run before a write."""

    def test_the_store_has_no_schema_registry(self, database):
        for name in ("declare_schema", "schema_of"):
            assert not hasattr(ObjectDatabase, name)
        assert not hasattr(database, "_schemas")

    def test_a_checked_write_in_transact_lands_nothing(self, tmp_path):
        path = str(tmp_path / "db.wal")
        numbers = set_type(integer())

        def work(txn):
            for name, value in (("a", parse_object("{1}")), ("b", parse_object("{x}"))):
                check_object(value, numbers, strict=True)
                txn.put(name, value)

        with repro.connect(path) as session:
            with pytest.raises(SchemaError, match="expected a int atom"):
                session.transact(work)
            assert session.database.snapshot() == {}
        with repro.connect(path) as session:
            assert session.database.snapshot() == {}


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
