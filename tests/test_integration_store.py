"""End-to-end integration tests: store + schema + calculus + algebra together."""

import pytest

from repro import Session, parse_formula, parse_object, parse_rule
from repro.core.builder import obj
from repro.algebra.translate import translate_rule
from repro.schema.inference import infer_type
from repro.store.database import ObjectDatabase
from repro.store.storage import FileStorage
from repro.workloads import make_document_collection, make_genealogy, make_join_workload


class TestDeductiveStoreWorkflow:
    """Store a genealogy, derive descendants, persist and reload the result."""

    def test_full_cycle(self, tmp_path):
        tree = make_genealogy(3, 2)
        path = str(tmp_path / "db.jsonl")
        database = ObjectDatabase(FileStorage(path))
        database.put("family_tree", tree.family_object)
        database.declare_schema("family_tree", infer_type(tree.family_object))

        rules = [
            parse_rule("[doa: {abraham}]."),
            parse_rule(
                "[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}]"
            ),
        ]
        result = database.close_under(rules, against="family_tree", store_as="descendants")
        names = {element.value for element in result.value.get("doa")}
        assert names == set(tree.expected_descendants)
        database.close()

        reopened = ObjectDatabase(FileStorage(path))
        stored = reopened["descendants"]
        assert {element.value for element in stored.get("doa")} == set(
            tree.expected_descendants
        )
        reopened.close()


class TestDocumentStoreWorkflow:
    """Documents: schema inference, indexed search, query, update, transaction."""

    @pytest.fixture
    def documents_db(self):
        database = ObjectDatabase()
        collection = make_document_collection(8, 3, 3, rng=4)
        database.put("library", collection)
        return database, collection

    def test_inferred_schema_accepts_future_conforming_writes(self, documents_db):
        database, collection = documents_db
        database.declare_schema("library", infer_type(collection))
        # Re-writing the same object conforms trivially.
        database.put("library", collection)

    def test_indexed_title_lookup(self, documents_db):
        database, _ = documents_db
        database.create_index("docs.title")
        matches = database.find(parse_object("[docs: {[title: doc3]}]"), path="docs.title")
        assert matches == ["library"]

    def test_keyword_query_via_calculus(self, documents_db):
        database, collection = documents_db
        result = Session(database=database).query(
            "[docs: {[title: X, sections: {[keywords: {lattice}]}]}]", against="library"
        )
        titles = set()
        if not result.is_bottom:
            titles = {doc.get("title").value for doc in result.get("docs")}
        # Cross-check against a direct scan of the generated collection.
        expected = set()
        for document in collection.get("docs"):
            for section in document.get("sections"):
                if obj("lattice") in section.get("keywords"):
                    expected.add(document.get("title").value)
        assert titles == expected

    def test_transactional_update(self, documents_db):
        database, _ = documents_db
        with database.transaction() as txn:
            txn.put("catalog", obj({"count": 8}))
        assert database["catalog"] == obj({"count": 8})


class TestCalculusAlgebraStoreAgreement:
    def test_translated_plan_matches_rule_on_stored_data(self):
        workload = make_join_workload(60, join_domain=10, rng=3)
        database = ObjectDatabase()
        database.put("r1", workload.as_object.get("r1"))
        database.put("r2", workload.as_object.get("r2"))
        rule = parse_rule("[r: {[a: X, d: Z]}] :- [r1: {[a: X, b: Y]}, r2: {[c: Y, d: Z]}]")
        whole = database.as_object()
        assert translate_rule(rule).apply(whole) == rule.apply(whole)

    def test_query_facade_matches_direct_interpretation(self):
        from repro.calculus.interpretation import interpret

        workload = make_join_workload(40, join_domain=6, rng=9)
        database = ObjectDatabase()
        database.put("r1", workload.as_object.get("r1"))
        database.put("r2", workload.as_object.get("r2"))
        query = parse_formula("[r1: {[a: X, b: Y]}, r2: {[c: Y, d: Z]}]")
        answer = Session(database=database).query(query)
        assert answer == interpret(query, database.as_object())
