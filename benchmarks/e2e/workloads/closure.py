"""The two Example 4.5 workloads: closure from scratch, and after one small write."""

from __future__ import annotations

import os
from typing import Dict

import repro
from repro.calculus.fixpoint import close as calculus_close
from repro.core.objects import Atom, SetObject, TupleObject
from repro.datalog.engine import DatalogEngine
from repro.parser import parse_program
from repro.workloads import make_genealogy

from e2e import expect
from e2e.workloads.base import ProbeInputs, ProbeQuery, Workload, best_of, tree_generations

__all__ = ["ClosureAfterWrite", "GenealogyClosure"]

#: People at ``--scale 1``: ``make_genealogy(5, 3)``.  The closure is
#: super-linear in them (85 ms here, 570 ms at the 1 093 of ``--scale 3``), and
#: a run affords many 85 ms ops where it afforded ten of 570 ms — which is
#: what makes the median of these two workloads repeat.
PEOPLE = 364

RULES = "[doa: {%s}]. [doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}]."
DESCENDANTS = "[doa: X]"
MEMBER = "[doa: {$who}]"


class _Genealogy(Workload):
    """The generated tree and the probe inputs both workloads hand to the layers."""

    def __init__(self, seed, scale, seconds, directory):
        super().__init__(seed, scale, seconds, directory)
        # The tree's shape is fixed by the scale; the seed names its root (and,
        # in closure_after_write, picks where the new leaves go).
        self.generations = tree_generations(scale, PEOPLE)
        self.tree = make_genealogy(self.generations, 3, root=f"r{seed % 9973}")
        self.family = self.tree.family_object.get("family")
        self.rules_text = RULES % self.tree.root
        self.edges = set(self.tree.parent_of)

    def first_read(self):
        return self.session.get("family")

    def probe_inputs(self) -> ProbeInputs:
        family = self.session.get("family")
        database = TupleObject({"family": family})
        closure = self.session.close().value
        return ProbeInputs(
            queries=[ProbeQuery(DESCENDANTS, {}, closure)],
            rules_text=self.rules_text,
            database=database,
            written=[family],
            cold_caches=True,
            build=lambda: make_genealogy(self.generations, 3, root=self.tree.root),
            union_objects=[
                TupleObject({"doa": SetObject([Atom(person)])}) for person in self.tree.people
            ],
        )


class GenealogyClosure(_Genealogy):
    """Fresh session → put → register → close() → ``[doa: X]`` on the closure."""

    name = "genealogy_closure"

    def __init__(self, seed, scale, seconds, directory):
        super().__init__(seed, scale, seconds, directory)
        self.ops = self.count(100, floor=2)
        self.expected = set(self.tree.expected_descendants)

    def setup(self) -> None:
        self._cold_op("warm")
        self.loaded = [self.family]

    def _cold_op(self, label):
        self.discard()
        self.wal_path = os.path.join(self.directory, f"{label}.wal")
        session = self.session = repro.connect(self.wal_path)
        session.put("family", self.family)
        session.register(self.rules_text)
        session.close()
        return session.prepare(DESCENDANTS, on_closure=True).execute().all()

    def _is_closure(self, answer) -> bool:
        return expect.atom_values(answer, "doa") == self.expected

    def run(self, clock) -> None:
        for index in range(self.ops):
            self.discard()
            # Ops are i.i.d.: no memoised sub-object/union result survives.
            repro.clear_object_caches()
            self.wrote(self.family)
            clock.step("op", lambda: self._cold_op(f"op{index}"), check=self._is_closure)

    def check_reopened(self, value) -> bool:
        return value == self.family

    def comparisons(self) -> Dict[str, float]:
        """Down-scaled (121 people): the Definition 4.6 oracle and flat Datalog."""
        small = make_genealogy(min(4, self.generations), 3)
        rules = parse_program(RULES % small.root)
        descendants = set(small.expected_descendants)

        def fast_path():
            with repro.connect() as session:
                session.put("family", small.family_object.get("family"))
                session.register(rules)
                return session.close().value

        fast, closure = best_of(fast_path)
        oracle, literal = best_of(lambda: calculus_close(small.family_object, rules).value)
        datalog, facts = best_of(lambda: DatalogEngine(small.datalog_program).query("doa"))
        agree = (
            expect.atom_values(closure, "doa") == descendants
            and expect.atom_values(literal, "doa") == descendants
            and {row[0] for row in facts} == descendants
        )
        if not agree:
            raise AssertionError("the closure, its oracle and Datalog disagree")
        values = super().comparisons()
        values["calculus.oracle_ratio"] = oracle / fast
        values["datalog.closure_ratio"] = datalog / fast
        return values


class ClosureAfterWrite(_Genealogy):
    """One long-lived session: insert a leaf, re-close, ask whether it descends."""

    name = "closure_after_write"
    REOPENS = 10  # each replays one whole family per write

    def __init__(self, seed, scale, seconds, directory):
        super().__init__(seed, scale, seconds, directory)
        self.ops = self.count(100, floor=2)
        self.people = list(self.tree.people)
        self.person = {
            element.get("name").value: element for element in self.family.elements
        }
        self.descendants = set(self.tree.expected_descendants)
        self.inserted = 0
        self.rederived = 0.0

    def setup(self) -> None:
        session = self.session = repro.connect(self.wal_path)
        session.put("family", self.family)
        self.loaded = [self.family]
        session.register(self.rules_text)
        session.close()
        self.member = session.prepare(MEMBER, on_closure=True)
        self.member.execute(who=self.tree.root).all()

    def _next_leaf(self):
        """Seeded: the new person, their parent's old and new tuples (untimed)."""
        parent = self.rng.choice(self.people)
        child = f"n{self.inserted}"
        self.inserted += 1
        old = self.person[parent]
        grown = old.replace(
            children=old.get("children").add(TupleObject({"name": Atom(child)}))
        )
        leaf = TupleObject({"name": Atom(child), "children": SetObject()})
        # The model kept beside the store: plain Python, updated before the op.
        self.person[parent], self.person[child] = grown, leaf
        self.people.append(child)
        self.edges.add((parent, child))
        if parent in self.descendants:
            self.descendants.add(child)
        return child, old, grown, leaf

    def _insert_and_ask(self, clock, child, old, grown, leaf):
        part = clock.part
        session = self.session

        def work(txn):
            family = txn.get("family")
            txn.put("family", family.discard(old).add(grown).add(leaf))

        def reclose_and_ask():
            session.close()
            return self.member.execute(who=child).all()

        part("write", lambda: session.transact(work))
        return child, part("read", reclose_and_ask)

    def _descends(self, outcome) -> bool:
        child, answer = outcome
        closure = self.session.close()  # cached: the op just computed it
        stats = self.session.stats()["closure"]
        if stats is not None and stats.subobjects_derived:
            # One new fact was derivable; everything else was derived again.
            self.rederived = (stats.subobjects_derived - 1) / stats.subobjects_derived
        return (
            expect.atom_values(answer, "doa") == ({child} & self.descendants)
            and expect.atom_values(closure.value, "doa") == self.descendants
        )

    def run(self, clock) -> None:
        for _ in range(self.ops):
            leaf_inputs = self._next_leaf()
            self.wrote(leaf_inputs[3])
            clock.step(
                "op", lambda: self._insert_and_ask(clock, *leaf_inputs), check=self._descends
            )

    def check_reopened(self, value) -> bool:
        return expect.edges(value) == self.edges and len(value.elements) == len(self.people)

    def counters(self) -> Dict[str, float]:
        values = super().counters()
        values["engine.rederived_share"] = self.rederived
        return values
