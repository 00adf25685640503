"""``bom_join``: prepared index joins over a flat bill of materials, all plan hits."""

from __future__ import annotations

from typing import Dict

import repro
from repro.core.objects import Atom, SetObject, TupleObject
from repro.relational import algebra
from repro.workloads import make_part_hierarchy

from e2e import expect
from e2e.workloads.base import (
    ProbeInputs,
    ProbeQuery,
    Workload,
    best_of,
    tree_generations,
)

__all__ = ["BomJoin"]

POINT = "[component: {[assembly_id: $a, part_id: P]}, part: {[part_id: P, kind: K, weight: W]}]"
ANALYTIC = "[component: {[assembly_id: A, part_id: P]}, part: {[part_id: P, kind: $k, weight: W]}]"
KINDS = ("assembly", "leaf")
#: The analytic join the timed scans run: every leaf with its assembly.
SCANNED = "leaf"


def _relation_object(relation) -> SetObject:
    return SetObject(
        TupleObject({name: Atom(value) for name, value in row.items()})
        for row in relation.to_dicts()
    )


def _analytic_rows(cursor):
    return [(row["A"].value, row["P"].value, row["W"].value) for row in cursor.bindings()]


class BomJoin(Workload):
    """Point joins by ``$a`` (the op) and analytic joins by ``$k``; nothing commits.

    Read-only, so every execution is a plan-cache hit and the WAL holds what
    the set-up put there.
    """

    name = "bom_join"
    SETUPS = 10  # a third of a second each

    def __init__(self, seed, scale, seconds, directory):
        super().__init__(seed, scale, seconds, directory)
        self.levels = tree_generations(scale, 1093)
        self.hierarchy = make_part_hierarchy(self.levels, 3, rng=seed)
        flat = self.hierarchy.flat_database
        self.objects = {name: _relation_object(flat[name]) for name in ("part", "component")}
        self.by_assembly, self.by_kind = expect.bom_rows(flat)
        self.ops = self.count(2000, floor=20)
        # Four point joins in five ask for an assembly (three rows), one for a
        # leaf (⊥): a fixed share, so the mean does not move with the seed.
        assemblies = sorted(self.by_assembly)
        leaves = sorted(
            row["part_id"] for row in flat["part"].to_dicts() if row["kind"] == "leaf"
        )
        self.targets = [
            self.rng.choice(leaves if index % 5 == 4 else assemblies)
            for index in range(self.ops)
        ]
        self.analytic = self.count(30, floor=2)

    def setup(self) -> None:
        session = self.session = repro.connect(self.wal_path)
        for name, value in self.objects.items():
            session.put(name, value)
        self.loaded = list(self.objects.values())
        self.point = session.prepare(POINT)
        self.scan = session.prepare(ANALYTIC)
        self.point.execute(a=self.hierarchy.root_id).all()
        for kind in KINDS:
            _analytic_rows(self.scan.execute(k=kind))

    def run(self, clock) -> None:
        every = max(1, self.ops // self.analytic)
        wanted = self.by_kind[SCANNED]
        for index in range(self.ops):
            assembly = self.targets[index]
            clock.step(
                "op",
                lambda: self.point.execute(a=assembly).all(),
                check=lambda answer: expect.part_rows(answer)
                == self.by_assembly.get(assembly, set()),
            )
            if index % every == 0:
                clock.side(
                    "scan",
                    lambda: _analytic_rows(self.scan.execute(k=SCANNED)),
                    check=lambda rows: len(rows) == len(wanted) and set(rows) == wanted,
                )
            if index % 20 == 0:
                clock.side(
                    "first_row",
                    lambda: self.scan.execute(k=SCANNED).one(),
                    check=lambda row: len(expect.part_rows(row)) == 1
                    and next(iter(expect.part_rows(row)))[1] == SCANNED,
                )

    def first_read(self):
        return self.session.prepare(POINT).execute(a=self.hierarchy.root_id).all()

    def check_reopened(self, answer) -> bool:
        return expect.part_rows(answer) == self.by_assembly[self.hierarchy.root_id]

    def probe_inputs(self) -> ProbeInputs:
        database = self.session.database.as_object()
        flat = self.hierarchy.flat_database
        return ProbeInputs(
            queries=[
                ProbeQuery(POINT, {"a": self.hierarchy.root_id}, database),
                ProbeQuery(ANALYTIC, {"k": "assembly"}, database),
            ],
            database=database,
            written=list(self.objects.values()),
            build=lambda: [_relation_object(flat[name]) for name in ("part", "component")],
        )

    def comparisons(self) -> Dict[str, float]:
        """The nested-vs-flat number: the relational equijoin beside the calculus join."""
        flat = self.hierarchy.flat_database
        part = algebra.rename(flat["part"], {"part_id": "pid"})
        relational, joined = best_of(
            lambda: algebra.equijoin(flat["component"], part, [("part_id", "pid")])
        )
        with repro.connect() as session:
            for name, value in self.objects.items():
                session.put(name, value)
            query = session.prepare(
                "[component: {[assembly_id: A, part_id: P]},"
                " part: {[part_id: P, kind: K, weight: W]}]"
            )
            calculus, rows = best_of(lambda: sum(1 for _ in query.execute().bindings()))
        if rows != len(joined.rows):
            raise AssertionError("the calculus join and the relational join disagree")
        values = super().comparisons()
        values["relational.join_ratio"] = relational / calculus
        return values
