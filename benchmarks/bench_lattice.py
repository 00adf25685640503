"""B2 — cost of union (lub) and intersection (glb) vs object size.

Union and intersection (Definitions 3.4–3.5) are the workhorses of rule
application: every contribution to ``r(O)`` is folded in with a union, and
every shared-variable constraint is merged with an intersection.  The sweep
measures both operations on relation-shaped set objects of growing
cardinality, plus the union of two *disjoint* relations (the worst case for
the reduction step, since nothing collapses).

The ``B2-union-all`` group times the n-ary join of ``r(O)`` (Definition 4.4)
on the three shapes its design answers to: ``k`` one-element ``[doa: {p}]``
heads (a semi-naive round's differential), a large set joined with a few
small ones, and disjoint relations.  Every call starts from cold memo tables,
so the join itself is timed, not its memo.
"""

import pytest

from repro.core.intern import clear_object_caches
from repro.core.lattice import intersection, union, union_all
from repro.core.objects import Atom, SetObject, TupleObject
from repro.relational.bridge import relation_to_object
from repro.workloads import make_relation

UNION_SIZES = [25, 100, 400]
INTERSECTION_SIZES = [25, 100]


def _overlapping_pair(rows: int):
    shared = relation_to_object(make_relation(rows, value_domain=10, rng=7))
    left_extra = relation_to_object(make_relation(rows // 2, value_domain=10, rng=8))
    right_extra = relation_to_object(make_relation(rows // 2, value_domain=10, rng=9))
    return union(shared, left_extra), union(shared, right_extra)


@pytest.mark.benchmark(group="B2-union")
@pytest.mark.parametrize("rows", UNION_SIZES)
def test_union_overlapping(benchmark, rows):
    left, right = _overlapping_pair(rows)
    result = benchmark(union, left, right)
    assert len(result) >= rows


@pytest.mark.benchmark(group="B2-union")
@pytest.mark.parametrize("rows", UNION_SIZES)
def test_union_disjoint(benchmark, rows):
    left = relation_to_object(make_relation(rows, key_attribute="a", rng=1))
    right = relation_to_object(make_relation(rows, key_attribute="c", rng=2))
    result = benchmark(union, left, right)
    assert len(result) == 2 * rows


@pytest.mark.benchmark(group="B2-intersection")
@pytest.mark.parametrize("rows", INTERSECTION_SIZES)
def test_intersection_overlapping(benchmark, rows):
    left, right = _overlapping_pair(rows)
    result = benchmark(intersection, left, right)
    assert len(result) >= 1


def _cold_union_all(operands):
    clear_object_caches()
    return union_all(operands)


@pytest.mark.benchmark(group="B2-union-all")
@pytest.mark.parametrize("heads", [50, 500])
def test_union_all_singleton_heads(benchmark, heads):
    operands = [TupleObject({"doa": SetObject([Atom(f"p{i}")])}) for i in range(heads)]
    result = benchmark(_cold_union_all, operands)
    assert len(result.get("doa")) == heads


@pytest.mark.benchmark(group="B2-union-all")
def test_union_all_large_with_small(benchmark):
    def pair(tag, number):
        return SetObject([Atom(f"{tag}{number}"), Atom(f"{tag}'{number}")])

    large = SetObject([pair("a", number) for number in range(1000)])
    small = [SetObject([pair(tag, 0)]) for tag in "xyz"]
    result = benchmark(_cold_union_all, [large] + small)
    assert len(result) == 1003


@pytest.mark.benchmark(group="B2-union-all")
def test_union_all_disjoint_relations(benchmark):
    relations = [
        SetObject(
            TupleObject({"key": Atom(1000 * r + i), "value": Atom(f"v{i % 10}")})
            for i in range(250)
        )
        for r in range(4)
    ]
    result = benchmark(_cold_union_all, relations)
    assert len(result) == 1000
