"""B12 — hash-consing: interned fast paths vs the seed's structural paths.

Three object-level workloads demonstrate what interning buys:

* **deep equality** — comparing two structurally equal deep objects.  The
  interned pair is one instance, so ``==`` is a pointer comparison; the
  structural baseline (raw twins, the seed's code path) compares materialized
  deep sort keys.
* **set reduction** — building a reduced set from elements with redundancy.
  The interned path dedups by identity, prunes the domination scan by
  kind/depth/breadth fingerprints, and hash-conses the result; the baseline
  is the seed's quadratic scan over raw twins.
* **closure sweep** — the Example 4.5 recursive engine workload, whose inner
  loops (match, meet, union, dedup) all ride on interned equality.

Every timed function is also executed once for correctness before timing is
trusted.  ``benchmarks/run_benchmarks.py`` reuses the deep-pair builders
below to emit ``BENCH_core.json``, and the cost ledger's
``core.set_reduction`` cell (``tools/cost_ledger.py``) the reduction ones.
"""

import pytest

from repro import Program
from repro.calculus.fixpoint import close
from repro.core import Atom, ComplexObject, SetObject, TupleObject, intern_stats
from repro.core.order import clear_order_cache, is_subobject, maximal_elements
from repro.workloads import make_genealogy

DEPTHS = [20, 80]
REDUCTION_SIZES = [60, 120]

DESCENDANTS_SOURCE = """
[doa: {abraham}].
[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].
"""


# -- builders (shared with run_benchmarks.py and tools/cost_ledger.py) -----------------
def raw_twin(value: ComplexObject) -> ComplexObject:
    """A structurally equal, non-interned replica built with raw constructors."""
    if isinstance(value, TupleObject):
        return TupleObject.raw({name: raw_twin(child) for name, child in value.items()})
    if isinstance(value, SetObject):
        return SetObject.raw([raw_twin(element) for element in value])
    return value


def make_deep_object(depth: int) -> ComplexObject:
    """A deep tuple/set chain with a little breadth at every level."""
    current: ComplexObject = Atom("leaf")
    for level in range(depth):
        current = TupleObject(a=current, b=Atom(level))
        if level % 3 == 2:
            current = SetObject([current, TupleObject(c=Atom(level))])
    return current


def make_deep_pairs(depth: int):
    """(interned, interned) and (raw twin, raw twin) pairs of one structure.

    The raw twins are distinct instances with pre-warmed sort keys, so the
    structural baseline times exactly what the seed's ``__eq__`` did on every
    equal-but-distinct comparison: the deep key comparison itself.
    """
    interned = make_deep_object(depth)
    first = raw_twin(interned)
    second = raw_twin(interned)
    first.sort_key()
    second.sort_key()
    return (interned, make_deep_object(depth)), (first, second)


def make_reduction_elements(count: int, redundancy: float = 0.5):
    """Flat-ish member tuples plus a fraction of dominated projections."""
    elements = []
    for index in range(count):
        element = TupleObject(
            name=Atom(f"member{index}"),
            age=Atom(index % 97),
            tags=SetObject([Atom(index % 7), Atom("tag")]),
        )
        elements.append(element)
        if index / count < redundancy:
            # A projection of the tuple: dominated, removed by reduction.
            elements.append(element.without("tags"))
    return elements


def seed_reduce(elements):
    """The seed's quadratic `_reduce_elements` (dedup by key, full pair scan)."""
    unique = {}
    for element in elements:
        unique[element.sort_key()] = element
    candidates = list(unique.values())
    kept = []
    for index, element in enumerate(candidates):
        dominated = False
        for other_index, other in enumerate(candidates):
            if index == other_index:
                continue
            if is_subobject(element, other):
                if is_subobject(other, element) and index < other_index:
                    continue
                dominated = True
                break
        if not dominated:
            kept.append(element)
    return kept


def make_closure_program(generations: int = 5, fanout: int = 2) -> Program:
    tree = make_genealogy(generations, fanout)
    return Program.from_source(DESCENDANTS_SOURCE, database=tree.family_object)


# -- deep equality --------------------------------------------------------------------
@pytest.mark.benchmark(group="B12-deep-equality")
@pytest.mark.parametrize("depth", DEPTHS)
def test_deep_equality_interned(benchmark, depth):
    (left, right), _ = make_deep_pairs(depth)
    assert left is right  # hash-consing: same structure, same instance
    assert benchmark(lambda: left == right)


@pytest.mark.benchmark(group="B12-deep-equality")
@pytest.mark.parametrize("depth", DEPTHS)
def test_deep_equality_structural_baseline(benchmark, depth):
    _, (left, right) = make_deep_pairs(depth)
    assert left is not right  # raw twins: the seed's equal-but-distinct case
    assert benchmark(lambda: left == right)


# -- set reduction --------------------------------------------------------------------
@pytest.mark.benchmark(group="B12-reduction")
@pytest.mark.parametrize("count", REDUCTION_SIZES)
def test_set_reduction_interned(benchmark, count):
    elements = make_reduction_elements(count)

    def build():
        clear_order_cache()
        return SetObject(elements)

    result = build()
    assert len(result) == count
    assert result == SetObject(maximal_elements(elements))
    benchmark(build)


@pytest.mark.benchmark(group="B12-reduction")
@pytest.mark.parametrize("count", REDUCTION_SIZES)
def test_set_reduction_seed_baseline(benchmark, count):
    twins = [raw_twin(element) for element in make_reduction_elements(count)]
    for twin in twins:
        twin.sort_key()

    def build():
        clear_order_cache()
        return seed_reduce(twins)

    assert len(build()) == count
    benchmark(build)


# -- engine sweep ---------------------------------------------------------------------
@pytest.mark.benchmark(group="B12-closure")
@pytest.mark.parametrize("arm", ["oracle", "seminaive"])
def test_recursive_closure_sweep(benchmark, arm):
    program = make_closure_program()
    expected = close(program.seed(), program.rules).value

    def run():
        if arm == "oracle":
            return close(program.seed(), program.rules).value
        return program.evaluate().value

    assert run() == expected
    benchmark(run)


def test_intern_table_reports_stats():
    stats = intern_stats()
    assert stats["interned_objects"] > 0
    assert stats["misses"] > 0
