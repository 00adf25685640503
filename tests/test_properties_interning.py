"""Property-based guarantees for the hash-consed object universe.

Interning is a pure representation change: every observable of the paper's
semantics — Definition 2.2 equality, the Theorem 3.1–3.3 sub-object order,
the lattice meet/join of Theorems 3.4–3.6, and closure evaluation — must be
identical whether an object is the canonical interned instance or a raw
structural twin built through the ``.raw`` constructors (the seed's code
path).  Hypothesis drives both representations through the same operations
and demands agreement, plus the uniqueness invariant itself: structurally
equal normalized constructions yield the *same instance*.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tests.conftest import atoms, complex_objects  # noqa: E402

from repro import Program  # noqa: E402
from repro.core import (  # noqa: E402
    Atom,
    ComplexObject,
    SetObject,
    TupleObject,
    clear_object_caches,
    intersection,
    is_interned,
    is_subobject,
    maximal_elements,
    union,
)
from repro.calculus.fixpoint import close  # noqa: E402
from repro.workloads import make_genealogy  # noqa: E402


def raw_twin(value: ComplexObject) -> ComplexObject:
    """Rebuild ``value`` through the raw constructors: equal, never interned.

    Atoms and the ⊥/⊤ singletons are interned by definition; the composite
    layers above them are where the raw/interned distinction lives.
    """
    if isinstance(value, TupleObject):
        return TupleObject.raw({name: raw_twin(child) for name, child in value.items()})
    if isinstance(value, SetObject):
        return SetObject.raw([raw_twin(element) for element in value])
    return value


class TestUniquenessInvariant:
    @given(complex_objects())
    def test_everything_from_default_constructors_is_interned(self, value):
        assert is_interned(value)

    @given(complex_objects())
    def test_structurally_equal_means_same_instance(self, value):
        # Rebuilding the same structure from scratch converges on the same
        # canonical instance...
        if isinstance(value, TupleObject):
            rebuilt = TupleObject(dict(value.items()))
        elif isinstance(value, SetObject):
            rebuilt = SetObject(list(value))
        elif isinstance(value, Atom):
            rebuilt = Atom(value.value)
        else:
            rebuilt = value
        assert rebuilt is value

    @given(complex_objects(), complex_objects())
    def test_equality_is_identity_on_interned(self, left, right):
        assert (left == right) == (left is right)

    @given(complex_objects(), complex_objects())
    def test_antisymmetry_collapses_to_identity(self, left, right):
        if is_subobject(left, right) and is_subobject(right, left):
            assert left is right


class TestDefinition22Preservation:
    @given(complex_objects())
    def test_raw_twin_is_equal_but_not_interned(self, value):
        twin = raw_twin(value)
        assert twin == value and value == twin
        assert hash(twin) == hash(value)
        if isinstance(value, (TupleObject, SetObject)):
            assert not is_interned(twin)

    @given(complex_objects(), complex_objects())
    def test_cross_representation_equality_agrees(self, left, right):
        assert (raw_twin(left) == right) == (left == right)
        assert (left == raw_twin(right)) == (left == right)


class TestOrderPreservation:
    @given(complex_objects(), complex_objects())
    def test_subobject_agrees_with_raw_path(self, left, right):
        expected = is_subobject(raw_twin(left), raw_twin(right))
        assert is_subobject(left, right) == expected

    @given(complex_objects(), complex_objects())
    def test_subobject_survives_cache_clears(self, left, right):
        warm = is_subobject(left, right)
        clear_object_caches()
        assert is_subobject(left, right) == warm

    @given(st.lists(complex_objects(max_depth=2), max_size=6))
    def test_maximal_elements_match_quadratic_reference(self, items):
        def reference(objects):
            unique = list(dict.fromkeys(objects))
            kept = []
            for index, candidate in enumerate(unique):
                dominated = False
                for other_index, other in enumerate(unique):
                    if index == other_index:
                        continue
                    if is_subobject(candidate, other) and not (
                        is_subobject(other, candidate) and index < other_index
                    ):
                        dominated = True
                        break
                if not dominated:
                    kept.append(candidate)
            return kept

        assert maximal_elements(items) == reference(items)


class TestLatticePreservation:
    @given(complex_objects(max_depth=2), complex_objects(max_depth=2))
    def test_union_agrees_with_raw_path(self, left, right):
        assert union(left, right) == union(raw_twin(left), raw_twin(right))

    @given(complex_objects(max_depth=2), complex_objects(max_depth=2))
    def test_intersection_agrees_with_raw_path(self, left, right):
        assert intersection(left, right) == intersection(raw_twin(left), raw_twin(right))

    @given(complex_objects(max_depth=2), complex_objects(max_depth=2))
    def test_interned_lattice_results_are_canonical(self, left, right):
        # Meet and join of interned operands come back interned, so the
        # commutativity laws hold by identity, memoized or not.
        assert union(left, right) is union(right, left)
        assert intersection(left, right) is intersection(right, left)


DESCENDANTS_RULES = """
[doa: {abraham}].
[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].
"""


class TestClosurePreservation:
    @settings(deadline=None, max_examples=20)
    @given(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=3),
    )
    def test_closure_identical_from_raw_and_interned_databases(self, generations, fanout):
        tree = make_genealogy(generations, fanout)
        interned_program = Program.from_source(
            DESCENDANTS_RULES, database=tree.family_object
        )
        raw_program = Program.from_source(
            DESCENDANTS_RULES, database=raw_twin(tree.family_object)
        )
        expected = close(interned_program.seed(), interned_program.rules).value
        assert close(raw_program.seed(), raw_program.rules).value == expected
        assert interned_program.evaluate().value == expected
        assert raw_program.evaluate().value == expected

    @settings(deadline=None, max_examples=10)
    @given(st.integers(min_value=1, max_value=3))
    def test_close_agrees_across_cache_lifecycles(self, fanout):
        tree = make_genealogy(2, fanout)
        program = Program.from_source(DESCENDANTS_RULES, database=tree.family_object)
        rules = program.rules
        warm = close(program.seed(), rules).value
        clear_object_caches()
        cold = close(program.seed(), rules).value
        assert cold is warm  # interned closures are canonical instances
