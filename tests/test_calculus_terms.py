"""Unit tests for well-formed formulae (repro.calculus.terms)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.builder import obj
from repro.core.intern import is_interned
from repro.core.objects import BOTTOM, TOP, Atom, SetObject, TupleObject
from repro.calculus.terms import (
    Constant,
    Parameter,
    SetFormula,
    TupleFormula,
    Variable,
    formula,
    var,
)


class TestVariable:
    def test_name_and_variables(self):
        assert var("X").name == "X"
        assert var("X").variables() == {"X"}
        assert not var("X").is_ground

    def test_naming_convention_enforced(self):
        with pytest.raises(ValueError):
            Variable("lowercase")
        with pytest.raises(ValueError):
            Variable("")

    def test_underscore_allowed(self):
        assert Variable("_x").name == "_x"

    def test_equality(self):
        assert var("X") == var("X")
        assert var("X") != var("Y")
        assert hash(var("X")) == hash(var("X"))


class TestConstant:
    def test_wraps_objects(self):
        constant = Constant(obj(5))
        assert constant.is_ground
        assert constant.value == Atom(5)

    def test_rejects_non_objects(self):
        with pytest.raises(TypeError):
            Constant(5)

    def test_to_text(self):
        assert Constant(obj({"a": 1})).to_text() == "[a: 1]"


class TestTupleFormula:
    def test_variables_collected(self):
        tf = TupleFormula({"a": var("X"), "b": Constant(obj(1)), "c": var("Y")})
        assert tf.variables() == {"X", "Y"}

    def test_get_and_attributes(self):
        tf = TupleFormula({"b": var("X"), "a": Constant(obj(1))})
        assert tf.attributes == ("a", "b")
        assert tf.get("b") == var("X")
        assert tf.get("missing") is None

    def test_equality_ignores_attribute_order(self):
        assert TupleFormula({"a": var("X"), "b": var("Y")}) == TupleFormula(
            {"b": var("Y"), "a": var("X")}
        )

    def test_rejects_non_formula_values(self):
        with pytest.raises(TypeError):
            TupleFormula({"a": 1})


class TestSetFormula:
    def test_variables_collected(self):
        sf = SetFormula([var("X"), Constant(obj(2))])
        assert sf.variables() == {"X"}
        assert len(sf) == 2

    def test_element_order_is_part_of_identity(self):
        written = SetFormula([var("X"), Constant(obj(1))])
        assert written is SetFormula([var("X"), Constant(obj(1))])
        assert written is not SetFormula([Constant(obj(1)), var("X")])

    def test_rejects_non_formula_elements(self):
        with pytest.raises(TypeError):
            SetFormula([1])


class TestFormulaBuilder:
    def test_python_literals(self):
        built = formula({"r1": [{"a": var("X"), "b": "b"}]})
        assert isinstance(built, TupleFormula)
        assert built.variables() == {"X"}
        inner = built.get("r1")
        assert isinstance(inner, SetFormula)

    def test_none_becomes_bottom_constant(self):
        built = formula({"a": None})
        assert built.get("a") == Constant(BOTTOM)

    def test_existing_formulae_pass_through(self):
        existing = var("X")
        assert formula(existing) is existing

    def test_objects_become_constants(self):
        assert formula(obj([1, 2])) == Constant(obj([1, 2]))

    def test_ground_formula_flag(self):
        assert formula({"a": 1, "b": [2]}).is_ground
        assert not formula({"a": var("X")}).is_ground

    def test_to_text_matches_parser_notation(self):
        built = formula({"r1": [{"A": var("X"), "B": "b"}]})
        assert built.to_text() == "[r1: {[A: X, B: b]}]"


# -- hash-consing ---------------------------------------------------------------------

#: Constant values, each built afresh per use: raw sets are distinct instances.
_VALUES = (
    lambda: BOTTOM,
    lambda: TOP,
    lambda: Atom(1),
    lambda: Atom("a"),
    lambda: obj({"a": [1, {"b": 2}]}),
    lambda: SetObject([Atom(1)]),
    lambda: SetObject.raw([Atom(1)]),
    lambda: SetObject.raw([BOTTOM, Atom(2), Atom(2)]),
    lambda: obj({"a": [[]]}),
)

_LEAVES = st.one_of(
    st.sampled_from(["X", "Y", "_Z"]).map(lambda name: ("var", name)),
    st.sampled_from(["p", "q"]).map(lambda name: ("param", name)),
    st.integers(0, len(_VALUES) - 1).map(lambda index: ("const", index)),
)

_SPECS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.dictionaries(st.sampled_from("abc"), children, max_size=3).map(
            lambda attributes: ("tuple", tuple(attributes.items()))
        ),
        st.lists(children, max_size=3).map(lambda elements: ("set", tuple(elements))),
    ),
    max_leaves=8,
)


def _build(spec, rnd=None):
    """``(formula, signature)`` for ``spec``; ``rnd`` shuffles every set's elements.

    The signature is the oracle: the ordered structure as written, a
    constant by its value (interned values are equal when identical, raw
    ones structurally).
    """
    kind, payload = spec
    if kind == "var":
        return Variable(payload), spec
    if kind == "param":
        return Parameter(payload), spec
    if kind == "const":
        value = _VALUES[payload]()
        return Constant(value), ("const", is_interned(value), value)
    if kind == "tuple":
        built = {name: _build(child, rnd) for name, child in payload}
        signature = ("tuple", tuple((name, built[name][1]) for name in sorted(built)))
        return TupleFormula({name: node for name, (node, _) in built.items()}), signature
    elements = [_build(child, rnd) for child in payload]
    if rnd is not None:
        rnd.shuffle(elements)
    signature = tuple(inner for _, inner in elements)
    return SetFormula(node for node, _ in elements), ("set", signature)


def _children(signature):
    kind, payload = signature[0], signature[1]
    if kind == "tuple":
        return [child for _, child in payload]
    return list(payload) if kind == "set" else []


def _names(signature):
    """``(variables, parameters)``, recomputed recursively."""
    kind, payload = signature[0], signature[1]
    variables = {payload} if kind == "var" else set()
    parameters = {payload} if kind == "param" else set()
    for child in _children(signature):
        inner = _names(child)
        variables |= inner[0]
        parameters |= inner[1]
    return variables, parameters


def _depth(signature):
    """Container levels, as ``repro.core.objects.nesting_levels`` counts them.

    A constant counts its value's levels, so ``_depth`` is the depth of the
    formula's whole walk.
    """
    if signature[0] == "const":
        return _value_levels(signature[2])
    children = _children(signature)
    return 1 + max(map(_depth, children)) if children else 0


def _value_levels(value):
    if isinstance(value, TupleObject):
        children = [item for _, item in value.items()]
    else:
        children = list(value) if isinstance(value, SetObject) else []
    return 1 + max(map(_value_levels, children)) if children else 0


class TestHashConsing:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_SPECS, min_size=1, max_size=4), st.randoms(use_true_random=False))
    def test_identity_is_ordered_structure(self, specs, rnd):
        built = [_build(spec) for spec in specs] + [_build(spec, rnd) for spec in specs]
        for left, signature in built:
            for right, other in built:
                assert (left is right) == (signature == other)
            variables, parameters = _names(signature)
            assert left.variables() == variables
            assert left.parameters() == parameters
            assert left.is_ground == (not variables)
            assert left._depth == _depth(signature)

    def test_equality_and_hashing_are_identity(self):
        written = TupleFormula(a=var("X"), b=SetFormula([var("Y"), Constant(obj(1))]))
        assert formula({"b": [var("Y"), 1], "a": var("X")}) is written
        for kind in (Variable, Parameter, Constant, TupleFormula, SetFormula):
            assert kind.__eq__ is object.__eq__
            assert kind.__hash__ is object.__hash__

    def test_racing_threads_get_one_instance_per_structure(self):
        import sys
        import threading

        def build(out):
            for index in range(1000):
                element = SetFormula([Variable(f"V{index}"), Parameter(f"p{index % 3}")])
                out.append(TupleFormula(a=element, b=Constant(Atom(index % 5))))

        results = [[] for _ in range(6)]
        threads = [threading.Thread(target=build, args=(out,)) for out in results]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for built in zip(*results):
            assert len({id(node) for node in built}) == 1
