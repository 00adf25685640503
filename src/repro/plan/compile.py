"""The rule-body compiler: formulae → logical plans.

``compile_body`` flattens a body (or query) formula's *spine* — the part
reachable through tuple attributes — into the conjunction of leaves described
in :mod:`repro.plan.ir`:

* each element of a set formula on the spine becomes a :class:`ScanLeaf`
  carrying its usable index keys (static ground atoms and dynamic variables,
  via :func:`repro.plan.indexes.element_keys`);
* a spine variable becomes a :class:`BindLeaf`, a spine constant a
  :class:`ConstLeaf`, an empty tuple/set formula a :class:`CheckLeaf`.

Everything *below* a set element belongs to the witness and is matched
recursively by the executor, exactly as the baseline matcher does.
Compilation is pure and cached on the (immutable, hashable) formula.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

from repro.calculus.terms import (
    Constant,
    Formula,
    Parameter,
    SetFormula,
    TupleFormula,
    Variable,
)
from repro.core.lattice import intersection
from repro.core.objects import TOP, Atom, TupleObject
from repro.core.order import is_subobject
from repro.core.paths import Path
from repro.plan.indexes import element_keys
from repro.plan.ir import BindLeaf, BodyPlan, CheckLeaf, ConstLeaf, Leaf, ParamLeaf, ScanLeaf

__all__ = [
    "compile_body",
    "compile_element_matcher",
    "parameter_keys",
    "split_element_keys",
]

_ROOT = Path(())

#: The shared "matches, binds nothing" answer of compiled predicates.
#: Returned dicts are read-only by contract — callers copy before merging.
_NO_BINDINGS: dict = {}


@lru_cache(maxsize=4096)  # cached per element formula, shared across plans
def compile_element_matcher(element: Formula):
    """Compile one scan-leaf element formula into a closure, or ``None``.

    The closure takes a single witness object and returns its derivation-
    maximal binding as a plain dict (``None`` for a non-match) — byte-for-byte
    the answer ``_Executor._match_witness`` computes by interpretation, for
    the formula shapes where that answer is always zero-or-one substitutions:

    * a :class:`Variable` binds the witness;
    * a :class:`Constant` is a subobject test (identity fast path first,
      since interned equal objects are identical);
    * a :class:`TupleFormula` whose children all compile merges the child
      bindings, intersecting (lattice glb) on repeated variables.

    :class:`SetFormula` elements (nested alternative structure — genuinely
    multi-valued) and :class:`Parameter` elements (must be bound before
    execution) return ``None``: the executor falls back to interpretation.

    ⊤ witnesses short-circuit at every level to the subtree's variables all
    bound to ⊤, mirroring the interpreter's dominance rule.  The cache is
    keyed on the (interned, hashable) formula, so prepared-plan re-execution
    pays zero recompilation; ``compile_element_matcher.cache_info()`` exposes
    the hit counts.
    """
    if isinstance(element, Variable):
        name = element.name

        def match_variable(witness, _name=name):
            return {_name: witness}

        return match_variable
    if isinstance(element, Constant):
        value = element.value

        def match_constant(witness, _value=value):
            if _value is witness or is_subobject(_value, witness):
                return _NO_BINDINGS
            return None

        return match_constant
    if isinstance(element, TupleFormula):
        flat = _compile_flat_tuple(element)
        if flat is not None:
            return flat
        children = []
        for name, child in element.items():
            child_matcher = compile_element_matcher(child)
            if child_matcher is None:
                return None
            children.append((name, child_matcher))
        matchers = tuple(children)
        # ⊤ bindings in first-occurrence walk order — the same insertion
        # order the child-merge path below produces — so every binding dict
        # a matcher emits for one formula shares one layout (the columnar
        # executor keys merge plans on it).
        top_bindings = {name: TOP for name in _ordered_variables(element)}

        def match_tuple(witness, _matchers=matchers, _top=top_bindings):
            if witness is TOP:
                return _top
            if not isinstance(witness, TupleObject):
                return None
            bindings = None
            for name, matcher in _matchers:
                child_bindings = matcher(witness.get(name))
                if child_bindings is None:
                    return None
                if child_bindings:
                    if bindings is None:
                        bindings = dict(child_bindings)
                    else:
                        for var, value in child_bindings.items():
                            existing = bindings.get(var)
                            if existing is None:
                                bindings[var] = value
                            elif existing is not value:
                                bindings[var] = intersection(existing, value)
            return bindings if bindings is not None else _NO_BINDINGS

        return match_tuple
    return None


def _ordered_variables(element: Formula):
    """Variable names of ``element`` in first-occurrence depth-first order.

    ``Formula.variables()`` returns an unordered set; compiled matchers need
    the deterministic walk order their binding dicts are built in, so that the
    ⊤ short-circuit produces the same dict layout as a regular match.
    """
    ordered: List[str] = []
    seen = set()

    def walk(node: Formula) -> None:
        if isinstance(node, Variable):
            if node.name not in seen:
                seen.add(node.name)
                ordered.append(node.name)
        elif isinstance(node, TupleFormula):
            for _, child in node.items():
                walk(child)
        elif isinstance(node, SetFormula):
            for child in node.elements:
                walk(child)

    walk(element)
    return ordered


def _compile_flat_tuple(element: TupleFormula):
    """The dominant relational shape, specialised: one dict build per witness.

    A depth-1 tuple of distinct variables and ground constants — e.g.
    ``[src: X, dst: Y]`` or ``[z: Z, tag: t0]`` — needs no per-child binding
    dicts and no merge loop: run the constant subobject checks, then build
    the variable bindings in a single comprehension.  Repeated variables or
    nested structure fall back to the generic compiled walk (``None`` here).
    """
    checks = []
    binds = []
    seen_names = set()
    for name, child in element.items():
        if isinstance(child, Variable):
            if child.name in seen_names:
                return None
            seen_names.add(child.name)
            binds.append((name, child.name))
        elif isinstance(child, Constant):
            checks.append((name, child.value))
        else:
            return None
    constant_checks = tuple(checks)
    variable_binds = tuple(binds)
    top_bindings = {variable: TOP for _, variable in variable_binds}

    def match_flat(
        witness,
        _checks=constant_checks,
        _binds=variable_binds,
        _top=top_bindings,
    ):
        if witness is TOP:
            return _top
        if not isinstance(witness, TupleObject):
            return None
        get = witness.get
        for attribute, value in _checks:
            found = get(attribute)
            if value is not found and not is_subobject(value, found):
                return None
        if not _binds:
            return _NO_BINDINGS
        return {variable: get(attribute) for attribute, variable in _binds}

    return match_flat


def split_element_keys(element: Formula):
    """Partition one element formula's lookup keys into (static, dynamic).

    Static keys pair a key path with a ground atom; dynamic keys pair it with
    a variable name (usable once an earlier leaf binds the variable).  The
    single source of this classification — the executor reuses the tuples
    stored on each :class:`ScanLeaf` rather than re-deriving them.
    """
    static = []
    dynamic = []
    for key_path, key in element_keys(element):
        if isinstance(key, Atom):
            static.append((key_path, key))
        else:
            dynamic.append((key_path, key))
    return tuple(static), tuple(dynamic)


def parameter_keys(element: Formula):
    """(key path, parameter name) pairs an element formula pins with ``$slots``.

    Mirrors :func:`repro.plan.indexes.element_keys` (tuple-attribute paths
    only, nothing below a nested set formula) for :class:`Parameter` nodes —
    the keys that become static equality probes once the parameter is bound.
    """
    found = []

    def walk(node: Formula, path: Path) -> None:
        if isinstance(node, TupleFormula):
            for name, child in node.items():
                walk(child, path.child(name))
        elif isinstance(node, Parameter):
            found.append((path, node.name))

    walk(element, _ROOT)
    return tuple(found)


@lru_cache(maxsize=4096)  # bounded: long-lived processes see many programs
def compile_body(body: Formula) -> BodyPlan:
    """Compile a body/query formula into its source-order :class:`BodyPlan`."""
    leaves: List[Leaf] = []

    def walk(node: Formula, path: Path) -> None:
        if isinstance(node, TupleFormula):
            if not len(node):
                leaves.append(CheckLeaf(path=path, shape="tuple"))
                return
            for name, child in node.items():
                walk(child, path.child(name))
            return
        if isinstance(node, SetFormula):
            if not len(node):
                leaves.append(CheckLeaf(path=path, shape="set"))
                return
            for index, element in enumerate(node.elements):
                static, dynamic = split_element_keys(element)
                leaves.append(
                    ScanLeaf(
                        path=path,
                        element_index=index,
                        element=element,
                        static_keys=static,
                        dynamic_keys=dynamic,
                        variables=element.variables(),
                        param_keys=parameter_keys(element),
                    )
                )
            return
        if isinstance(node, Variable):
            leaves.append(BindLeaf(path=path, name=node.name))
            return
        if isinstance(node, Parameter):
            leaves.append(ParamLeaf(path=path, name=node.name))
            return
        if isinstance(node, Constant):
            leaves.append(ConstLeaf(path=path, value=node.value))
            return
        raise TypeError(f"not a formula: {node!r}")

    walk(body, _ROOT)
    return BodyPlan(body=body, leaves=tuple(leaves))
