"""The rule-body compiler: formulae → logical plans.

``compile_body`` flattens a body (or query) formula's *spine* — the part
reachable through tuple attributes — into the conjunction of leaves described
in :mod:`repro.plan.ir`:

* each element of a set formula on the spine becomes a :class:`ScanLeaf`
  carrying its usable index keys (static ground atoms and dynamic variables,
  via :func:`repro.plan.indexes.element_keys`);
* a spine variable becomes a :class:`BindLeaf`, a spine constant a
  :class:`ConstLeaf`, an empty tuple/set formula a :class:`CheckLeaf`.

Everything *below* a set element belongs to the witness and is matched by
the closure :func:`compile_element_matcher` builds for that element — the
one witness matcher, with :mod:`repro.calculus.matching` as its oracle.
Both are pure and memoised on the (hash-consed) formula's intern id.  A head
goes the other way, into the join of its instantiations: :func:`compile_projection`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import List, Optional, Tuple

from repro.calculus.terms import (
    Constant,
    Formula,
    Parameter,
    SetFormula,
    TupleFormula,
    Variable,
)
from repro.core.errors import ParameterError
from repro.core.intern import node_memo
from repro.core.lattice import _join, intersection, union_all
from repro.core.objects import BOTTOM, TOP, Atom, SetObject, TupleObject
from repro.core.order import is_subobject, maximal_unique
from repro.core.paths import Path
from repro.plan.indexes import element_keys
from repro.plan.ir import BindLeaf, BodyPlan, CheckLeaf, ConstLeaf, Leaf, ParamLeaf, ScanLeaf

__all__ = [
    "compile_body",
    "compile_element_matcher",
    "compile_projection",
    "parameter_keys",
    "split_element_keys",
]

_ROOT = Path(())


@node_memo("element_matcher")  # per element formula, shared across plans
def compile_element_matcher(element: Formula):
    """Compile one scan-leaf element formula into ``(layout, match)``.

    ``match(witness, out)`` appends to ``out`` one value row per
    derivation-maximal substitution of ``element`` against ``witness`` —
    exactly the substitutions ``repro.calculus.matching._match`` enumerates,
    in its order, duplicates and ⊥ bindings included (the executor's strict
    filter drops those).  Every row is aligned to ``layout``: the element's
    variables in first-occurrence walk order.

    * a :class:`Variable` binds the witness;
    * a :class:`Constant` is a subobject test (identity fast path first,
      since interned equal objects are identical);
    * a :class:`TupleFormula` is the running product of its attributes'
      alternatives, a :class:`SetFormula` that of its elements' alternatives
      over the witness's elements (or their vanish row when there are none);
      shared variables meet through :func:`_merge_rows`.  A flat tuple of
      distinct variables and constants takes :func:`_compile_flat_tuple`;
    * a ⊤ witness gives one all-⊤ row at every level;
    * a :class:`Parameter` raises :class:`ParameterError`: bind it first.

    The memo is keyed on the formula's intern id, so prepared-plan
    re-execution pays zero recompilation; it is registered as
    ``element_matcher`` (the ``core.memo.element_matcher_*`` gauges).
    """
    return _compile(element)


def _compile(element: Formula):
    if isinstance(element, Variable):
        return (element.name,), _match_variable
    if isinstance(element, Constant):
        value = element.value

        def match_constant(witness, out, _value=value):
            if _value is witness or is_subobject(_value, witness):
                out.append(())

        return (), match_constant
    if isinstance(element, TupleFormula):
        flat = _compile_flat_tuple(element)
        if flat is not None:
            return flat
        return _compile_product(element.items(), TupleObject)
    if isinstance(element, SetFormula):
        return _compile_product([(None, child) for child in element.elements], SetObject)
    _reject(element)


def _reject(node: Formula):
    if isinstance(node, Parameter):
        raise ParameterError(
            f"cannot execute a plan with unbound parameter ${node.name};"
            " bind it first (repro.plan.parameters.bind_body_plan)"
        )
    raise TypeError(f"not a formula: {node!r}")


def _match_variable(witness, out):
    out.append((witness,))


def _compile_product(children, kind):
    """Meet the children's alternatives left to right, partials outer.

    ``children`` are ``(attribute, formula)`` pairs of a tuple formula, or
    ``(None, formula)`` for the elements of a set formula, whose alternatives
    range over every element of the witness, else take the vanish row —
    ``matching._set_element_alternatives``.  The merge plans are fixed here,
    so a match is the running product of ``matching._match`` row for row.
    """
    layout: Tuple[str, ...] = ()
    steps = []
    for name, child in children:
        child_layout, match = _compile(child)
        layout, new_indices, overlap = _merge_plan(layout, child_layout)
        steps.append((name, match, _vanish_row(child), new_indices, overlap))

    def match_product(witness, out, _steps=tuple(steps), _top=(TOP,) * len(layout)):
        if witness is TOP:
            out.append(_top)
            return
        if not isinstance(witness, kind):
            return
        partials = [()]
        for name, match, vanish, new_indices, overlap in _steps:
            alternatives: List[tuple] = []
            if name is not None:
                match(witness.get(name), alternatives)
            else:
                for element in witness.elements:
                    match(element, alternatives)
                if not alternatives and vanish is not None:
                    alternatives.append(vanish)
            if not alternatives:
                return
            merged: List[tuple] = []
            _merge_rows(partials, alternatives, new_indices, overlap, False, merged)
            partials = merged
        out.extend(partials)

    return layout, match_product


def _vanish_row(element: Formula) -> Optional[tuple]:
    """The row of an element formula that vanishes from a witness-less set.

    A bare variable binds ⊥, the ⊥ constant binds nothing; any other element
    formula cannot vanish (``None``).
    """
    if isinstance(element, Variable):
        return (BOTTOM,)
    if isinstance(element, Constant) and element.value is BOTTOM:
        return ()
    return None


def _compile_flat_tuple(element: TupleFormula):
    """The dominant relational shape, specialised: one row build per witness.

    A depth-1 tuple of distinct variables and ground constants — e.g.
    ``[src: X, dst: Y]`` or ``[z: Z, tag: t0]`` — has at most one match and
    needs no product: run the constant subobject checks, then read the
    variables' attributes into one row.  Repeated variables or nested
    structure take the general product (``None`` here).
    """
    checks = []
    attributes = []
    layout: List[str] = []
    for name, child in element.items():
        if isinstance(child, Variable):
            if child.name in layout:
                return None
            layout.append(child.name)
            attributes.append(name)
        elif isinstance(child, Constant):
            checks.append((name, child.value))
        else:
            return None

    def match_flat(
        witness,
        out,
        _checks=tuple(checks),
        _attributes=tuple(attributes),
        _top=(TOP,) * len(layout),
    ):
        if witness is TOP:
            out.append(_top)
            return
        if not isinstance(witness, TupleObject):
            return
        get = witness.get
        for attribute, value in _checks:
            found = get(attribute)
            if value is not found and not is_subobject(value, found):
                return
        # Built at its exact size: tuple(map(...)) allocates ten slots and
        # shrinks them, which counts every row toward the next garbage
        # collection (twice the collections on a wide scan).
        out.append(tuple(list(map(get, _attributes))))

    return tuple(layout), match_flat


def _merge_plan(
    partial_layout: Tuple[str, ...], alt_layout: Tuple[str, ...]
) -> tuple:
    """How to meet rows of ``partial_layout`` with rows of ``alt_layout``.

    Returns ``(merged_layout, new_indices, overlap)``: alternative columns
    not yet in the partial layout are appended (``new_indices``, in
    alternative order, so a disjoint merge is a plain tuple concat);
    ``overlap`` pairs each shared variable's partial column with its
    alternative column for the per-row meet.  Layouts are fixed when an
    element compiles, so a plan is computed once per pipeline position.
    """
    positions = {name: index for index, name in enumerate(partial_layout)}
    new_indices: List[int] = []
    overlap: List[Tuple[int, int]] = []
    for alt_index, name in enumerate(alt_layout):
        partial_index = positions.get(name)
        if partial_index is None:
            new_indices.append(alt_index)
        else:
            overlap.append((partial_index, alt_index))
    merged_layout = partial_layout + tuple(
        alt_layout[index] for index in new_indices
    )
    return merged_layout, tuple(new_indices), tuple(overlap)


def _merge_row(
    prow: tuple, arow: tuple, new_indices, overlap, drop: bool
) -> Optional[tuple]:
    """Meet one partial row with one alternative row (shared columns glb).

    The row-level mirror of :meth:`Substitution.meet`: on interned objects
    equal bindings are identical, so the common agreeing-occurrences case is
    an ``is`` check per shared column and a tuple concat; a disagreeing
    column rebuilds the row with the lattice meet.

    ``drop`` is the executor's strict-semantics early filter
    (``allow_bottom=False``): a ⊥ binding can never recover — every later
    meet of ⊥ stays ⊥ — so a row whose shared column meets to ⊥ is returned
    as ``None`` here instead of being carried to the finalizer.  Distinct
    atoms always meet to ⊥, which turns the dominant mismatched-join-key case
    into two type checks.  Matching inside a witness passes ``False``.
    """
    for partial_index, alt_index in overlap:
        existing = prow[partial_index]
        value = arow[alt_index]
        if existing is not value:
            if drop and type(existing) is Atom and type(value) is Atom:
                return None
            merged = list(prow)
            for partial_index, alt_index in overlap:
                value = arow[alt_index]
                existing = merged[partial_index]
                if existing is not value:
                    met = intersection(existing, value)
                    if drop and met is BOTTOM:
                        return None
                    merged[partial_index] = met
            merged.extend(arow[index] for index in new_indices)
            return tuple(merged)
    if not new_indices:
        return prow
    if len(new_indices) == 1:
        return prow + (arow[new_indices[0]],)
    return prow + tuple([arow[index] for index in new_indices])


def _merge_rows(
    partials: List[tuple], alternatives: List[tuple], new_indices, overlap,
    drop: bool, out: List[tuple],
) -> None:
    """Cross-merge partial rows with a shared alternatives list into ``out``.

    Partials outer, alternatives inner — the enumeration order of
    ``matching._match`` (dropped ⊥ rows leave the survivors' relative order
    untouched).  Disjoint layouts (no shared variables — the seed batch,
    chained leaves over fresh variables, a product's first child) reduce to
    C-level tuple concats.  The executor's operators and the compiled
    products inside a witness both meet rows here.
    """
    if not overlap:
        if len(alternatives) == 1:
            arow = alternatives[0]
            if arow:
                out.extend([prow + arow for prow in partials])
            else:
                out.extend(partials)
            return
        for prow in partials:
            out.extend([prow + arow for arow in alternatives])
        return
    append = out.append
    for prow in partials:
        for arow in alternatives:
            merged = _merge_row(prow, arow, new_indices, overlap, drop)
            if merged is not None:
                append(merged)


class _RawValue(Exception):
    """A raw (un-interned) value reached a column join: the per-row fold decides."""


def compile_projection(formula: Formula, names: Tuple[str, ...]):
    """Compile a head (or query body) into ``project(rows)``, its ``r(O)``.

    Each row binds ``names`` by position (:func:`repro.plan.execute.match_rows`).
    ``project(rows)`` is ``union_all`` of the per-row instantiations — the
    same interned instance — joined column-wise, as the lub distributes over
    the constructors (Definition 3.4): a tuple spine joins attribute by
    attribute, a set reduces the elements of all rows once (each built per
    row by closures indexed by column), a variable joins its column and a
    constant is itself.  No rows give ⊥; a raw value in a row takes the fold.
    Not cached: a bound query body differs with every parameter value.
    """
    columns = {name: index for index, name in enumerate(names)}
    join = _compile_join(formula, columns)

    def project(rows):
        try:
            return join(rows) if rows else BOTTOM
        except _RawValue:
            build = _compile_builder(formula, columns)
            return union_all(build(row) for row in rows)

    return project


def _compile_builder(node: Formula, columns):
    """``build(row)``: the instantiation of ``node`` under one row (⊥ unbound)."""
    if isinstance(node, Variable):
        index = columns.get(node.name)
        return (lambda row: BOTTOM) if index is None else itemgetter(index)
    if isinstance(node, Constant):
        return lambda row, _value=node.value: _value
    if isinstance(node, TupleFormula):
        items = tuple((name, _compile_builder(child, columns)) for name, child in node.items())
        return lambda row: TupleObject({name: build(row) for name, build in items})
    if isinstance(node, SetFormula):
        elements = tuple(_compile_builder(child, columns) for child in node.elements)
        return lambda row: SetObject(build(row) for build in elements)
    _reject(node)


def _compile_join(node: Formula, columns):
    """``join(rows)``: the lub of ``node``'s instantiations over a non-empty batch."""
    if isinstance(node, (Variable, SetFormula)):
        is_set = isinstance(node, SetFormula)
        gathered = node.elements if is_set else (node,)
        builders = tuple(_compile_builder(child, columns) for child in gathered)

        def join_gathered(rows):
            # Distinct by intern id: a raw value has none, ⊤ absorbs, ⊥ drops.
            values = {value._iid: value for build in builders for value in map(build, rows)}
            if None in values:
                raise _RawValue
            if TOP._iid in values:
                return TOP
            values.pop(BOTTOM._iid, None)
            if is_set:
                return SetObject._from_reduced(maximal_unique(list(values.values())))
            return _join(list(values.values()))

        return join_gathered
    if isinstance(node, Constant):
        return lambda rows, _value=node.value: _value
    if isinstance(node, TupleFormula):
        items = tuple((name, _compile_join(child, columns)) for name, child in node.items())
        return lambda rows: TupleObject({name: join(rows) for name, join in items})
    _reject(node)


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


@node_memo("compile_body")  # bounded: long-lived processes see many programs
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
