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

A ``$parameter`` compiles once, like a constant whose value is read at call
time: matchers and projections take the execution's ``params`` mapping, and a
slot is tested as a sub-object of its witness exactly as a bound
:class:`Constant` would be (:func:`repro.calculus.terms.bind_parameters`, the
oracle).  Nothing is rebuilt per parameter value.
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
from repro.core.intern import node_memo
from repro.core.lattice import _join, intersection, union_all
from repro.core.objects import BOTTOM, TOP, Atom, SetObject, TupleObject
from repro.core.order import is_subobject, maximal_unique
from repro.core.paths import Path
from repro.plan.indexes import element_keys
from repro.plan.ir import (
    NO_PARAMS,
    BindLeaf,
    BodyPlan,
    CheckLeaf,
    ConstLeaf,
    Leaf,
    ParamLeaf,
    ScanLeaf,
)

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

    ``match(witness, out, params)`` appends to ``out`` one value row per
    derivation-maximal substitution of ``element`` against ``witness`` —
    exactly the substitutions ``repro.calculus.matching._match`` enumerates
    for ``element`` with ``params`` bound, in its order, duplicates and ⊥
    bindings included (the executor's strict filter drops those).  Every row
    is aligned to ``layout``: the element's variables in first-occurrence
    walk order.  ``params`` defaults to :data:`NO_PARAMS`.

    * a :class:`Variable` binds the witness;
    * a :class:`Constant` is a subobject test (identity fast path first,
      since interned equal objects are identical);
    * a :class:`Parameter` is the same test of the value ``params`` binds it
      to — a slot, never a variable: it binds nothing;
    * a :class:`TupleFormula` is the running product of its attributes'
      alternatives, a :class:`SetFormula` that of its elements' alternatives
      over the witness's elements (or their vanish row when there are none);
      shared variables meet through :func:`_merge_rows`.  A flat tuple of
      distinct variables, constants and slots takes :func:`_compile_flat_tuple`;
    * a ⊤ witness gives one all-⊤ row at every level.

    The memo is keyed on the formula's intern id, so prepared-plan
    re-execution pays zero recompilation, whatever its parameter values; it
    is registered as ``element_matcher`` (the ``core.memo.element_matcher_*``
    gauges).
    """
    return _compile(element)


def _compile(element: Formula):
    if isinstance(element, Variable):
        return (element.name,), _match_variable
    if isinstance(element, Constant):
        value = element.value

        def match_constant(witness, out, params=NO_PARAMS, _value=value):
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
    if isinstance(element, Parameter):

        def match_parameter(witness, out, params=NO_PARAMS, _name=element.name):
            value = params[_name]
            if value is witness or is_subobject(value, witness):
                out.append(())

        return (), match_parameter
    _reject(element)


def _reject(node: Formula):
    raise TypeError(f"not a formula: {node!r}")


def _match_variable(witness, out, params=NO_PARAMS):
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
        # A slot's vanish row depends on its value: decided per match.
        vanish = child if type(child) is Parameter else _vanish_row(child)
        steps.append((name, match, vanish, new_indices, overlap))

    def match_product(
        witness, out, params=NO_PARAMS, _steps=tuple(steps), _top=(TOP,) * len(layout)
    ):
        if witness is TOP:
            out.append(_top)
            return
        if not isinstance(witness, kind):
            return
        partials = [()]
        for name, match, vanish, new_indices, overlap in _steps:
            alternatives: List[tuple] = []
            if name is not None:
                match(witness.get(name), alternatives, params)
            else:
                for element in witness.elements:
                    match(element, alternatives, params)
                if not alternatives and vanish is not None:
                    if type(vanish) is Parameter:
                        vanish = _vanish_row(vanish, params)
                    if vanish is not None:
                        alternatives.append(vanish)
            if not alternatives:
                return
            merged: List[tuple] = []
            _merge_rows(partials, alternatives, new_indices, overlap, False, merged)
            partials = merged
        out.extend(partials)

    return layout, match_product


def _vanish_row(element: Formula, params=NO_PARAMS) -> Optional[tuple]:
    """The row of an element formula that vanishes from a witness-less set.

    A bare variable binds ⊥, the ⊥ constant (or a slot ``params`` binds to ⊥)
    binds nothing; any other element formula cannot vanish (``None``).
    """
    if isinstance(element, Variable):
        return (BOTTOM,)
    if isinstance(element, Constant):
        return () if element.value is BOTTOM else None
    if type(element) is Parameter and params[element.name] is BOTTOM:
        return ()
    return None


def _compile_flat_tuple(element: TupleFormula):
    """The dominant relational shape, specialised: one row build per witness.

    A depth-1 tuple of distinct variables, ground constants and slots — e.g.
    ``[src: X, dst: Y]``, ``[z: Z, tag: t0]`` or ``[assembly_id: $a, part_id:
    P]`` — has at most one match and needs no product: run the constant and
    slot subobject checks, then read the variables' attributes into one row.
    Repeated variables or nested structure take the general product (``None``
    here).
    """
    checks = []
    slots = []
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
        elif type(child) is Parameter:
            slots.append((name, child.name))
        else:
            return None

    def match_flat(
        witness,
        out,
        params=NO_PARAMS,
        _checks=tuple(checks),
        _slots=tuple(slots),
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
        for attribute, name in _slots:
            value = params[name]
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
    """Compile a head (or query body) into ``project(rows, params)``, its ``r(O)``.

    Each row binds ``names`` by position (:func:`repro.plan.execute.match_rows`).
    ``project(rows, params)`` is ``union_all`` of the per-row instantiations
    of ``formula`` with ``params`` bound — the same interned instance —
    joined column-wise, as the lub distributes over the constructors
    (Definition 3.4): a tuple spine joins attribute by attribute, a set
    gathers the elements of all rows once (each built per row by closures
    indexed by column), a variable joins its column and a constant is itself.
    A ``$parameter`` is read as one more column, the same in every row.  No
    rows give ⊥; a raw value in a row takes the fold.

    The elements a set gathers are reduced once, unless they are an antichain
    by construction (:func:`_differ_at_one_atom`).  Compiled once per plan:
    ``params`` (default :data:`NO_PARAMS`) comes with each call.
    """
    slots = formula.parameters()
    slots = tuple(sorted(slots)) if slots else ()
    columns = {name: index for index, name in enumerate(names)}
    for offset, slot in enumerate(slots):
        columns["$" + slot] = len(names) + offset
    join = _compile_join(formula, columns)

    def project(rows, params=NO_PARAMS):
        if not rows:
            return BOTTOM
        if slots:
            bound = tuple([params[slot] for slot in slots])
            rows = [row + bound for row in rows]
        try:
            return join(rows)
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
        items = tuple([(name, _compile_builder(child, columns)) for name, child in node.items()])
        return lambda row: TupleObject({name: build(row) for name, build in items})
    if isinstance(node, SetFormula):
        elements = tuple([_compile_builder(child, columns) for child in node.elements])
        return lambda row: SetObject(build(row) for build in elements)
    if isinstance(node, Parameter):
        return itemgetter(columns["$" + node.name])
    _reject(node)


def _compile_join(node: Formula, columns):
    """``join(rows)``: the lub of ``node``'s instantiations over a non-empty batch."""
    if isinstance(node, (Variable, SetFormula)):
        is_set = isinstance(node, SetFormula)
        gathered = node.elements if is_set else (node,)
        builders = tuple([_compile_builder(child, columns) for child in gathered])
        candidates = _distinct_atom_sources(gathered, columns) if is_set else ()

        def join_gathered(rows):
            # Distinct by intern id: a raw value has none, ⊤ absorbs, ⊥ drops.
            values = {value._iid: value for build in builders for value in map(build, rows)}
            if None in values:
                raise _RawValue
            if TOP._iid in values:
                return TOP
            values.pop(BOTTOM._iid, None)
            elements = list(values.values())
            if not is_set:
                return _join(elements)
            count = len(elements)
            if count > 1 and not _differ_at_one_atom(rows, count, candidates):
                elements = maximal_unique(elements)
            return SetObject._from_reduced(elements)

        return join_gathered
    if isinstance(node, Constant):
        return lambda rows, _value=node.value: _value
    if isinstance(node, TupleFormula):
        items = tuple([(name, _compile_join(child, columns)) for name, child in node.items()])
        return lambda rows: TupleObject({name: join(rows) for name, join in items})
    if isinstance(node, Parameter):
        # A slot on the spine is its value, as a constant is.
        return lambda rows, _index=columns["$" + node.name]: rows[0][_index]
    _reject(node)


_TUPLE_FORMULAS = {TupleFormula}


def _distinct_atom_sources(elements: Tuple[Formula, ...], columns) -> tuple:
    """Where the elements a set formula gathers may differ at one atom.

    One candidate per position every element formula fills with a bound
    variable or a ``$slot``: the element itself, when every element formula
    is one, else each attribute all of them (tuple formulas) have.  A
    candidate is the ``itemgetter`` of each element formula's column there.
    (A constant there holds one atom for every row, so it separates nothing.)
    """
    if set(map(type, elements)) == _TUPLE_FORMULAS:
        fields = list(map(dict, map(TupleFormula.items, elements)))
        shared = set(fields[0])
        for field in fields[1:]:
            shared &= set(field)
        positions = [map(itemgetter(name), fields) for name in fields[0] if name in shared]
    else:
        positions = [elements]
    candidates = []
    for position in positions:
        getters = []
        for node in position:
            if type(node) is Variable:
                column = node.name
            elif type(node) is Parameter:
                column = "$" + node.name
            else:
                break
            if column not in columns:  # an unbound variable: ⊥ in every row
                break
            getters.append(itemgetter(columns[column]))
        else:
            candidates.append(tuple(getters))
    return tuple(candidates)


_ATOMS_ONLY = {Atom}


def _differ_at_one_atom(rows: List[tuple], count: int, candidates: tuple) -> bool:
    """Do the ``count`` elements built from ``rows`` differ at one atom position?

    Each element carries, at a candidate position, the value its column holds
    in the row that built it.  When every such value is an atom and there are
    ``count`` distinct ones, no two elements share one, and the elements are
    an antichain: distinct atoms are incomparable, so no element is a
    sub-object of another, and the set needs no reduction.  Any ⊥, ⊤ or
    non-atom at the position, or a shared atom, answers ``False``.
    """
    for getters in candidates:
        atoms: List[object] = []
        for getter in getters:
            atoms += map(getter, rows)
        if set(map(type, atoms)) == _ATOMS_ONLY and len(set(map(id, atoms))) == count:
            return True
    return False


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
