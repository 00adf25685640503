"""Property-based equivalences for the session facade.

Two contracts from the API redesign, pinned over generated inputs:

* **streaming ≡ materialization** — folding a :class:`repro.api.Cursor`'s
  lazy stream equals the materialized ``E(O)`` of the calculus baseline
  (:func:`repro.calculus.interpretation.interpret`) — against the oracle
  closure on closure-backed targets — for random objects and body shapes,
  and the stream itself is the deduplicated list of the oracle's
  instantiations ``σ.apply(body)`` of the cursor's rows;
* **parameters ≡ substituted constants** — executing a prepared query with
  ``$name`` bindings equals re-parsing the source with the values spliced in
  as constants, i.e. late binding changes when planning happens, never what
  is computed; and, for any value (⊥, ⊤, tuples and sets too) on every
  access path, equals interpreting the formula
  :func:`~repro.calculus.terms.bind_parameters` binds, under both semantics.
"""

from itertools import islice

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repro import Program, Session, parse_formula, parse_object  # noqa: E402
from repro.calculus.fixpoint import close as oracle_close  # noqa: E402
from repro.calculus.interpretation import interpret as baseline_interpret  # noqa: E402
from repro.calculus.terms import bind_parameters  # noqa: E402
from repro.core.lattice import union_all  # noqa: E402
from repro.core.objects import BOTTOM, TOP, Atom, SetObject, TupleObject  # noqa: E402

_ATTRIBUTE_NAMES = ("a", "b", "c", "r1", "r2", "name")

# Body shapes mirroring tests/test_plan_properties.py: joins, projections,
# bare variables, multi-element scans, spine constants.
BODY_SHAPES = [
    "[r1: {[a: X, b: Y]}, r2: {[c: Y, d: Z]}]",
    "[r1: {[name: X]}]",
    "[r1: {X}, r2: {X}]",
    "[r1: {X, Y}]",
    "[r1: {[a: X], [b: Y]}]",
    "[r1: {[a: X, b: X]}]",
    "X",
    "[r1: X, r2: {[c: Y]}]",
]

# Parameterized templates paired with the names they declare.  Values are
# spliced back in textually for the re-parse oracle, so they are drawn from
# atoms whose ``to_text`` round-trips through the parser.
PARAM_TEMPLATES = [
    ("[r1: {[a: $p, b: X]}]", ("p",)),
    ("[r1: {[a: $p, b: X]}, r2: {[c: X, d: $q]}]", ("p", "q")),
    ("[r1: {[name: $p], [name: X]}]", ("p",)),
    ("[r1: $p]", ("p",)),
    ("[r1: {[a: $p, b: $q]}]", ("p", "q")),
]


def _atoms():
    return st.one_of(
        st.integers(min_value=-20, max_value=20).map(Atom),
        st.sampled_from(["john", "mary", "x", "y"]).map(Atom),
    )


def complex_objects(max_depth: int = 3, top: bool = False):
    if max_depth <= 1:
        return st.one_of(_atoms(), st.just(TOP)) if top else _atoms()
    children = complex_objects(max_depth - 1, top)
    tuples = st.dictionaries(
        st.sampled_from(_ATTRIBUTE_NAMES), children, max_size=3
    ).map(TupleObject)
    sets = st.lists(children, max_size=3).map(SetObject)
    return st.one_of(_atoms(), tuples, sets)


@given(database=complex_objects(), shape=st.sampled_from(BODY_SHAPES))
def test_streamed_cursor_equals_materialized_interpret(database, shape):
    body = parse_formula(shape)
    session = Session.over_object(database)
    streamed = list(session.execute(body))
    expected = baseline_interpret(body, database)
    assert union_all(streamed) == expected
    assert session.query(body) == expected


def _relations():
    """Tuples whose ``r1`` / ``r2`` are sets (or ⊤), so the body shapes' scans fire."""
    element = st.one_of(_atoms(), complex_objects(2, top=True))
    relation = st.one_of(st.lists(element, min_size=1, max_size=4).map(SetObject), st.just(TOP))
    return st.fixed_dictionaries({"r1": relation, "r2": relation}).map(TupleObject)


@settings(max_examples=200)
@given(
    database=st.one_of(_relations(), complex_objects(top=True)),
    shape=st.sampled_from(BODY_SHAPES),
    allow_bottom=st.booleans(),
    prefix=st.integers(min_value=0, max_value=6),
)
# Rows (1, 2) and (2, 1) instantiate alike: the prefix's match must not repeat.
@example(parse_object("[r1: {1, 2}]"), "[r1: {X, Y}]", False, 2)
def test_cursor_streams_the_deduplicated_oracle_instances(database, shape, allow_bottom, prefix):
    """The stream is ``σ.apply(body)`` over the cursor's rows, deduplicated, in order.

    A ``bindings()`` prefix counts as streamed: iteration afterwards yields
    the rest of that list, none of the prefix's instances, and ``all()`` is
    still the whole ``E(O)``.
    """
    body = parse_formula(shape)
    session = Session.over_object(database)

    def execute():
        return session.execute(body, allow_bottom=allow_bottom)

    oracle = list(dict.fromkeys(sigma.apply(body) for sigma in execute().bindings()))
    assert list(execute()) == oracle
    cursor = execute()
    consumed = {sigma.apply(body) for sigma in islice(cursor.bindings(), prefix)}
    rest = list(cursor)
    assert consumed.isdisjoint(rest)
    assert rest == [instance for instance in oracle if instance not in consumed]
    assert cursor.all() == baseline_interpret(body, database, allow_bottom=allow_bottom)


@given(
    database=complex_objects(),
    shape=st.sampled_from(BODY_SHAPES),
    allow_bottom=st.booleans(),
)
def test_cursor_all_respects_both_semantics(database, shape, allow_bottom):
    body = parse_formula(shape)
    cursor = Session.over_object(database).execute(body, allow_bottom=allow_bottom)
    assert cursor.all() == baseline_interpret(
        body, database, allow_bottom=allow_bottom
    )


@given(
    database=complex_objects(),
    template=st.sampled_from(PARAM_TEMPLATES),
    values=st.lists(_atoms(), min_size=2, max_size=2),
)
def test_prepared_parameters_equal_substituted_constants(database, template, values):
    source, names = template
    bindings = dict(zip(names, values))
    substituted = source
    for name, value in bindings.items():
        substituted = substituted.replace(f"${name}", value.to_text())
    session = Session.over_object(database)
    prepared = session.prepare(source)
    assert prepared.execute(bindings).all() == session.query(
        parse_formula(substituted)
    )


@given(
    database=complex_objects(),
    template=st.sampled_from(PARAM_TEMPLATES),
    rounds=st.lists(st.lists(_atoms(), min_size=2, max_size=2), min_size=1, max_size=3),
)
def test_prepared_reuse_never_drifts_across_bindings(database, template, rounds):
    """Executing one prepared plan with many bindings ≡ one fresh parse each."""
    source, names = template
    session = Session.over_object(database)
    prepared = session.prepare(source)
    for values in rounds:
        bindings = dict(zip(names, values))
        substituted = source
        for name, value in bindings.items():
            substituted = substituted.replace(f"${name}", value.to_text())
        assert prepared.execute(bindings).all() == baseline_interpret(
            parse_formula(substituted), database
        )


# Slots on the spine and as set elements, inside tuples and beside variables.
SLOT_TEMPLATES = [
    ("[r1: {[a: $p, b: X]}]", ("p",)),
    ("[r1: {[a: $p, b: X]}, r2: {[c: X, d: $q]}]", ("p", "q")),
    ("[r1: {[name: $p], [name: X]}]", ("p",)),
    ("[r1: $p, r2: {[c: Y]}]", ("p",)),
    ("[r1: {$p, X}]", ("p",)),
    ("[r1: {[a: X, b: [c: $p]]}, r2: $q]", ("p", "q")),
]

_SLOT_RULES = "[r2: {[c: X, d: X]}] :- [r1: {[a: X]}]."


def _slot_values():
    """What a slot, or a stored attribute, may hold: atoms, ⊥, ⊤, tuples and sets.

    Over two atoms, so that a value is often a strict sub-object of another
    (``[x: 1]`` of ``[x: 1, y: 2]``) or meets it above ⊥ without being one.
    """
    atoms = st.sampled_from((Atom(1), Atom(2)))
    tuples = st.dictionaries(st.sampled_from(("x", "y")), atoms, max_size=2).map(TupleObject)
    sets = st.lists(atoms, max_size=2).map(SetObject)
    return st.one_of(atoms, st.just(BOTTOM), st.just(TOP), tuples, sets)


def _slot_relations():
    """``r1`` / ``r2`` sets of such values and of tuples holding them."""
    value = _slot_values()
    element = st.one_of(
        value,
        st.fixed_dictionaries(
            {"a": value, "b": value}, optional={name: value for name in ("c", "d", "name")}
        ).map(TupleObject),
    )
    relation = st.lists(element, min_size=1, max_size=4).map(SetObject)
    return st.fixed_dictionaries({"r1": relation, "r2": relation}).map(TupleObject)


@settings(max_examples=200, deadline=None)
@given(
    database=_slot_relations(),
    template=st.sampled_from(SLOT_TEMPLATES),
    values=st.lists(_slot_values(), min_size=2, max_size=2),
    path=st.sampled_from(["over_object", "against", "on_closure", "store", "indexed_store"]),
    allow_bottom=st.booleans(),
)
def test_prepared_slots_equal_the_bound_formula_on_every_path(
    database, template, values, path, allow_bottom
):
    """Every access path executes the prepared plan as the bound formula interprets."""
    source, names = template
    bindings = dict(zip(names, values))
    bound = bind_parameters(parse_formula(source), bindings)
    options = {"allow_bottom": allow_bottom}
    if path == "over_object":
        session, target = Session.over_object(database), database
    elif path == "against":
        session, target = Session(), database
        session.put("library", database)
        options["against"] = "library"
    elif path == "on_closure":
        session = Session.over_object(database, rules=_SLOT_RULES)
        program = Program.from_source(_SLOT_RULES, database=database)
        target = oracle_close(program.seed(), program.rules).value
        options["on_closure"] = True
    else:
        session = Session()
        # A ⊤ relation collapsed the database: store it whole (the snapshot path).
        stored = database.items() if isinstance(database, TupleObject) else [("all", database)]
        for name, value in stored:
            session.put(name, value)
        if path == "indexed_store":
            # The refutation probe reads the slots' values against these.
            for key in ("a", "d", "name"):
                session.database.create_index(key)
        target = session.database.as_object()
    prepared = session.prepare(source, **options)
    expected = baseline_interpret(bound, target, allow_bottom=allow_bottom)
    for _ in range(2):  # a plan miss, then a hit
        assert prepared.execute(bindings).all() == expected
    assert union_all(list(prepared.execute(bindings))) == expected


@given(
    generations=st.integers(min_value=0, max_value=2),
    fanout=st.integers(min_value=1, max_value=2),
)
def test_closure_query_equals_the_oracles(generations, fanout):
    from repro.calculus.fixpoint import close as oracle
    from repro.workloads import make_genealogy

    rules = (
        "[doa: {abraham}].\n"
        "[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].\n"
    )
    tree = make_genealogy(generations, fanout)
    query = parse_formula("[doa: X]")
    session = Session.over_object(tree.family_object, rules=rules)
    via_session = session.query(query, on_closure=True)
    program = Program.from_source(rules, database=tree.family_object)
    assert via_session == baseline_interpret(
        query, oracle(program.seed(), program.rules).value
    )


# -- closure maintenance: whole command sequences against the oracle --------------------

_PEOPLE = ("abraham", "isaac", "jacob", "esau", "ishmael")

# The recursive core plus: a second stratum reading its result, a
# non-decomposable body (variable on the spine), and a merge that reaches ⊤
# once two people descend from abraham.
_CLOSURE_RULES = {
    "descendants": (
        "[doa: {abraham}].\n"
        "[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].\n"
    ),
    "second_stratum": "[parents: {Y}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {X}].",
    "spine_variable": "[mirror: X] :- [doa: X].",
    "merge_to_top": "[heir: X] :- [doa: {X}].",
}


def _person(name, *children):
    offspring = SetObject(TupleObject({"name": Atom(child)}) for child in children)
    return TupleObject({"name": Atom(name), "children": offspring})


_people = st.sampled_from(_PEOPLE)
_commands = st.one_of(
    st.tuples(st.just("grow"), _people, _people),
    st.tuples(st.just("add"), _people),
    st.tuples(st.just("shrink")),
    st.tuples(st.just("remove"), st.sampled_from(["family", "other"])),
    st.tuples(st.just("put_other"), st.integers(0, 2)),
    st.tuples(st.just("seed"), _people, _people),
    st.tuples(st.just("register"), st.sampled_from(sorted(_CLOSURE_RULES))),
)


@hypothesis.settings(max_examples=60, deadline=None)
@given(
    st.sets(st.sampled_from(sorted(_CLOSURE_RULES))),
    st.lists(_commands, min_size=1, max_size=8),
)
def test_close_after_every_command_equals_the_fixpoint_oracle(registered, commands):
    """Maintained or recomputed, ``close()`` is ``calculus.fixpoint.close``."""
    from repro import parse_program
    from repro.calculus.fixpoint import close as oracle
    from repro.calculus.rules import RuleSet
    from repro.core.lattice import union

    # The model: a dict, a seed and a rule list — no session code.
    stored, seed, rules = {}, None, list(parse_program(_CLOSURE_RULES["descendants"]))
    session = Session(rules=_CLOSURE_RULES["descendants"])
    for command in [("register", name) for name in sorted(registered)] + commands:
        kind, arguments = command[0], command[1:]
        family = stored.get("family", SetObject())
        if kind == "grow":
            parent, child = arguments
            old = next((p for p in family.elements if p["name"] == Atom(parent)), None)
            grown = _person(parent, child) if old is None else old.replace(
                children=old["children"].add(TupleObject({"name": Atom(child)}))
            )
            stored["family"] = family.add(grown)
            session.transact(lambda txn: txn.put("family", stored["family"]))
        elif kind == "add":
            stored["family"] = family.add(_person(*arguments))
            session.put("family", stored["family"])
        elif kind == "shrink":
            stored["family"] = SetObject(family.elements[1:])
            session.put("family", stored["family"])
        elif kind == "remove":
            stored.pop(arguments[0], None)
            session.remove(arguments[0])
        elif kind == "put_other":
            stored["other"] = SetObject([Atom(arguments[0])])
            session.put("other", stored["other"])
        elif kind == "seed":
            extra = TupleObject({"family": SetObject([_person(*arguments)])})
            seed = extra if seed is None else union(seed, extra)
            session.seed_object(extra)
        else:
            rules.extend(parse_program(_CLOSURE_RULES[arguments[0]]))
            session.register(_CLOSURE_RULES[arguments[0]])
        base = TupleObject(stored)
        if seed is not None:
            base = union(base, seed) if stored else seed
        base = union_all([base] + [fact.apply(BOTTOM) for fact in rules if fact.is_fact])
        expected = oracle(base, RuleSet([r for r in rules if not r.is_fact])).value
        assert session.close().value == expected
