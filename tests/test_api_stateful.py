"""A state machine over whole sessions, checked against the oracles.

Each step drives one :func:`repro.connect` session — store writes,
two-name transactions, set inserts and discards, seed edits, rule
registration, prepared and ad-hoc queries, closures, and cursors opened
before later commits and drained after them — and a model that is nothing
but a dict of stored objects, a seed and a rule list.  The model answers
with the calculus definitions alone
(:func:`repro.calculus.interpretation.interpret`,
:func:`repro.calculus.fixpoint.close`), so every plan cache, index store and
resumed closure the session keeps must be invisible in its answers.

:class:`WalSessionMachine` runs the same rules over ``repro.connect(path)``
and adds the write-ahead log's own moves: compaction, shutdown and reopen,
and a ``put`` cut by a torn crash, after which the reopened store must hold
what it held before that put.

Invariants: every answer equals the model's; every stored object is the
model's object itself (``is``), after a reopen too; a held cursor answers
from the version it was opened on; every ``cache_info()`` counter is
monotone.
"""

import os
import shutil
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, settings, strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

import repro  # noqa: E402
from repro import parse_formula, parse_object  # noqa: E402
from repro.calculus.fixpoint import close as oracle_close  # noqa: E402
from repro.calculus.interpretation import interpret  # noqa: E402
from repro.core.errors import StoreError  # noqa: E402
from repro.core.lattice import union  # noqa: E402
from repro.core.objects import SetObject, TupleObject  # noqa: E402
from repro.fault.injection import FaultSpec, SimulatedCrash, inject  # noqa: E402
from repro.parser import parse_program  # noqa: E402

NAMES = ("r1", "r2")

RULES = (
    "[t: {[a: X, b: Y]}] :- [r1: {[a: X, b: Y]}].",
    "[t: {[a: X, b: Z]}] :- [t: {[a: X, b: Y]}, r2: {[a: Y, b: Z]}].",
    "[u: {X}] :- [s: {[a: X]}].",
)

#: Whole-database queries; ``$x`` is bound at execute time.
QUERIES = (
    "[r1: {[a: $x, b: B]}]",
    "[r1: {[a: X, b: Y]}, r2: {[a: Y, b: Z]}]",
    "[r2: {[a: A, b: $x]}]",
    "[s: {[a: $x, b: B]}]",
)

#: Queries over the closure R*(O).
CLOSURE_QUERIES = ("[t: {[a: $x, b: B]}]", "[u: {X}]", "[t: {[a: X, b: Y]}, r1: {[a: Y]}]")

#: A query against one stored object.
AGAINST = "{[a: $x, b: B]}"

GAUGES = frozenset({"plans_cached", "closures_cached", "indexes_cached"})

atoms = st.integers(min_value=0, max_value=2)
pairs_of_atoms = st.tuples(atoms, atoms)
rows = st.frozensets(pairs_of_atoms, max_size=4)


def _set_text(pairs) -> str:
    return "{" + ", ".join(f"[a: {a}, b: {b}]" for a, b in sorted(pairs)) + "}"


def _bound(template: str, x: int):
    """The template with ``$x`` spliced in as a constant (the oracle's query)."""
    return parse_formula(template.replace("$x", str(x)))


def _params(template: str, x: int):
    return {"x": x} if "$x" in template else {}


class SessionMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.session = self.open()
        self.prepared = {}
        self.cursors = []
        self.last_info = self.session.cache_info()
        # The model: stored objects, the seed (None: unseeded), the rules.
        self.stored = {}
        self.seed = None
        self.rules = []

    def open(self):
        return repro.connect()

    def teardown(self):
        self.session.shutdown()

    # -- the model ------------------------------------------------------------------------
    def database(self):
        """O: the stored objects as one tuple, joined with the seed when seeded."""
        stored = TupleObject(dict(self.stored))
        if self.seed is None:
            return stored
        return self.seed if not self.stored else union(stored, self.seed)

    def closure(self):
        return oracle_close(self.database(), self.rules).value

    # -- writes ---------------------------------------------------------------------------
    @rule(name=st.sampled_from(NAMES), pairs=rows)
    def put(self, name, pairs):
        value = parse_object(_set_text(pairs))
        self.session.put(name, value)
        self.stored[name] = value

    @rule(name=st.sampled_from(NAMES))
    def remove(self, name):
        self.session.remove(name)
        self.stored.pop(name, None)

    @rule(first=rows, second=rows)
    def transact(self, first, second):
        """Write both names in one transaction."""
        values = dict(zip(NAMES, (parse_object(_set_text(pairs)) for pairs in (first, second))))

        def work(txn):
            for name, value in values.items():
                txn.put(name, value)

        self.session.transact(work)
        self.stored.update(values)

    @rule(name=st.sampled_from(NAMES), pair=pairs_of_atoms, add=st.booleans())
    def edit_set(self, name, pair, add):
        """Insert into or discard from a stored set through ``session.database``."""
        element = parse_object(_set_text([pair])).elements[0]
        database = self.session.database
        edit = database.insert if add else database.discard
        if name not in self.stored:
            with pytest.raises(StoreError):
                edit(name, "", element)
            return
        edit(name, "", element)
        old = self.stored[name]
        self.stored[name] = (
            SetObject(list(old) + [element])
            if add
            else SetObject([each for each in old if each is not element])
        )

    @rule(attribute=st.sampled_from(("s", "r1")), pairs=rows)
    def seed_object(self, attribute, pairs):
        value = parse_object(f"[{attribute}: {_set_text(pairs)}]")
        self.session.seed_object(value)
        self.seed = value if self.seed is None else union(self.seed, value)

    @rule(text=st.sampled_from(RULES))
    def register(self, text):
        self.session.register(text)
        self.rules.extend(parse_program(text))

    # -- reads ----------------------------------------------------------------------------
    def _prepared(self, template, **options):
        key = (template, tuple(sorted(options.items())))
        if key not in self.prepared:
            self.prepared[key] = self.session.prepare(template, **options)
        return self.prepared[key]

    @rule(template=st.sampled_from(QUERIES), x=atoms)
    def prepare_and_execute(self, template, x):
        answer = self._prepared(template).execute(_params(template, x)).all()
        assert answer == interpret(_bound(template, x), self.database())

    @rule(name=st.sampled_from(NAMES), x=atoms)
    def execute_against(self, name, x):
        prepared = self._prepared(AGAINST, against=name)
        if name not in self.stored:
            with pytest.raises(StoreError):
                prepared.execute(x=x)
            return
        assert prepared.execute(x=x).all() == interpret(_bound(AGAINST, x), self.stored[name])

    @rule()
    def close(self):
        assert self.session.close().value == self.closure()

    @rule(template=st.sampled_from(CLOSURE_QUERIES), x=atoms)
    def execute_on_closure(self, template, x):
        answer = self.session.execute(template, _params(template, x), on_closure=True).all()
        assert answer == interpret(_bound(template, x), self.closure())

    @rule(template=st.sampled_from(QUERIES), x=atoms, take=st.booleans())
    def open_cursor(self, template, x, take):
        """Open a cursor now (maybe take its first row); it is drained later."""
        cursor = self._prepared(template).execute(_params(template, x))
        if take:
            cursor.one()
        self.cursors.append((cursor, interpret(_bound(template, x), self.database())))

    @precondition(lambda self: self.cursors)
    @rule()
    def drain_cursor(self):
        cursor, expected = self.cursors.pop(0)
        assert cursor.all() == expected

    # -- invariants -----------------------------------------------------------------------
    @invariant()
    def stored_objects_are_the_models(self):
        assert self.session.names() == tuple(sorted(self.stored))
        for name, value in self.stored.items():
            assert self.session.get(name) is value, name

    @invariant()
    def counters_are_monotone(self):
        info = self.session.cache_info()
        for key, value in info.items():
            if key not in GAUGES:
                assert value >= self.last_info[key], key
        self.last_info = info


SessionMachine.TestCase.settings = settings(
    max_examples=75,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestSessionMachine = SessionMachine.TestCase


class WalSessionMachine(SessionMachine):
    """The session machine over a write-ahead-logged store, reopened at will."""

    def __init__(self):
        self.directory = tempfile.mkdtemp(prefix="repro-stateful-")
        super().__init__()

    def open(self):
        return repro.connect(os.path.join(self.directory, "store.wal"))

    def teardown(self):
        super().teardown()
        shutil.rmtree(self.directory, ignore_errors=True)

    def reopen(self):
        """A new session on the same log: the model's rules and seed come back."""
        self.session.shutdown()
        self.session = self.open()
        if self.rules:
            self.session.register(self.rules)
        if self.seed is not None:
            self.session.seed_object(self.seed)
        self.prepared = {}
        self.cursors = []
        self.last_info = self.session.cache_info()

    @rule()
    def compact(self):
        self.session.compact()

    @rule()
    def shutdown_and_reopen(self):
        self.reopen()

    @rule(name=st.sampled_from(NAMES), pairs=rows)
    def crash_mid_put(self, name, pairs):
        """A ``put`` whose append is torn by a crash never happened."""
        with inject(FaultSpec("store.wal.append", mode="torn_crash")):
            with pytest.raises(SimulatedCrash):
                self.session.put(name, parse_object(_set_text(pairs)))
        self.reopen()


WalSessionMachine.TestCase.settings = settings(
    max_examples=50,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestWalSessionMachine = WalSessionMachine.TestCase
