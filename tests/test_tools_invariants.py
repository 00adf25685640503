"""The AST invariant checker (tools/check_invariants.py) holds on this tree."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).parent.parent
CHECKER = REPO_ROOT / "tools" / "check_invariants.py"

spec = importlib.util.spec_from_file_location("check_invariants", CHECKER)
check_invariants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_invariants)


class TestCurrentTreeIsClean:
    def test_raw_constructors(self):
        assert check_invariants.check_raw_constructors() == []

    def test_fault_points(self):
        assert check_invariants.check_fault_points() == []

    def test_lock_discipline(self):
        assert check_invariants.check_lock_discipline() == []

    def test_layering(self):
        assert check_invariants.check_layering() == []

    def test_session_version(self):
        assert check_invariants.check_session_version() == []

    def test_one_projection(self):
        assert check_invariants.check_one_projection() == []

    def test_one_diagnostic_home(self):
        assert check_invariants.check_one_diagnostic_home() == []

    def test_id_keyed_memos(self):
        assert check_invariants.check_id_keyed_memos() == []

    def test_one_depth_budget(self):
        assert check_invariants.check_one_depth_budget() == []

    def test_one_set_derivation(self):
        assert check_invariants.check_one_set_derivation() == []

    def test_script_exits_zero(self):
        completed = subprocess.run(
            [sys.executable, str(CHECKER)],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        for name, _ in check_invariants.CHECKS:
            assert f"invariant {name}: ok" in completed.stdout

    def test_readme_lists_exactly_the_invariants_the_script_runs(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        intro = readme.index("Codebase invariants — ")
        listing = readme[intro:].split("\n\n")[1]
        named = re.findall(r"^- `([a-z-]+)` — ", listing, flags=re.MULTILINE)
        assert named == [name for name, _ in check_invariants.CHECKS]


class TestRegistryParsing:
    def test_known_points_match_the_runtime_registry(self):
        """The AST-parsed registry equals the imported one (no drift)."""
        from repro.fault import KNOWN_POINTS

        parsed, _ = check_invariants._registered_points()
        assert parsed == set(KNOWN_POINTS)

    def test_every_fired_point_has_a_site(self):
        sites = check_invariants._fired_points()
        assert set(sites) == set(check_invariants._registered_points()[0])
        assert all(sites.values())


#: An ObjectDatabase that breaks each leg of the lock discipline once: two
#: state reads in a public method (twice), a state assignment outside the
#: commit's lock block and one in a private helper, an unlocked storage touch.
RACY_DATABASE = """\
class ObjectDatabase:
    def __init__(self, storage):
        self._storage = storage
        self._state = None

    def get(self, name):
        return self._state.get(name)

    def items(self):
        return [(name, self._state.get(name)) for name in self._state.names()]

    def __len__(self):
        state = self._state
        return len(state) if state is self._state else 0

    def commit_batch(self, changes):
        with self._lock:
            self._state = self._state.following(changes)
        self._state = None

    def compact(self):
        self._storage.compact()

    def _rebuild(self):
        self._state = self._state.following({})
"""


class TestLockDisciplineInvariant:
    def test_each_seeded_violation_is_reported(self, tmp_path):
        path = tmp_path / "database.py"
        path.write_text(RACY_DATABASE)
        violations = check_invariants.check_lock_discipline(path)
        lines = sorted(int(violation.split(": ")[0].rsplit(":", 1)[1]) for violation in violations)
        assert lines == [10, 14, 19, 22, 25]
        assert sum("more than once" in violation for violation in violations) == 2
        assert sum("assigns self._state" in violation for violation in violations) == 2
        assert sum("self._storage" in violation for violation in violations) == 1


def _package(tmp_path, files):
    """A throwaway ``repro`` package tree holding ``files`` (path → source)."""
    root = tmp_path / "repro"
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    for directory in [root, *(path for path in root.rglob("*") if path.is_dir())]:
        (directory / "__init__.py").touch()
    return root


class TestLayeringInvariant:
    def test_a_module_level_upward_import_is_flagged(self, tmp_path):
        root = _package(tmp_path, {
            "plan/compile.py": "from repro.engine.indexes import element_keys\n",
            "engine/indexes.py": "",
        })
        [violation] = check_invariants.check_layering(root)
        assert "plan/compile.py:1:" in violation
        assert "imports repro.engine.indexes" in violation

    def test_a_deferred_upward_import_is_flagged(self, tmp_path):
        root = _package(tmp_path, {
            "calculus/program.py": (
                "def evaluate(rules):\n"
                "    from repro.engine import SemiNaiveEngine\n"
                "    return SemiNaiveEngine(rules)\n"
            ),
            "engine/__init__.py": "",
        })
        [violation] = check_invariants.check_layering(root)
        assert "calculus/program.py:2:" in violation
        assert "imports repro.engine" in violation

    def test_every_store_import_of_the_planner_is_flagged(self, tmp_path):
        """The store sits below the planner: no form of import reaches it."""
        root = _package(tmp_path, {
            "store/clean.py": (
                "from repro.planets import compile_body\n"
                "from repro.core.paths import Path\n"
            ),
            "store/planner.py": (
                "from repro.plan import ScanLeaf, compile_body\n"
                "import repro.plan\n"
                "def pushdown_plan(parsed, target):\n"
                "    from repro.plan.statistics import DatabaseStatistics\n"
                "    from ..plan.optimize import optimize_body\n"
                "from repro.plan.ir import ScanLeaf\n"
                "import repro.plan.ir\n"
            ),
            "plan/optimize.py": "",
            "plan/statistics.py": "",
            "plan/ir.py": "",
            "core/paths.py": "",
        })
        violations = sorted(check_invariants.check_layering(root))
        assert [violation.split(": ")[0].rsplit("/", 1)[1] for violation in violations] == [
            "planner.py:1", "planner.py:2", "planner.py:4", "planner.py:5",
            "planner.py:6", "planner.py:7",
        ]
        assert "imports repro.plan," in violations[0]
        assert "imports repro.plan.statistics" in violations[2]
        assert "imports repro.plan.optimize" in violations[3]
        assert "repro.plan.ir" in violations[4] and "repro.plan.ir" in violations[5]
        assert all("clean.py" not in violation for violation in violations)

    def test_the_schema_library_is_a_leaf(self, tmp_path):
        """The store keeps untyped objects: only the top layer imports schema."""
        root = _package(tmp_path, {
            "store/database.py": (
                "from repro.schema.check import check_object\n"
                "def put(name, value):\n"
                "    from repro.schema import types\n"
            ),
            "cli.py": "from repro.schema import check_object\n",
            "schema/check.py": "",
            "schema/types.py": "",
        })
        violations = sorted(check_invariants.check_layering(root))
        assert [violation.split(": ")[0].rsplit("/", 1)[1] for violation in violations] == [
            "database.py:1", "database.py:3",
        ]
        assert "imports repro.schema.check" in violations[0]

    def test_same_layer_and_downward_imports_pass(self, tmp_path):
        root = _package(tmp_path, {
            "api.py": "from repro.core.paths import Path\n",
            "program.py": "from repro.api import Session\nfrom repro.plan import ir\n",
            "plan/execute.py": "from .ir import BodyPlan\nfrom repro.plan.stats import EngineStats\n",
            "plan/ir.py": "",
            "plan/stats.py": "",
            "core/paths.py": "",
        })
        assert check_invariants.check_layering(root) == []


#: A session that versions each cache on its own: four version reads outside
#: the two allowed methods, the shape of a plan / closure / index cache that
#: each check their own staleness.
SELF_VERSIONING_SESSION = """\
class Session:
    @property
    def version(self):
        return (self._db.version, self._seed_version, self._rules_version)

    def _current(self):
        version = self.version
        return self._snapshot if self._snapshot.version == version else None

    def close(self):
        version = self.version
        return self._closure_cache.get(version)

    def _indexes_for(self, target):
        if self._indexes_version != self.version:
            self._indexes.clear()

    def _plan_for(self, formula, plan):
        self._plan_cache[formula] = (self.version, plan)

    def _cached_plan(self, formula):
        entry = self._plan_cache.get(formula)
        return entry if entry is not None and entry[0] == self.version else None


class _Snapshot:
    def __init__(self, version):
        self.version = version


def stale(session, snapshot):
    return snapshot.version != session.version
"""


#: A session that reads targets from the store instead of from its snapshot's
#: state: three state reads outside ``_current``.
TARGET_READING_SESSION = """\
class Session:
    def _current(self):
        state = self._db.state()
        return state

    def _base_object(self):
        if len(self._db) == 0:
            return None
        return self._db.as_object()

    def _resolve(self, against):
        target = self._db.get(against)
        return self._db.state().get(against), target
"""


class TestSessionVersionInvariant:
    @staticmethod
    def _check(tmp_path, files):
        """Check a throwaway ``repro/api/`` package holding ``files``."""
        return check_invariants.check_session_version(_package(tmp_path, files) / "api")

    def test_every_way_of_taking_the_store_state_is_one_violation(self, tmp_path):
        violations = self._check(tmp_path, {"api/session.py": TARGET_READING_SESSION})
        lines = sorted(int(violation.split(": ")[0].rsplit(":", 1)[1]) for violation in violations)
        assert lines == [7, 9, 13]

    def test_each_self_versioned_cache_is_one_violation(self, tmp_path):
        violations = self._check(tmp_path, {"api/session.py": SELF_VERSIONING_SESSION})
        lines = sorted(int(violation.split(": ")[0].rsplit(":", 1)[1]) for violation in violations)
        assert lines == [11, 15, 19, 23]

    def test_the_database_version_counts_too(self, tmp_path):
        [violation] = self._check(tmp_path, {
            "api/session.py": (
                "class Session:\n"
                "    def put(self, name, value):\n"
                "        before = self._db.version\n"
                "        self._db.put(name, value)\n"
            ),
        })
        assert ":3:" in violation

    def test_every_module_of_the_package_is_scanned(self, tmp_path):
        """A snapshot that reads the store itself splits a call across two commits."""
        [violation] = self._check(tmp_path, {
            "api/session.py": "class Session:\n    def _current(self):\n        return self._db.state()\n",
            "api/snapshot.py": (
                "class Snapshot:\n"
                "    def base(self):\n"
                "        return self._db.state().as_object()\n"
            ),
        })
        assert "api/snapshot.py:3:" in violation


class TestOneProjectionInvariant:
    def test_each_per_row_instantiation_is_one_violation(self, tmp_path):
        root = _package(tmp_path, {
            "engine/core.py": (
                "from repro.calculus.substitution import instantiate\n"
                "def apply_full(rule, substitutions):\n"
                "    heads = [s.apply(rule.head) for s in substitutions]\n"
                "    return [instantiate(rule.head, s) for s in substitutions]\n"
            ),
            "plan/execute.py": (
                "from repro.calculus import substitution\n"
                "def interpret(body, rows):\n"
                "    return [substitution.instantiate(body, row) for row in rows]\n"
            ),
            "api/cursor.py": "def next_match(s, body):\n    return s.apply(body)\n",
            # The oracle keeps its per-row instantiation.
            "calculus/interpretation.py": (
                "from repro.calculus.substitution import instantiate\n"
                "def interpret(body, substitutions):\n"
                "    return [s.apply(body) for s in substitutions]\n"
            ),
        })
        violations = check_invariants.check_one_projection(root)
        lines = sorted(violation.split(": ")[0].split("repro/", 1)[1] for violation in violations)
        assert lines == [
            "api/cursor.py:2",
            "engine/core.py:1",
            "engine/core.py:3",
            "engine/core.py:4",
            "plan/execute.py:3",
        ]

    def test_each_binding_outside_the_allowlist_is_one_violation(self, tmp_path):
        root = _package(tmp_path, {
            "plan/parameters.py": (
                "def bind_body_plan(plan, values):\n"
                "    return bind_parameters(plan.body, values)\n"
            ),
            "api/cursor.py": (
                "from repro.plan.parameters import bind_body_plan\n"
                "def _render_explain(resolved):\n"
                "    return bind_body_plan(resolved.plan, resolved.params)\n"
                "class Cursor:\n"
                "    def _pull(self):\n"
                "        return bind_body_plan(self.plan, self.params)\n"
            ),
            "api/session.py": (
                "from repro.calculus import terms\n"
                "def _check_printable(formula, values):\n"
                "    return terms.bind_parameters(formula, values)\n"
                "def _resolve(formula, values):\n"
                "    return terms.bind_parameters(formula, values)\n"
            ),
            # The oracle binds as it likes.
            "calculus/interpretation.py": "def f(g, v):\n    return bind_parameters(g, v)\n",
        })
        violations = check_invariants.check_one_projection(root)
        lines = sorted(violation.split(": ")[0].split("repro/", 1)[1] for violation in violations)
        assert lines == ["api/cursor.py:6", "api/session.py:5"]
        assert all("BINDING_ALLOWED" in violation for violation in violations)


class TestOneDiagnosticHomeInvariant:
    def test_each_diagnostic_built_outside_lint_is_one_violation(self, tmp_path):
        root = _package(tmp_path, {
            "api/cursor.py": (
                "from repro.lint.diagnostics import new_diagnostic\n"
                "def check(name):\n"
                "    return [new_diagnostic('RL204', formula=name)]\n"
            ),
            "api/session.py": (
                "from repro.lint import diagnostics\n"
                "from repro.lint.diagnostics import Diagnostic\n"
                "def finding(message):\n"
                "    first = diagnostics.new_diagnostic('RL204', message=message)\n"
                "    return first, Diagnostic('RL204', 'warning', message, 'hint')\n"
            ),
            # Naming the type (annotations, isinstance) is fine outside lint.
            "core/errors.py": (
                "from repro.lint.diagnostics import Diagnostic\n"
                "def findings(error) -> 'tuple[Diagnostic, ...]':\n"
                "    return tuple(d for d in error.args if isinstance(d, Diagnostic))\n"
            ),
            # Inside repro.lint findings are built freely.
            "lint/shapes/checks.py": (
                "from repro.lint.diagnostics import Diagnostic, new_diagnostic\n"
                "def check(name):\n"
                "    return [new_diagnostic('RL204', formula=name)]\n"
            ),
        })
        violations = check_invariants.check_one_diagnostic_home(root)
        lines = sorted(violation.split(": ")[0].split("repro/", 1)[1] for violation in violations)
        assert lines == [
            "api/cursor.py:1",
            "api/cursor.py:3",
            "api/session.py:4",
            "api/session.py:5",
        ]


class TestIdKeyedMemosInvariant:
    def test_each_functools_cached_function_is_one_violation(self, tmp_path):
        root = _package(tmp_path, {
            "plan/compile.py": (
                "from functools import lru_cache\n"
                "@lru_cache(maxsize=4096)\n"
                "def compile_body(body):\n"
                "    return body\n"
                "@lru_cache\n"
                "def element_keys(element):\n"
                "    return ()\n"
            ),
            "plan/indexes.py": (
                "import functools as ft\n"
                "from functools import cache as memo, wraps\n"
                "@ft.cache\n"
                "def keys(element):\n"
                "    return ()\n"
                "@memo\n"
                "def paths(element):\n"
                "    return ()\n"
                "@wraps(paths)\n"
                "def wrapper(element):\n"
                "    return paths(element)\n"
            ),
            # The allowlisted function keeps its cache; a namesake elsewhere does not.
            "lint/shapes/infer.py": (
                "from functools import lru_cache\n"
                "@lru_cache(maxsize=128)\n"
                "def infer_shapes(rules, database=None):\n"
                "    return rules\n"
            ),
            "lint/analyzer.py": (
                "import functools\n"
                "@functools.lru_cache(maxsize=128)\n"
                "def infer_shapes(rules, database=None):\n"
                "    return rules\n"
            ),
            # An id-keyed memo is what the invariant asks for.
            "core/order.py": (
                "from repro.core.intern import node_memo\n"
                "@node_memo('subobject')\n"
                "def summary(node):\n"
                "    return node\n"
            ),
        })
        violations = check_invariants.check_id_keyed_memos(root)
        lines = sorted(violation.split(": ")[0].split("repro/", 1)[1] for violation in violations)
        assert lines == [
            "lint/analyzer.py:2",
            "plan/compile.py:2",
            "plan/compile.py:5",
            "plan/indexes.py:3",
            "plan/indexes.py:6",
        ]


class TestOneDepthBudgetInvariant:
    def test_each_recursion_catch_and_limit_read_outside_the_allowlist_is_one_violation(
        self, tmp_path
    ):
        root = _package(tmp_path, {
            "api/session.py": (
                "import builtins\n"
                "class Session:\n"
                "    def prepare(self, query):\n"
                "        try:\n"
                "            return query.to_text()\n"
                "        except RecursionError:\n"
                "            raise\n"
                "    def execute(self, query):\n"
                "        try:\n"
                "            return query.to_text()\n"
                "        except (ValueError, builtins.RecursionError) as error:\n"
                "            raise error\n"
            ),
            # An allowlisted object walk keeps its catch.
            "core/objects.py": (
                "class ComplexObject:\n"
                "    def to_text(self):\n"
                "        try:\n"
                "            return self._text()\n"
                "        except RecursionError:\n"
                "            raise\n"
            ),
            "calculus/rules.py": (
                "import sys\n"
                "from sys import getrecursionlimit\n"
                "def check(depth):\n"
                "    return depth > sys.getrecursionlimit()\n"
            ),
            # The budget function reads the limit; a typed NestingError is caught freely.
            "calculus/terms.py": (
                "import sys\n"
                "def within_budget(node, to):\n"
                "    return node._depth <= sys.getrecursionlimit() // 4\n"
                "def render(node):\n"
                "    try:\n"
                "        return node.to_text()\n"
                "    except NestingError:\n"
                "        raise\n"
            ),
            # A namesake of an allowlisted function in another module is not allowed.
            "lint/formulas.py": (
                "def pretty(value):\n"
                "    try:\n"
                "        return value.to_text()\n"
                "    except RecursionError:\n"
                "        return ''\n"
            ),
        })
        violations = check_invariants.check_one_depth_budget(root)
        lines = sorted(violation.split(": ")[0].split("repro/", 1)[1] for violation in violations)
        assert lines == [
            "api/session.py:11",
            "api/session.py:6",
            "calculus/rules.py:2",
            "calculus/rules.py:4",
            "lint/formulas.py:4",
        ]

    def test_every_allowlisted_site_exists_in_the_tree(self):
        sites = set()
        for path in check_invariants.SRC_ROOT.rglob("*.py"):
            tree, _ = check_invariants._parse(path)
            module = path.relative_to(check_invariants.SRC_ROOT).as_posix()
            sites |= {f"{module}::{scope}" for scope, _ in check_invariants._qualified_nodes(tree)}
        assert set(check_invariants.RECURSION_ALLOWED) <= sites
        assert check_invariants.BUDGET_FUNCTION in sites


class TestOneSetDerivationInvariant:
    ORDER = (
        "def _spliced(value, index, added, removed):\n"
        "    child = SetObject._from_derived(ordered, ids, depth, size)\n"
        "    object.__setattr__(child, '_tables', tables)\n"
        "    return child\n"
    )

    def test_only_the_module_of_spliced_may_derive_a_set(self, tmp_path):
        root = _package(tmp_path, {
            "core/order.py": self.ORDER,
            # Setting a set's own slots in its constructor is not a derivation.
            "core/objects.py": "def build(i):\n    object.__setattr__(i, '_elements', ())\n",
        })
        assert check_invariants.check_one_set_derivation(root) == []

    def test_one_violation_is_reported_once(self, tmp_path):
        root = _package(tmp_path, {
            "core/order.py": self.ORDER,
            "plan/indexes.py": (
                "def keep(members, tables):\n"
                "    object.__setattr__(members, '_tables', tables)\n"
            ),
        })
        (violation,) = check_invariants.check_one_set_derivation(root)
        assert violation.split("repro/", 1)[1].startswith("plan/indexes.py:2: sets a set's")

    def test_each_way_of_deriving_outside_is_one_violation(self, tmp_path):
        root = _package(tmp_path, {
            "core/order.py": self.ORDER,
            "core/lattice.py": (
                "def join(left, right):\n"
                "    child = SetObject._from_derived(o, i, d, s)\n"
                "    setattr(child, '_index', None)\n"
                "    return child\n"
            ),
        })
        violations = check_invariants.check_one_set_derivation(root)
        lines = sorted(violation.split(": ")[0].split("repro/", 1)[1] for violation in violations)
        assert lines == ["core/lattice.py:2", "core/lattice.py:3"]
