"""The AST invariant checker (tools/check_invariants.py) holds on this tree."""

import importlib.util
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

    def test_store_planning(self):
        assert check_invariants.check_store_planning() == []

    def test_layering(self):
        assert check_invariants.check_layering() == []

    def test_session_version(self):
        assert check_invariants.check_session_version() == []

    def test_one_projection(self):
        assert check_invariants.check_one_projection() == []

    def test_one_diagnostic_home(self):
        assert check_invariants.check_one_diagnostic_home() == []

    def test_script_exits_zero(self):
        completed = subprocess.run(
            [sys.executable, str(CHECKER)],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "invariant raw-constructors: ok" in completed.stdout
        assert "invariant layering: ok" in completed.stdout
        assert "invariant session-version: ok" in completed.stdout
        assert "invariant one-projection: ok" in completed.stdout
        assert "invariant one-diagnostic-home: ok" in completed.stdout


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


class TestStorePlanningInvariant:
    def test_a_seeded_violation_is_reported_per_import(self, tmp_path):
        (tmp_path / "clean.py").write_text(
            "from repro.plan.ir import ScanLeaf\n"
            "import repro.plan.ir\n"
            "from repro.planets import compile_body\n"
            "from repro.core.paths import Path\n"
        )
        (tmp_path / "planner.py").write_text(
            "from repro.plan import ScanLeaf, compile_body\n"
            "import repro.plan\n"
            "def pushdown_plan(parsed, target):\n"
            "    from repro.plan.statistics import DatabaseStatistics\n"
            "    from ..plan.optimize import optimize_body\n"
        )
        violations = sorted(check_invariants.check_store_planning(tmp_path))
        assert [violation.split(": ")[0].rsplit("/", 1)[1] for violation in violations] == [
            "planner.py:1", "planner.py:1", "planner.py:2", "planner.py:4", "planner.py:5",
        ]
        assert "repro.plan.compile_body" in violations[1]
        assert "repro.plan.optimize" in violations[4]
        assert all("clean.py" not in violation for violation in violations)


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

    def find(self, pattern):
        with self._lock:
            return [name for name in self._indexes]

    def _rebuild(self):
        self._state = self._state.following({})
"""


class TestLockDisciplineInvariant:
    def test_each_seeded_violation_is_reported(self, tmp_path):
        path = tmp_path / "database.py"
        path.write_text(RACY_DATABASE)
        violations = check_invariants.check_lock_discipline(path)
        lines = sorted(int(violation.split(": ")[0].rsplit(":", 1)[1]) for violation in violations)
        assert lines == [10, 14, 19, 22, 29]
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
