#!/usr/bin/env python
"""Codebase invariants, checked with nothing but the stdlib ``ast`` module.

Eleven invariants that matter for correctness but that no unit test can pin
(they are properties of the *source*, not of any one execution):

``raw-constructors``
    ``SetObject.raw`` / ``TupleObject.raw`` bypass reduction and interning;
    outside :mod:`repro.core` every object must go through the reducing
    constructors.  A deliberate exception (e.g. the workload generator that
    *needs* an unreduced set to benchmark reduction) carries the pragma
    ``# invariant: allow-raw`` on the offending line.

``fault-points``
    ``repro.fault.injection.KNOWN_POINTS`` is the registry of every fault
    injection point.  Every ``fire("...")`` call site in ``src/`` must name
    a registered point, and every registered point must have at least one
    call site — so the sweep harness and the docs can never drift from the
    real fault surface.

``diagnostic-codes``
    ``repro.lint.diagnostics._REGISTRY`` is the registry of every stable
    ``RLxxx`` diagnostic code.  Every registered code must appear as a row
    in the README's diagnostics table **and** in at least one
    ``tests/lint_corpus/*.expected`` sidecar (so every code has a pinned
    witness program), and every code the README or the corpus mentions must
    be registered — docs, corpus and registry can never drift.  Codes the
    parser makes unreachable from source programs (``RL001``: the ``Rule``
    constructor rejects unbound head variables; ``RL102``: the parser
    rejects ``$parameters`` inside rules) are exempt from the corpus leg
    only.

``lock-discipline``
    :class:`repro.store.ObjectDatabase` publishes one immutable state per
    commit.  So a public method (dunders included, ``__init__`` excepted)
    reads ``self._state`` at most once — two reads could see two commits —
    and ``self._state`` is assigned only in ``__init__`` and inside
    ``commit_batch``'s ``with self._lock:`` block.  The one thing commits
    still mutate in place, the log (``_storage``), is touched by public
    methods only inside ``with self._lock:``.  Private helpers are
    exempt from the last rule (their contract is "callers hold the lock");
    a public-method exception (e.g. teardown, which is single-threaded by
    contract) carries the pragma ``# invariant: unlocked-ok``.

``layering``
    The package graph is the pipeline: every module of ``src/repro/``
    belongs to one layer of :data:`LAYERS` and imports only from its own
    layer or an earlier one — at module level or deferred inside a
    function, so no deferred import can hide a cycle.  The order is
    ``core`` → ``obs`` / ``fault`` (injection, deadline) → ``calculus`` →
    ``parser`` → ``store`` → ``plan`` → ``lint`` → ``engine`` → ``api`` +
    ``program`` → ``cli`` / ``fault.sweep`` / ``__main__`` /
    ``repro/__init__``.  So the store sits below the planner, the linter
    and the engine: it neither plans, reads plans nor evaluates rules, and
    planning lives in one place (``Session._resolve`` in
    :mod:`repro.api.session`).  The :data:`LEAVES` (``schema``,
    ``relational``, ``datalog``, ``algebra``, ``workloads``) may import
    anything, and only the top layer may import them: the store keeps
    untyped objects and checks no schema.  There is no pragma.

``session-version``
    A session derives its plans, index stores, closures and targets from one
    committed state of its database (:class:`repro.api.snapshot.Snapshot`),
    so in every module of ``repro/api/`` the store's state is taken —
    ``self._db.state()``, ``self.version`` / ``self._db.version``,
    ``self._db.as_object()``, ``len(self._db)`` — only inside
    ``Session.version`` and ``Session._current``; every other method takes
    the snapshot from ``_current()`` once and reads its targets from
    ``snapshot.state``.  There is no pragma.

``one-projection``
    A rule head or query body is joined over the executor's rows by one
    compiled projection (:func:`repro.plan.compile.compile_projection`), so
    no module under ``src/repro/engine/``, ``src/repro/plan/`` or
    ``src/repro/api/`` references ``instantiate`` or calls ``.apply(...)``
    (a substitution's instantiation): a per-row instantiation there is a
    second, slower head path — the streaming cursor projects each row too.
    Only the oracle (:mod:`repro.calculus`) keeps ``instantiate``.  Likewise
    a prepared execution reads its ``$parameters`` from slots, so no module
    under ``src/repro/plan/`` or ``src/repro/api/`` calls ``bind_parameters``
    or ``bind_body_plan`` outside :data:`BINDING_ALLOWED` (each site with its
    reason): a bound formula or plan per execution is a second, slower
    parameter path.  There is no pragma.

``one-diagnostic-home``
    A lint finding is built, counted and cached behind :mod:`repro.lint`
    (codes, severities and hints come from its registry), so no module
    outside ``src/repro/lint/`` imports ``new_diagnostic`` or constructs a
    ``Diagnostic``: a finding built elsewhere is a second copy of its
    message and its counters.  Code outside asks :mod:`repro.lint` for
    findings (e.g. ``check_bindings`` for RL204 at bind time).  There is no
    pragma.

``id-keyed-memos``
    Objects and formulae are hash-consed, so a memo keys on intern ids
    (:func:`repro.core.intern.node_memo`, an ``IdPairCache`` registered
    with ``clear_object_caches()``), never on hashed arguments: no module
    under ``src/`` uses ``functools.lru_cache`` or ``functools.cache``
    outside the functions of :data:`CACHE_ALLOWED`, each listed with its
    reason.  There is no pragma.

``one-depth-budget``
    A formula is refused at intake when it is deeper than the one depth
    budget (:func:`repro.calculus.terms.within_budget`, a quarter of the
    recursion limit), so no formula walk can overflow the stack.  So
    ``sys.getrecursionlimit`` is read only by that function, and ``except
    RecursionError`` appears under ``src/`` only at the sites of
    :data:`RECURSION_ALLOWED` (module, qualified function), each listed
    with its reason: untrusted text, object walks (printing, ordering, the
    closure's union and projection, and the resume check's union, which
    falls back to a full close), the WAL's encode refusal and the converter
    of Python values.  Planning and linting walk data without recursing over
    its depth (the shape fold and the statistics' spine walk run on explicit
    stacks), so they catch nothing.  There is no pragma.

``one-set-derivation``
    An interned set carries what is derived from it — its domination index
    (slot ``_index``) and its bucket tables (slot ``_tables``) — and a set
    that ``add``, ``discard`` or a union derives from another gets both from
    one function, ``_spliced`` of :mod:`repro.core.order`.  So only the
    module that defines ``_spliced`` may set those slots
    (``object.__setattr__(set, "_index" | "_tables", ...)`` or ``setattr``)
    or call ``SetObject._from_derived``: a second place that derives a set
    would have to keep its tables right a second time.  There is no pragma.

Run from the repository root::

    python tools/check_invariants.py

Exit status 0 when every invariant holds, 1 otherwise (one ``path:line:``
diagnostic per violation).  No imports of ``repro`` itself: the checks are
pure source analysis, so they run before the package is even importable.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

ALLOW_RAW_PRAGMA = "invariant: allow-raw"
UNLOCKED_OK_PRAGMA = "invariant: unlocked-ok"

#: ObjectDatabase attributes commits mutate in place, guarded by ``self._lock``.
PROTECTED_ATTRIBUTES = frozenset({"_storage"})

#: The ObjectDatabase attribute holding the published, immutable state.
STATE_ATTRIBUTE = "_state"


def _python_sources(root: Path) -> Iterator[Path]:
    yield from sorted(root.rglob("*.py"))


def _parse(path: Path) -> Tuple[ast.Module, List[str]]:
    text = path.read_text(encoding="utf-8")
    return ast.parse(text, filename=str(path)), text.splitlines()


def _relative(path: Path) -> str:
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:  # a tree outside the repository (the checker's own tests)
        return str(path)


# -- invariant 1: raw constructors stay inside repro.core --------------------------------


def check_raw_constructors() -> List[str]:
    violations: List[str] = []
    for path in _python_sources(SRC_ROOT):
        if (SRC_ROOT / "core") in path.parents:
            continue
        tree, lines = _parse(path)
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "raw"
            ):
                continue
            line = lines[node.lineno - 1] if node.lineno <= len(lines) else ""
            if ALLOW_RAW_PRAGMA in line:
                continue
            violations.append(
                f"{_relative(path)}:{node.lineno}: raw constructor call outside"
                f" repro.core (use the reducing constructors, or add"
                f" `# {ALLOW_RAW_PRAGMA}` with a justification)"
            )
    return violations


# -- invariant 2: fire() call sites match KNOWN_POINTS -----------------------------------


def _registered_points() -> Tuple[Set[str], Path]:
    path = SRC_ROOT / "fault" / "injection.py"
    tree, _ = _parse(path)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if "KNOWN_POINTS" not in targets:
            continue
        call = node.value
        if (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "frozenset"
            and call.args
        ):
            literal = ast.literal_eval(call.args[0])
            return set(literal), path
    raise SystemExit(
        f"{_relative(path)}: KNOWN_POINTS = frozenset({{...}}) not found — the"
        " fault-point registry moved; update tools/check_invariants.py"
    )


def _fired_points() -> Dict[str, List[str]]:
    sites: Dict[str, List[str]] = {}
    injection = SRC_ROOT / "fault" / "injection.py"
    for path in _python_sources(SRC_ROOT):
        if path == injection:  # the generic fire(point) trampoline lives here
            continue
        tree, _ = _parse(path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else None
            )
            if name != "fire" or not node.args:
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                sites.setdefault(first.value, []).append(
                    f"{_relative(path)}:{node.lineno}"
                )
    return sites


def check_fault_points() -> List[str]:
    registered, registry_path = _registered_points()
    fired = _fired_points()
    violations: List[str] = []
    for point in sorted(set(fired) - registered):
        for site in fired[point]:
            violations.append(
                f"{site}: fire({point!r}) names a point absent from"
                f" KNOWN_POINTS in {_relative(registry_path)}"
            )
    for point in sorted(registered - set(fired)):
        violations.append(
            f"{_relative(registry_path)}: KNOWN_POINTS entry {point!r} has no"
            f" fire(...) call site in src/ — remove it or wire it up"
        )
    return violations


# -- invariant 3: registry codes ↔ README table ↔ corpus sidecars ------------------------

#: Codes no parsed corpus program can produce: the constructor/parser rejects
#: the offending source before the analyzer ever sees it.
CORPUS_EXEMPT = frozenset({"RL001", "RL102"})

CODE_PATTERN = re.compile(r"RL\d{3}")


def _registered_codes() -> Tuple[Set[str], Path]:
    path = SRC_ROOT / "lint" / "diagnostics.py"
    tree, _ = _parse(path)
    for node in ast.walk(tree):
        target = None
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            target = node.target.id
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            target = names[0] if names else None
        if target != "_REGISTRY" or node.value is None:
            continue
        codes = set()
        for call in ast.walk(node.value):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "CodeInfo"
                and call.args
                and isinstance(call.args[0], ast.Constant)
                and isinstance(call.args[0].value, str)
            ):
                codes.add(call.args[0].value)
        if codes:
            return codes, path
    raise SystemExit(
        f"{_relative(path)}: _REGISTRY = (CodeInfo(...), ...) not found — the"
        " diagnostics registry moved; update tools/check_invariants.py"
    )


def _readme_codes() -> Tuple[Set[str], Path]:
    path = REPO_ROOT / "README.md"
    codes: Set[str] = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        # Only table rows count as documentation: a code mentioned in prose
        # or an example transcript does not document its meaning.
        if line.lstrip().startswith("|"):
            codes.update(CODE_PATTERN.findall(line))
    return codes, path


def _corpus_codes() -> Tuple[Set[str], Path]:
    root = REPO_ROOT / "tests" / "lint_corpus"
    codes: Set[str] = set()
    for sidecar in sorted(root.glob("*.expected")):
        codes.update(CODE_PATTERN.findall(sidecar.read_text(encoding="utf-8")))
    return codes, root


def check_diagnostic_codes() -> List[str]:
    registered, registry_path = _registered_codes()
    documented, readme_path = _readme_codes()
    pinned, corpus_root = _corpus_codes()
    violations: List[str] = []
    for code in sorted(registered - documented):
        violations.append(
            f"{_relative(readme_path)}: registered code {code} has no row in"
            f" the README diagnostics table — document it"
        )
    for code in sorted(documented - registered):
        violations.append(
            f"{_relative(readme_path)}: README documents {code} but"
            f" {_relative(registry_path)} does not register it"
        )
    for code in sorted(registered - pinned - CORPUS_EXEMPT):
        violations.append(
            f"{_relative(corpus_root)}: registered code {code} appears in no"
            f" *.expected sidecar — add a witness program that produces it"
        )
    for code in sorted(pinned - registered):
        violations.append(
            f"{_relative(corpus_root)}: a sidecar expects {code} but"
            f" {_relative(registry_path)} does not register it"
        )
    return violations


# -- invariant 4: ObjectDatabase lock discipline -----------------------------------------


def _is_self_attribute(node: ast.AST, name: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == name
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _is_lock_with(node: ast.AST) -> bool:
    return isinstance(node, ast.With) and any(
        _is_self_attribute(item.context_expr, "_lock") for item in node.items
    )


def _attribute_uses(node: ast.AST, locked: bool = False) -> Iterator[Tuple[ast.Attribute, bool]]:
    """Every ``self.<attr>`` below ``node``, with whether it sits under ``with self._lock:``."""
    locked = locked or _is_lock_with(node)
    if isinstance(node, ast.Attribute) and _is_self_attribute(node, node.attr):
        yield node, locked
    for child in ast.iter_child_nodes(node):
        yield from _attribute_uses(child, locked)


def check_lock_discipline(path: Path = SRC_ROOT / "store" / "database.py") -> List[str]:
    tree, lines = _parse(path)
    violations: List[str] = []

    def report(node: ast.AST, method: str, message: str) -> None:
        violations.append(f"{_relative(path)}:{node.lineno}: ObjectDatabase.{method} {message}")

    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and node.name == "ObjectDatabase"):
            continue
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = method.name
            public = not name.startswith("_") or (name.endswith("__") and name != "__init__")
            state_reads = []
            for access, locked in _attribute_uses(method):
                if access.attr == STATE_ATTRIBUTE and isinstance(access.ctx, ast.Load):
                    state_reads.append(access)
                elif access.attr == STATE_ATTRIBUTE:
                    if not (name == "__init__" or (name == "commit_batch" and locked)):
                        report(access, name, "assigns self._state outside __init__ and"
                               " commit_batch's `with self._lock:` block (a state is"
                               " published once, by the commit that built it)")
                elif public and access.attr in PROTECTED_ATTRIBUTES and not locked:
                    line = lines[access.lineno - 1] if access.lineno <= len(lines) else ""
                    if UNLOCKED_OK_PRAGMA not in line:
                        report(access, name, f"touches self.{access.attr} outside"
                               f" `with self._lock:` (add the lock, or"
                               f" `# {UNLOCKED_OK_PRAGMA}` with a justification)")
            if public:
                for access in state_reads[1:]:
                    report(access, name, "reads self._state more than once (two reads"
                           " can see two commits: take it once into a local)")
    return violations


# -- invariant 5: imports run down the layer order --------------------------------------

#: The pipeline, bottom first: module-name prefixes below ``repro.`` per
#: layer.  The longest matching prefix decides (``fault.sweep`` sits at the
#: top, the rest of ``fault`` beside ``obs``); ``""`` is ``repro/__init__``.
LAYERS: Tuple[Tuple[str, ...], ...] = (
    ("core",),
    ("obs", "fault"),
    ("calculus",),
    ("parser",),
    ("store",),
    ("plan",),
    ("lint",),
    ("engine",),
    ("api", "program"),
    ("cli", "fault.sweep", "__main__", ""),
)

#: Packages outside the line: they may import any layer, and only the top
#: layer may import them.
LEAVES = frozenset({"schema", "relational", "datalog", "algebra", "workloads"})

_TOP = len(LAYERS) - 1
_LEAF = -1


def _module_name(path: Path, package_root: Path) -> str:
    """``repro.plan.ir`` for ``<root>/plan/ir.py``, ``repro`` for the root package."""
    parts = list(path.relative_to(package_root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join([package_root.name, *parts])


def _layer(module: str, package: str) -> Optional[int]:
    """The layer index of ``module``, :data:`_LEAF` for a leaf, ``None`` if unplaced."""
    local = module[len(package) + 1:] if module != package else ""
    if local.split(".")[0] in LEAVES:
        return _LEAF
    best: Optional[Tuple[int, int]] = None
    for index, prefixes in enumerate(LAYERS):
        for prefix in prefixes:
            matches = local == prefix or (prefix != "" and local.startswith(prefix + "."))
            if matches and (best is None or len(prefix) > best[0]):
                best = (len(prefix), index)
    return None if best is None else best[1]


def _imported_modules(node: ast.AST, module: str, is_package: bool, root: Path) -> List[str]:
    """The ``repro`` modules one import statement loads (``from pkg import mod`` → ``pkg.mod``)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    base = node.module or ""
    if node.level:
        anchor = module.split(".")
        if not is_package:
            anchor = anchor[:-1]
        anchor = anchor[: len(anchor) - node.level + 1]
        base = ".".join(anchor + ([base] if base else []))
    found = []
    for alias in node.names:
        candidate = root.parent.joinpath(*f"{base}.{alias.name}".split("."))
        is_module = candidate.with_suffix(".py").is_file() or (candidate / "__init__.py").is_file()
        found.append(f"{base}.{alias.name}" if is_module else base)
    return list(dict.fromkeys(found))


def check_layering(package_root: Path = SRC_ROOT) -> List[str]:
    package = package_root.name
    violations: List[str] = []
    for path in _python_sources(package_root):
        module = _module_name(path, package_root)
        layer = _layer(module, package)
        if layer is None:
            violations.append(
                f"{_relative(path)}:1: {module} belongs to no layer — add it to"
                f" LAYERS or LEAVES in tools/check_invariants.py"
            )
            continue
        if layer == _LEAF:
            continue
        tree, _ = _parse(path)
        for node in ast.walk(tree):
            imported = _imported_modules(node, module, path.name == "__init__.py", package_root)
            for target in imported:
                if target != package and not target.startswith(package + "."):
                    continue
                target_layer = _layer(target, package)
                if target_layer is None:
                    continue  # reported once, at the unplaced module itself
                if target_layer == _LEAF and layer != _TOP:
                    why = "a leaf only the top layer may import (see LEAVES)"
                elif target_layer != _LEAF and target_layer > layer:
                    why = "which comes later in the layer order (see LAYERS)"
                else:
                    continue
                violations.append(
                    f"{_relative(path)}:{node.lineno}: {module} imports {target}, {why}"
                )
    return violations


# -- invariant 6: the session reads its version in one place ------------------------------

#: The :class:`repro.api.session.Session` methods that may take the store's state:
#: the version property itself and the snapshot transition.
VERSION_READERS = frozenset({"version", "_current"})


def _is_version_read(node: ast.AST) -> bool:
    """``self.version``, ``self._db.version`` / ``.state`` / ``.as_object``, ``len(self._db)``."""
    if isinstance(node, ast.Call):
        return (
            isinstance(node.func, ast.Name)
            and node.func.id == "len"
            and len(node.args) == 1
            and _is_self_attribute(node.args[0], "_db")
        )
    if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
        return False
    if _is_self_attribute(node.value, "_db"):
        return node.attr in ("version", "state", "as_object")
    return node.attr == "version" and isinstance(node.value, ast.Name) and node.value.id == "self"


def check_session_version(api_root: Path = SRC_ROOT / "api") -> List[str]:
    violations: List[str] = []
    for path in _python_sources(api_root):
        tree, _ = _parse(path)
        allowed: Set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "Session":
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and method.name in VERSION_READERS:
                        allowed.update(id(inner) for inner in ast.walk(method))
        violations.extend(
            f"{_relative(path)}:{node.lineno}: takes the store's state outside"
            f" Session.version / Session._current (take the snapshot from"
            f" self._current() once per call and read targets from snapshot.state)"
            for node in ast.walk(tree)
            if _is_version_read(node) and id(node) not in allowed
        )
    return violations


# -- invariant 7: heads are projected, never instantiated per row ------------------------

PROJECTION_PACKAGES = ("engine", "plan", "api")


#: The calls that build a formula or plan with its ``$parameters`` bound.
BINDERS = ("bind_parameters", "bind_body_plan")

#: The packages whose executions read ``$parameters`` from slots.
BINDING_PACKAGES = ("plan", "api")

#: ``module path inside the package::qualified function`` → why it may bind.
BINDING_ALLOWED = {
    "plan/parameters.py::bind_body_plan": (
        "the oracle of slot execution, and the e2e plan.bind probe"
    ),
    "api/session.py::_check_printable": "EXPLAIN prints the bound query: name a too-deep value",
    "api/cursor.py::_render_explain": "EXPLAIN renders the plan bound to its values",
    "api/cursor.py::Cursor._plan": "the bound plan a cursor's EXPLAIN renders",
}


def check_one_projection(package_root: Path = SRC_ROOT) -> List[str]:
    violations: List[str] = []
    for package in BINDING_PACKAGES:
        for path in _python_sources(package_root / package):
            tree, _ = _parse(path)
            module = path.relative_to(package_root).as_posix()
            for scope, node in _qualified_nodes(tree):
                if not isinstance(node, ast.Call):
                    continue
                named = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if named in BINDERS and f"{module}::{scope}" not in BINDING_ALLOWED:
                    violations.append(
                        f"{_relative(path)}:{node.lineno}: calls {named} outside"
                        f" BINDING_ALLOWED (read $parameters from their slots: pass"
                        f" params to the executor and the projection)"
                    )
    for package in PROJECTION_PACKAGES:
        for path in _python_sources(package_root / package):
            tree, _ = _parse(path)
            for node in ast.walk(tree):
                named = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, ast.alias):
                    named = node.name
                if named == "instantiate":
                    what = "references instantiate"
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "apply"
                ):
                    what = "instantiates through .apply()"
                else:
                    continue
                violations.append(
                    f"{_relative(path)}:{node.lineno}: {what} (join heads over the"
                    f" match rows with repro.plan.compile.compile_projection)"
                )
    return violations


# -- invariant 8: lint findings are built inside repro.lint only -------------------------

DIAGNOSTIC_BUILDERS = ("new_diagnostic", "Diagnostic")


def check_one_diagnostic_home(package_root: Path = SRC_ROOT) -> List[str]:
    violations: List[str] = []
    home = package_root / "lint"
    for path in _python_sources(package_root):
        if home in path.parents:
            continue
        tree, _ = _parse(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.alias) and node.name.split(".")[-1] == "new_diagnostic":
                what = "imports new_diagnostic"
            elif isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            ) in DIAGNOSTIC_BUILDERS:
                what = "constructs a diagnostic"
            else:
                continue
            violations.append(
                f"{_relative(path)}:{node.lineno}: {what} (build lint findings"
                f" inside repro.lint and ask it for them)"
            )
    return violations


# -- invariant 9: memos key on intern ids ------------------------------------------------

FUNCTOOLS_CACHES = ("lru_cache", "cache")

#: ``module path inside the package::function`` → why it keeps a functools cache.
CACHE_ALLOWED = {
    "lint/shapes/infer.py::infer_shapes": (
        "keyed on (rules, database); emptying it per cold op doubles genealogy_closure's"
        " op, so it stays until it is re-keyed on the database's shape (ROADMAP 15(b))"
    ),
}


def check_id_keyed_memos(package_root: Path = SRC_ROOT) -> List[str]:
    violations: List[str] = []
    for path in _python_sources(package_root):
        tree, _ = _parse(path)
        module = path.relative_to(package_root).as_posix()
        modules, names = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                names |= {a.asname or a.name for a in node.names if a.name in FUNCTOOLS_CACHES}
        allowed = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and f"{module}::{node.name}" in CACHE_ALLOWED
            for decorator in node.decorator_list
            for inner in ast.walk(decorator)
        }
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if isinstance(node, ast.Name) and node.id in names or (
                isinstance(node, ast.Attribute)
                and node.attr in FUNCTOOLS_CACHES
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                violations.append(
                    f"{_relative(path)}:{node.lineno}: uses a functools cache (memoise"
                    f" on intern ids with repro.core.intern.node_memo)"
                )
    return violations


# -- invariant 10: one depth budget for formulae ------------------------------------------

#: ``module path inside the package::qualified function`` → why it may catch RecursionError.
RECURSION_ALLOWED = {
    "parser/parser.py::parse_object": "untrusted text: converting what parsed",
    "parser/parser.py::_Parser.parse_single_term": "untrusted text: the recursive descent",
    "parser/parser.py::_Parser.parse_clause": "untrusted text: the recursive descent",
    "store/codec.py::parse_record": "untrusted text: decoding a WAL record",
    "store/storage.py::_decoded": "untrusted text: decoding a WAL record's objects",
    "store/storage.py::FileStorage.apply_batch": "encoding a WAL record of a deep object",
    "core/objects.py::ComplexObject.to_text": "an object walk: printing",
    "core/objects.py::SetObject.__new__": "an object walk: ordering the elements",
    "core/objects.py::SetObject.raw": "an object walk: ordering the elements",
    "core/objects.py::SetObject.add": "an object walk: ordering the elements",
    "core/objects.py::SetObject.discard": "an object walk: ordering the elements",
    "parser/printer.py::pretty": "an object walk: printing",
    "core/builder.py::converting": "obj() / formula(): converting outside Python values",
    "engine/core.py::SemiNaiveEngine.run": "an object walk: the closure's union and projection",
    "api/snapshot.py::Snapshot.resume": "an object walk: seeds too deep to compare close in full",
}

#: The one function that reads the recursion limit: the formula depth budget.
BUDGET_FUNCTION = "calculus/terms.py::within_budget"


def _qualified_nodes(tree: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
    """Every node with the qualified name of its innermost enclosing function ("" at top)."""
    stack: List[Tuple[ast.AST, str]] = [(tree, "")]
    while stack:
        node, scope = stack.pop()
        yield scope, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))


def check_one_depth_budget(package_root: Path = SRC_ROOT) -> List[str]:
    violations: List[str] = []
    for path in _python_sources(package_root):
        tree, _ = _parse(path)
        module = path.relative_to(package_root).as_posix()
        for scope, node in _qualified_nodes(tree):
            site = f"{module}::{scope}"
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = {
                    getattr(inner, "id", getattr(inner, "attr", None))
                    for inner in ast.walk(node.type)
                }
                if "RecursionError" in caught and site not in RECURSION_ALLOWED:
                    violations.append(
                        f"{_relative(path)}:{node.lineno}: catches RecursionError outside"
                        f" RECURSION_ALLOWED (check a formula with within_budget at its"
                        f" intake instead, or list the site with its reason)"
                    )
            named = getattr(node, "attr", None) or getattr(node, "id", None)
            if isinstance(node, ast.alias):
                named = node.name
            if named == "getrecursionlimit" and site != BUDGET_FUNCTION:
                violations.append(
                    f"{_relative(path)}:{node.lineno}: reads the recursion limit outside"
                    f" {BUDGET_FUNCTION} (the one formula depth budget)"
                )
    return violations


# -- invariant 11: one place derives a set ------------------------------------------------

#: The slots of an interned set that hold what is derived from it.
DERIVED_SLOTS = frozenset({"_index", "_tables"})

#: The function whose module alone may set them.
DERIVING_FUNCTION = "_spliced"


def check_one_set_derivation(package_root: Path = SRC_ROOT) -> List[str]:
    violations: List[str] = []
    for path in _python_sources(package_root):
        tree, _ = _parse(path)
        if any(
            isinstance(node, ast.FunctionDef) and node.name == DERIVING_FUNCTION
            for node in tree.body
        ):
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            named = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            slot = node.args[1] if len(node.args) > 1 else None
            if named == "_from_derived":
                what = "calls SetObject._from_derived"
            elif (
                named in ("__setattr__", "setattr")
                and isinstance(slot, ast.Constant)
                and slot.value in DERIVED_SLOTS
            ):
                what = f"sets a set's derived slot {slot.value}"
            else:
                continue
            violations.append(
                f"{_relative(path)}:{node.lineno}: {what} (only the module of"
                f" {DERIVING_FUNCTION}, repro.core.order, derives a set)"
            )
    return violations


# -- entry point -------------------------------------------------------------------------


#: Every invariant, by the name the report prints, in run order.  README's
#: "Codebase invariants" list names exactly these (a tier-1 test checks it).
CHECKS = (
    ("raw-constructors", check_raw_constructors),
    ("fault-points", check_fault_points),
    ("diagnostic-codes", check_diagnostic_codes),
    ("lock-discipline", check_lock_discipline),
    ("layering", check_layering),
    ("session-version", check_session_version),
    ("one-projection", check_one_projection),
    ("one-diagnostic-home", check_one_diagnostic_home),
    ("id-keyed-memos", check_id_keyed_memos),
    ("one-depth-budget", check_one_depth_budget),
    ("one-set-derivation", check_one_set_derivation),
)


def main() -> int:
    failures = 0
    for name, check in CHECKS:
        violations = check()
        if violations:
            failures += len(violations)
            print(f"invariant {name}: {len(violations)} violation(s)")
            for violation in violations:
                print(f"  {violation}")
        else:
            print(f"invariant {name}: ok")
    if failures:
        print(f"\n{failures} invariant violation(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
