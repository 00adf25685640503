"""Cold start: an import loads its own layer and the layers below it, no more.

Each probe runs in a fresh interpreter, because this test process has long
since imported the whole stack.  ``repro/__init__`` is a table of lazy
exports, so ``import repro`` loads no layer, ``import repro.core`` loads the
model without the store, linter, engine or sessions above it, ``import
repro.store`` loads no calculus, schema, planner, linter, engine, parser or
session, and the CLI's ``parse`` subcommand never reaches the session stack.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_REPORT = (
    "\nimport json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules"
    " if m == 'repro' or m.startswith('repro.'))))\n"
)


def loaded_after(code: str) -> list:
    """The ``repro`` / ``repro.*`` modules a fresh interpreter holds after ``code``."""
    completed = subprocess.run(
        [sys.executable, "-c", code + _REPORT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def layers(modules) -> set:
    return {".".join(module.split(".")[:2]) for module in modules}


def test_bare_import_loads_no_layer():
    modules = loaded_after("import repro")
    assert len(modules) <= 10, modules


def test_core_import_stops_at_the_model():
    modules = loaded_after("import repro.core")
    assert not layers(modules) & {"repro.store", "repro.lint", "repro.engine", "repro.api"}


def test_store_import_stops_below_the_planner():
    # The store keeps untyped objects: no schema check, so no calculus either.
    modules = loaded_after("import repro.store")
    above = {
        "repro.calculus", "repro.schema",
        "repro.plan", "repro.lint", "repro.engine", "repro.parser", "repro.api",
    }
    assert not layers(modules) & above, modules
    assert len(modules) <= 28, modules


def test_cli_parse_stops_below_the_session_stack():
    modules = loaded_after(
        "import runpy, sys\n"
        "sys.argv = ['repro', 'parse', '[a: 1]']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as stop:\n"
        "    assert stop.code in (0, None), stop.code\n"
    )
    assert "repro.cli" in modules
    assert not layers(modules) & {"repro.store", "repro.api", "repro.engine"}


def test_exports_resolve_on_first_use():
    modules = loaded_after(
        "import repro\n"
        "assert set(repro.__all__) <= set(dir(repro))\n"
        "assert 'Session' not in vars(repro)\n"
        "import repro.api\n"
        "assert repro.Session is repro.api.Session and 'Session' in vars(repro)\n"
        "assert repro.store.ObjectDatabase.__module__ == 'repro.store.database'\n"
        "assert not hasattr(repro, 'no_such_name')\n"
    )
    assert "repro.store.database" in modules
