"""Executable docs: README.md's ```python blocks and every ``examples/*.py`` run as written.

The README blocks run in order in one namespace (a later block may use what
an earlier one defined), in a temporary directory holding a copy of
``examples/programs/``, so relative paths resolve as they do from the
repository root.  Each example runs in its own interpreter and asserts its
own claims.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: Runs each ``(line, code)`` block of the JSON file named by argv[1], compiled
#: as README.md at its own line numbers so a traceback points into the README.
_RUNNER = """
import json, sys
namespace = {"__name__": "__main__"}
for line, code in json.load(open(sys.argv[1], encoding="utf-8")):
    exec(compile("\\n" * line + code, "README.md", "exec"), namespace)
"""


def _python_blocks(text):
    """``(line, code)`` of every ```python block; ``line`` is the fence's line number."""
    return [
        (text.count("\n", 0, match.start()) + 1, match.group(1))
        for match in re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S)
    ]


def _run(args, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *args], cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_readme_python_blocks_run_in_order(tmp_path):
    blocks = _python_blocks((ROOT / "README.md").read_text(encoding="utf-8"))
    assert len(blocks) >= 6
    shutil.copytree(ROOT / "examples" / "programs", tmp_path / "examples" / "programs")
    (tmp_path / "blocks.json").write_text(json.dumps(blocks), encoding="utf-8")
    _run(["-c", _RUNNER, "blocks.json"], tmp_path)


@pytest.mark.parametrize("example", EXAMPLES, ids=[path.name for path in EXAMPLES])
def test_example_runs(example, tmp_path):
    _run([str(example)], tmp_path)
