"""Every cross-check fires: each row of tests/faults.py at the library and
the CLI, again under python -O, and each raise of InconsistencyError in the
package is reached by some row."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dyhat
import faults

SRC = Path(dyhat.__file__).resolve().parent


@pytest.mark.parametrize("row", faults.ROWS, ids=[row.id for row in faults.ROWS])
def test_each_fault_fires_at_the_library_and_the_cli(row):
    assert faults.check(row) == []


@pytest.fixture(scope="module")
def optimized():
    """python -O tests/faults.py: every row again, with assert statements
    stripped, and the (file, line) that built each error."""
    proc = subprocess.run([sys.executable, "-O", faults.__file__], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_fault_fires_under_optimized_mode(optimized):
    assert optimized["optimize"] == 1
    assert optimized["problems"] == {row.id: [] for row in faults.ROWS}


def test_every_raise_site_has_a_row(optimized):
    """Each `raise InconsistencyError(...)` in the package, nine of them,
    built the error of some row, judged by the line that built it and not
    by its message: a check added later without a row fails here."""
    built = [(str(Path(file).resolve()), line) for file, line in optimized["sites"]]
    sites = [(str(path), node.lineno, node.end_lineno)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
             and getattr(node.exc.func, "id", None) == "InconsistencyError"]
    assert len(sites) == 9
    assert [(path, first) for path, first, last in sites if not any(
        file == path and first <= line <= last for file, line in built)] == []
