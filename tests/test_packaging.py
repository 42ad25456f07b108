"""The declared dependencies are the ones the library imports."""

import ast
import os
import re
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _third_party_imports() -> set[str]:
    """Top-level package names of every absolute import in the library
    that is not in the standard library."""
    names = set()
    for path in (ROOT / "src" / "reexpansion").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]}
    assert _third_party_imports() == declared


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, reexpansion.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_library_stays_within_its_line_budget():
    # deletions pay for features: the library may not grow past 2,505 lines
    total = sum(
        len(path.read_text().splitlines()) for path in (ROOT / "src" / "reexpansion").glob("*.py")
    )
    assert total <= 2505, f"src/reexpansion/*.py is {total} lines, over the 2,505 budget"


@pytest.mark.parametrize("mode, given, expected", [
    ("save", array("d", [0.5, -0.0, 1e16, 5e-324]).tobytes(), b", [0.5, -0.0], [1e+16, 5e-324]"),
    ("load", b"[0.5, -0.0], [1e+16, 5e-324]", array("d", [0.5, -0.0, 1e16, 5e-324]).tobytes()),
])
def test_pair_text_helper_runs_on_the_standard_library_alone(tmp_path, mode, given, expected):
    # sequences runs this file in a child as `python -I -S pairtext.py MODE`,
    # which must start without numpy; runpy runs it the same way here
    helper = ROOT / "src" / "reexpansion" / "pairtext.py"
    (tmp_path / "in").write_bytes(given)
    code = (
        "import runpy, sys; sys.argv = [sys.argv[1], sys.argv[2]]; "
        "runpy.run_path(sys.argv[0], run_name='__main__'); "
        "sys.stderr.write(repr([m for m in sys.modules if m.split('.')[0] == 'numpy']))"
    )
    with open(tmp_path / "in", "rb") as stdin:
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(helper), mode],
                              stdin=stdin, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
    assert proc.stderr == b"[]"
