"""The declared dependencies are the ones the library imports."""

import ast
import os
import re
import subprocess
import sys
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
    # deletions pay for features: the library may not grow past 2,531 lines
    total = sum(
        len(path.read_text().splitlines()) for path in (ROOT / "src" / "reexpansion").glob("*.py")
    )
    assert total <= 2531, f"src/reexpansion/*.py is {total} lines, over the 2,531 budget"
