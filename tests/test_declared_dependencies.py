"""Every third-party module the tests import is declared in pyproject.toml.

Tier-1 collects with --continue-on-collection-errors, so a test module
whose import is missing from the installed extras would drop out of the
run without failing it.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"


def _imported_top_levels() -> set[str]:
    names = set()
    for path in TESTS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _declared(project: dict) -> set[str]:
    requirements = list(project.get("dependencies", []))
    for extra in project.get("optional-dependencies", {}).values():
        requirements += extra
    return {re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower().replace("-", "_") for r in requirements}


def test_test_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    local = {project["name"]} | {p.stem for p in TESTS.glob("*.py")}
    third_party = {
        name for name in _imported_top_levels() if name not in sys.stdlib_module_names and name not in local
    }
    assert "numpy" in third_party  # the scan sees the tests' imports
    assert third_party <= _declared(project), sorted(third_party - _declared(project))
