"""The benchmark's tracer (perfbench/tracing.py) wraps library functions by
name in every module namespace where callers look them up.  These tests
keep every traced name resolvable there, and keep the package's imports
honest: a module under src/qmachine imports no name it does not use,
except a name the tracer needs in that module's namespace.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qmachine"


def _load_traced() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED = _load_traced()
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("name", sorted(TRACED))
def test_traced_function_resolves_in_every_namespace(name):
    home, attr = name.split(".")
    fn = getattr(importlib.import_module(f"qmachine.{home}"), attr)
    assert callable(fn)
    for namespace in TRACED[name][0]:
        assert getattr(importlib.import_module(f"qmachine.{namespace}"), attr) is fn, namespace


def _names_read(tree: ast.AST) -> set[str]:
    """Every name the module reads, quoted annotations included."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = [n.returns for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    annotations += [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    for annotation in filter(None, annotations):
        for n in ast.walk(annotation):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                names |= _names_read(ast.parse(n.value, mode="eval"))
    return names


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    return imported - _names_read(tree)


def test_unused_imports_are_found():
    source = "from typing import Optional, Union\nimport numpy as np\nx: 'Optional[int]' = None\n"
    assert unused_imports(source) == {"Union", "np"}


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_names_it_uses(module):
    traced_here = {name.split(".")[1] for name, (namespaces, _) in TRACED.items() if module in namespaces}
    assert unused_imports((PACKAGE / f"{module}.py").read_text()) - traced_here == set()
