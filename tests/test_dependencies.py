"""The declared dependencies are the ones the code imports.

numpy is the only runtime dependency.  scipy is imported once, inside the
test reference ``oracle.poisson_stein_forward``; it and mpmath, which the
tests use as references, come with the ``test`` extra.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cpstein"


def _imports(node: ast.AST, where: str):
    """(top-level module, enclosing scope) of every absolute import under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _imports(child, f"{where}.{child.name}")
            continue
        if isinstance(child, ast.Import):
            yield from ((alias.name.split(".")[0], where) for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            yield child.module.split(".")[0], where
        yield from _imports(child, where)


def _third_party(paths) -> list[tuple[str, str]]:
    """(module, scope) of the imports in paths that are neither the standard
    library nor cpstein nor one of paths itself."""
    local = {"cpstein", *(path.stem for path in paths)}
    return [
        (top, where)
        for path in paths
        for top, where in _imports(ast.parse(path.read_text()), path.stem)
        if top not in sys.stdlib_module_names and top not in local
    ]


def test_sources_import_numpy_and_one_scipy_reference():
    third_party = _third_party(sorted(SRC.glob("*.py")))
    assert {top for top, _ in third_party} == {"numpy", "scipy"}
    assert [where for top, where in third_party if top == "scipy"] == [
        "oracle.poisson_stein_forward"
    ]


def _name(requirement: str) -> str:
    return re.match(r"[A-Za-z0-9_.-]+", requirement).group()


def test_pyproject_declares_numpy_and_a_test_extra():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = [_name(r) for r in project["dependencies"]]
    test = sorted(_name(r) for r in project["optional-dependencies"]["test"])
    assert runtime == ["numpy"]
    assert test == ["mpmath", "pytest", "scipy"]
    # and every module the tests import is declared
    tests = _third_party(sorted((ROOT / "tests").glob("*.py")))
    assert {top for top, _ in tests} <= {*runtime, *test}
