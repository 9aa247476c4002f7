"""The package's public names: each module's ``__all__``, re-exported once."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import cpstein

MODULES = ("bounds", "core", "exact", "models", "oracle")


def test_package_all_is_the_modules_all():
    mods = [importlib.import_module(f"cpstein.{name}") for name in MODULES]
    names = [name for mod in mods for name in mod.__all__]
    assert cpstein.__all__ == names
    assert len(set(names)) == len(names)
    for mod in mods:
        for name in mod.__all__:
            obj = getattr(mod, name)
            assert getattr(cpstein, name) is obj
            # a function or class is listed by the module that defines it
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == mod.__name__, f"{mod.__name__}.{name}"


# The public functions and classes that nothing in src/, tools/ or cpbench/
# loads, each with the reason it stays public.  Any other such name has no
# caller and goes; an entry whose name gains a caller leaves this list.
ACCEPTANCE = "imported by tests/test_acceptance.py"
REFERENCE = "an independent reference the tests check the package against"
UNCALLED = {
    "runs_cp_params": ACCEPTANCE,
    "runs_dk_bound": ACCEPTANCE,
    "reliability_cp_params": ACCEPTANCE,
    "reliability_dk_bound": ACCEPTANCE,
    "mixed_cp_params": ACCEPTANCE,
    "mixed_dk_bound": ACCEPTANCE,
    "sums_cp_params": ACCEPTANCE,
    "reliability_delta": ACCEPTANCE,
    "bound_lemma_c": ACCEPTANCE,
    # the catalogue's order-3 fallback reads the enclosure through bounds._thm2
    "bound_thm2": "THM2(k) at any order k, where the catalogue evaluates k = 3 only",
    "g_k_eval": REFERENCE,
    "poisson_stein_forward": REFERENCE,
    "interior_residuals": REFERENCE,
}
ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tools", "cpbench")


def _loaded_names(tree: ast.AST) -> set[str]:
    """Names loaded in ``tree``, as a name or an attribute, except within a
    function or class of the same name (its own definition)."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in enclosing:
                found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def _parsed(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def test_every_public_function_and_class_has_a_caller():
    loaded = set()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            loaded |= _loaded_names(_parsed(path))
    public = {
        name for name in cpstein.__all__
        if inspect.isfunction(getattr(cpstein, name)) or inspect.isclass(getattr(cpstein, name))
    }
    assert sorted(public - loaded) == sorted(UNCALLED)


def test_uncalled_public_names_are_what_their_reason_says():
    acceptance = _loaded_names(_parsed(ROOT / "tests" / "test_acceptance.py"))
    tests = set()
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        tests |= _loaded_names(_parsed(path))
    for name, reason in UNCALLED.items():
        assert name in cpstein.__all__, name
        assert name in (acceptance if reason == ACCEPTANCE else tests), name
