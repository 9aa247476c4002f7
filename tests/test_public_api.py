"""The package's public names: each module's ``__all__``, re-exported once."""

from __future__ import annotations

import importlib
import inspect

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
