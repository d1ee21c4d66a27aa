"""The public surface: every name a module exports resolves."""

from __future__ import annotations

import importlib
import pkgutil
import sys

import pytest

import flowcat as fc

MODULES = sorted(m.name for m in pkgutil.iter_modules(fc.__path__) if m.name != "__main__")


def _module(name: str):
    return fc if name == "flowcat" else importlib.import_module(f"flowcat.{name}")


def test_every_module_is_listed():
    assert MODULES == [
        "axioms",
        "category",
        "cli",
        "core",
        "generators",
        "stratification",
        "tower",
        "towerfile",
    ]


@pytest.mark.parametrize("name", ["flowcat", *MODULES])
def test_every_exported_name_is_an_attribute(name):
    module = _module(name)
    assert module.__all__
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_cli_is_imported_on_first_access(monkeypatch):
    # ``import flowcat`` leaves the command line out (a fresh-process test in
    # tests/test_cli.py); the package's __getattr__ imports it when asked.
    loaded = importlib.import_module("flowcat.cli")
    monkeypatch.delitem(sys.modules, "flowcat.cli")
    monkeypatch.delattr(fc, "cli")
    cli = fc.cli
    assert cli is not loaded and cli is sys.modules["flowcat.cli"]
    assert cli.__all__ == ["main"]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'flowcat' has no attribute 'nonexistent'$"):
        fc.nonexistent
    assert not hasattr(fc, "nonexistent")


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from flowcat import *", namespace)
    assert set(fc.__all__) <= set(namespace)


def test_package_reexports_each_module_export_it_lists():
    # A name the package lists is the very object of the module it comes from.
    for name in MODULES:
        module = _module(name)
        for export in module.__all__:
            if export in fc.__all__:
                assert getattr(fc, export) is getattr(module, export), (name, export)
