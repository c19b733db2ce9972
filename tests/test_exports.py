"""Every name a semproc module lists in __all__ resolves in that module."""

import importlib
import pkgutil

import pytest

import semproc

MODULES = sorted(f"semproc.{m.name}" for m in pkgutil.iter_modules(semproc.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [entry for entry in exported if not hasattr(module, entry)] == []
