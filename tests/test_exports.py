import importlib
import pkgutil

import pytest

import ikno

MODULES = sorted(
    name
    for name in (f"ikno.{m.name}" for m in pkgutil.iter_modules(ikno.__path__))
    if hasattr(importlib.import_module(name), "__all__")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names: {missing}"
