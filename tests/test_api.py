"""Every name a ``uws`` module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import uws

MODULES = ["uws", *(f"uws.{info.name}" for info in pkgutil.iter_modules(uws.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"
