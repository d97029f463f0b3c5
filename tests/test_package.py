"""Package-level checks that no single module's tests cover."""

import importlib
import pkgutil

import pytest

import primedir

MODULES = ["primedir"] + sorted(f"primedir.{m.name}" for m in pkgutil.iter_modules(primedir.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # a stale __all__ entry breaks `from module import *`
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
