"""Every name a module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import bayesalg

MODULES = ["bayesalg"] + [
    info.name for info in pkgutil.walk_packages(bayesalg.__path__, "bayesalg.")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
