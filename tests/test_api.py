"""Every name a teamopt module lists in ``__all__`` exists on that module, so
``from teamopt.<module> import *`` cannot break on a deleted name."""

import importlib
import pkgutil

import pytest

import teamopt

MODULES = sorted(m.name for m in pkgutil.iter_modules(teamopt.__path__, "teamopt."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
