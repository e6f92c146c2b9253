"""Every name a niwclust module exports in __all__ exists in it."""

import importlib
import pkgutil

import pytest

import niwclust

MODULES = ["niwclust"] + [
    f"niwclust.{info.name}" for info in pkgutil.iter_modules(niwclust.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing} that it does not define"
