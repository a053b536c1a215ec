import importlib
import pkgutil

import pytest

import saddlebounds

MODULES = ["saddlebounds"] + [
    info.name for info in pkgutil.walk_packages(saddlebounds.__path__, "saddlebounds.")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [key for key in getattr(module, "__all__", ()) if not hasattr(module, key)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
