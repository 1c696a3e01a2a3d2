import importlib
import pkgutil

import crn


def test_every_exported_name_exists():
    # ``from crn.<module> import *`` fails on a name that ``__all__`` lists
    # but the module no longer defines
    modules = [crn] + [
        importlib.import_module(f"crn.{info.name}") for info in pkgutil.iter_modules(crn.__path__)
    ]
    checked = 0
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"
            checked += 1
    assert checked > 0
