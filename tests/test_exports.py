"""Each module's __all__ names what it exports, and the package's public
names are exactly the union of its re-exported modules' __all__, so a
deletion that leaves a stale export behind fails here (or in the import)."""

import importlib
import pkgutil
import types

import pytest

import minimax_seq

MODULES = sorted(info.name for info in pkgutil.iter_modules(minimax_seq.__path__)
                 if info.name != "__main__")

# the modules whose __all__ the package re-exports; reports and cli are
# reached as modules
REEXPORTED = ("problem", "truncation", "bounds", "simulate", "rates", "operators")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"minimax_seq.{name}")
    missing = [export for export in getattr(module, "__all__", ())
               if not hasattr(module, export)]
    assert missing == []


def test_package_imports_only_exported_names():
    public = {name for name, value in vars(minimax_seq).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    exported = set().union(*(importlib.import_module(f"minimax_seq.{name}").__all__
                             for name in REEXPORTED))
    assert public == exported
