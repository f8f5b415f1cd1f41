"""Each module's __all__ names what it exports, and the package imports only
exported names, so a deletion that leaves a stale export behind fails here."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import minimax_seq

MODULES = sorted(info.name for info in pkgutil.iter_modules(minimax_seq.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"minimax_seq.{name}")
    missing = [export for export in getattr(module, "__all__", ())
               if not hasattr(module, export)]
    assert missing == []


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(minimax_seq.__file__).read_text())
    unexported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"minimax_seq.{node.module}")
            unexported += [f"{node.module}.{alias.name}" for alias in node.names
                           if alias.name not in module.__all__]
    assert unexported == []
