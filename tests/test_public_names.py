"""Every public name that td2g declares resolves.

Each module's `__all__` is what `from td2g.<module> import *` imports,
and `td2g/__init__.py` re-exports names from the modules; a name left in
either after its definition is deleted should fail here, not in a user's
import.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import td2g

MODULES = [importlib.import_module(f"td2g.{m.name}") for m in pkgutil.iter_modules(td2g.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(module, name)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(td2g.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"td2g.{node.module}")
        for alias in node.names:
            assert getattr(td2g, alias.asname or alias.name) is getattr(module, alias.name)
