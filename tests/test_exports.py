"""Every exported name exists: no module's ``__all__`` or the package's imports go stale."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import masec

# masec.__main__ runs the CLI when imported, so it is left out
MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(masec.__path__, "masec.")
    if info.name != "masec.__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


def test_package_imports_exist():
    tree = ast.parse(Path(masec.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imports
    missing = []
    for node in imports:
        source = importlib.import_module("." * node.level + (node.module or ""), "masec")
        missing += [f"{source.__name__}.{a.name}" for a in node.names if not hasattr(source, a.name)]
    assert not missing, f"masec/__init__.py imports missing names {missing}"
