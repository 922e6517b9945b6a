"""Every exported name exists and has a caller: no module's ``__all__`` or the package's
imports go stale, and no public name is kept alive by its tests alone."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import masec

# masec.__main__ runs the CLI when imported, so it is left out
MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(masec.__path__, "masec.")
    if info.name != "masec.__main__"
)
ROOT = Path(__file__).resolve().parents[1]

# Exported names that no program code calls, each kept on purpose.
UNCALLED_OK = {
    "bob_channel_pathsum": "per-antenna path-sum oracle the channel tests check user rows against",
    "eve_channel_pathsum": "per-antenna path-sum oracle the channel tests check Eve rows against",
    "parse_results": "public reader of the sweep CSV that write_results writes",
}


def live_names() -> set:
    """Names that running code can reach: masec's entry points, ``perfbench/`` and ``scripts/``.

    Module-level statements of masec, ``perfbench/`` and ``scripts/`` are live
    from the start, and a top-level masec definition is live once live code
    names it.  In masec a name counts where code reads it as a name or an
    attribute, so ``__all__`` strings, re-exports, docstrings and a
    definition's references to itself do not.  The benchmark names its trace
    targets in strings, so there every whole-word use counts.
    """
    defs, live = {}, set()
    for path in (ROOT / "src" / "masec").glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            names = {node.id for node in ast.walk(top) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(top) if isinstance(node, ast.Attribute)}
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(top.name, set()).update(names - {top.name})
            else:
                live |= names
    for folder in ("perfbench", "scripts"):
        for path in (ROOT / folder).rglob("*.py"):
            live.update(re.findall(r"\w+", path.read_text()))
    todo = list(live | UNCALLED_OK.keys())
    while todo:
        for name in defs.pop(todo.pop(), set()) - live:
            live.add(name)
            todo.append(name)
    return live


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


def test_every_exported_name_has_a_caller():
    live = live_names()
    exported = {
        attr: name for name in MODULES for attr in getattr(importlib.import_module(name), "__all__", ())
    }
    uncalled = sorted(f"{exported[attr]}.{attr}" for attr in exported.keys() - live - UNCALLED_OK.keys())
    assert not uncalled, f"exported names that only tests call: {uncalled}"
    assert UNCALLED_OK.keys() <= exported.keys(), "UNCALLED_OK names a name no module exports"
