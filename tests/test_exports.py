"""Every exported name exists and has a caller: no module's ``__all__`` or the package's
imports go stale, and no public name is kept alive by its tests alone.  Every function
the benchmark traces still exists under the name it traces."""

import ast
import importlib
import inspect
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
    todo = list(live)
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
    uncalled = sorted(f"{exported[attr]}.{attr}" for attr in exported.keys() - live)
    assert not uncalled, f"exported names that only tests call: {uncalled}"


def bench_targets() -> list:
    """(module, qualified name) of every ``Target(...)`` in ``perfbench/bench.py``, read as text."""
    tree = ast.parse((ROOT / "perfbench" / "bench.py").read_text())
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Target"
    ]
    return [(call.args[1].value, call.args[2].value) for call in calls]


def test_every_bench_target_resolves():
    # A target that no longer resolves is traced as absent, and its per-layer metrics read 0.
    targets = bench_targets()
    assert targets, "no Target(...) found in perfbench/bench.py"
    missing = []
    for module_name, qualname in targets:
        obj = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module_name}.{qualname}")
    assert not missing, f"perfbench targets that masec no longer defines: {missing}"


def test_project_move_takes_previous_second():
    # perfbench's project_rejected counter reads the rejected fallback from args[1].
    from masec.geometry import project_move

    assert list(inspect.signature(project_move).parameters)[1] == "previous"
