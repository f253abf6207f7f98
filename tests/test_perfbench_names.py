"""The t0kit names that perfbench looks up still resolve.

perfbench/tracer.py wraps functions by (module, attribute) name, and
perfbench/workloads.py and perfbench/child.py call into t0kit through
module attributes.  Deleting or renaming one of them breaks the
benchmark (and its `--trace 1` run) without failing any other test.
The files are read as source, never imported or edited.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(module: str, dotted: str) -> None:
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        assert hasattr(obj, part), f"{module}.{dotted}: no attribute {part!r}"
        obj = getattr(obj, part)


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _literal(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench defines no {name}")


def traced_names() -> list[tuple[str, str]]:
    tree = _tree("tracer.py")
    timed = [(module, attr) for _, module, attr in _literal(tree, "TIMED")]
    counted = [(f"t0kit.{layer}", attr) for layer, attr in _literal(tree, "COUNTED")]
    return timed + counted


def read_names(name: str) -> list[tuple[str, str]]:
    """(module, attribute) for every t0kit name the file reads: names
    imported from t0kit modules, attributes of imported t0kit modules,
    and getattr on such a module with a string, or with a loop variable
    over a literal sequence of strings (directly or through a
    module-level constant).  A getattr it cannot resolve fails."""
    tree = _tree(name)
    modules: dict[str, str] = {}  # local name -> t0kit module
    found: list[tuple[str, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("t0kit"):
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("t0kit"):
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                try:
                    importlib.import_module(submodule)
                except ImportError:
                    found.append((node.module, alias.name))
                else:
                    modules[alias.asname or alias.name] = submodule
    constants = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            try:
                constants[node.targets[0].id] = ast.literal_eval(node.value)
            except (ValueError, TypeError):
                pass
    loops: dict[str, set[str]] = {}  # loop variable -> the strings it takes
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            if isinstance(node.iter, ast.Name):
                values = constants.get(node.iter.id, ())
            else:
                try:
                    values = ast.literal_eval(node.iter)
                except (ValueError, TypeError):
                    continue
            strings = {v for v in values if isinstance(v, str)}
            loops.setdefault(node.target.id, set()).update(strings)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            found.append((modules[node.value.id], node.attr))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "getattr" and isinstance(node.args[0], ast.Name) \
                and node.args[0].id in modules:
            module, key = modules[node.args[0].id], node.args[1]
            if isinstance(key, ast.Constant):
                found.append((module, key.value))
            else:
                assert isinstance(key, ast.Name) and loops.get(key.id), (
                    f"{name}:{node.lineno}: cannot resolve getattr on {module}")
                found += [(module, attr) for attr in sorted(loops[key.id])]
    return found


@pytest.mark.parametrize("source", ["tracer.py", "workloads.py", "child.py"])
def test_perfbench_names_resolve(source):
    names = traced_names() if source == "tracer.py" else read_names(source)
    assert names, source
    for module, attr in names:
        _resolve(module, attr)
