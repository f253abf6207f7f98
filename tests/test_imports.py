"""No module of t0kit and no test file imports a name it never uses,
every public name of the finite core has a reader outside the tests,
and no module of t0kit holds an assert statement.

Each file is parsed, never imported.  A name counts as used when it is
read anywhere in the file (annotations included) or, for the package
re-exports, listed in the module's __all__.  `from __future__` imports
bind no name and are skipped.

A public function, class or method of a finite-core module counts as
read when its name is loaded, or read as an attribute, anywhere in
src/ or perfbench/, when an __all__ under src/ lists it, or when the
README names it in backticks (`name`, `module.name` or `name(...)`).
Names are matched by spelling alone, so a method shares its reader with
every attribute of that name.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "t0kit").rglob("*.py"), *(ROOT / "tests").glob("*.py")])
CORE = ["finite_space", "constructions", "b_topology", "enumeration", "reflection_lab",
        "properties", "caps", "report", "spacefile", "errors", "cli"]
READERS = sorted([*(ROOT / "src" / "t0kit").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")])


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Every name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    return sorted(f"{name} (line {line})" for name, line in imported_names(tree).items()
                  if name not in used)


def test_the_scan_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\n"
              "from a import b, c as d\n__all__ = ['b']\n")
    assert unused_imports(source) == ["d (line 3)", "os (line 2)"]
    assert unused_imports(source + "os.sep, d\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def assert_lines(source: str) -> list[int]:
    """The lines of source's assert statements, which python -O drops."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_the_scan_sees_an_assert():
    assert assert_lines("def f(x):\n    assert x\n    return x\n") == [2]
    assert assert_lines("def f(x):\n    if not x:\n        raise AssertionError(x)\n") == []


def test_no_assert_statement_in_src():
    # a check that must hold also under python -O raises AssertionError itself
    found = {str(path.relative_to(ROOT)): lines
             for path in sorted((ROOT / "src" / "t0kit").rglob("*.py"))
             if (lines := assert_lines(path.read_text(encoding="utf-8")))}
    assert found == {}


def public_names(tree: ast.Module) -> dict[str, int]:
    """Every top-level function and class not starting with _, and every
    such method of those classes (as Class.method), with its line."""
    names = {}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)) and not node.name.startswith("_"):
            names[node.name] = node.lineno
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, functions) and not sub.name.startswith("_"):
                        names[f"{node.name}.{sub.name}"] = sub.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def backticked_names(text: str) -> set[str]:
    return set(re.findall(r"`(?:[\w.]+\.)?(\w+)(?:\([^`]*\))?`", text))


def known_names(readers: list[str], readme: str) -> set[str]:
    known = backticked_names(readme)
    for reader in readers:
        tree = ast.parse(reader)
        known |= read_names(tree) | exported_names(tree)
    return known


def unread_names(source: str, known: set[str]) -> list[str]:
    return sorted(f"{name} (line {line})" for name, line in public_names(ast.parse(source)).items()
                  if name.rpartition(".")[2] not in known)


def test_the_scan_sees_an_unread_name():
    source = ("def used(): pass\ndef unread(): pass\ndef _private(): pass\n"
              "class C:\n    def m(self): pass\n    def _p(self): pass\n    def n(self): pass\n")
    readers = ["used(C().m)\n"]
    planted = ["C.n (line 7)", "unread (line 2)"]
    assert unread_names(source, known_names(readers, "")) == planted
    assert unread_names(source, known_names([*readers, "x.n\n__all__ = ['unread']\n"], "")) == []
    assert unread_names(source, known_names(readers, "call `unread(x)` on `mod.n`")) == []
    assert unread_names(source, known_names(readers, "unread and n, not in backticks")) == planted


def test_every_public_core_name_has_a_reader():
    known = known_names([path.read_text(encoding="utf-8") for path in READERS],
                        (ROOT / "README.md").read_text(encoding="utf-8"))
    unread = {module: unread_names((ROOT / "src" / "t0kit" / f"{module}.py").read_text(
        encoding="utf-8"), known) for module in CORE}
    assert {module: names for module, names in unread.items() if names} == {}
