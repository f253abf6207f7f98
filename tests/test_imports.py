"""No module of t0kit and no test file imports a name it never uses.

Each file is parsed, never imported.  A name counts as used when it is
read anywhere in the file (annotations included) or, for the package
re-exports, listed in the module's __all__.  `from __future__` imports
bind no name and are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "t0kit").rglob("*.py"), *(ROOT / "tests").glob("*.py")])


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
