"""No module of t0kit and no test file imports a name it never uses,
every public name of t0kit has a reader outside the tests, and no
module of t0kit holds an assert statement.

Each file is parsed, never imported.  A name counts as used when it is
read anywhere in the file (annotations included) or, for the package
re-exports, listed in the module's __all__.  `from __future__` imports
bind no name and are skipped.

A public function, class or method of a module under src/t0kit counts
as read when its name is loaded, or read as an attribute, anywhere in
src/ or perfbench/, when an __all__ under src/ lists it, or when the
README names it in backticks (`name`, `module.name` or `name(...)`).
A reader sees a spelling, not its owner.  So when two or more owners (a
class for a method, the module for a top-level name) define the same
spelling, a reader counts for one of them only if it names the owner:
the README backticks `Owner.name`, or ALLOWED_READERS maps Owner.name to
a file under src/ or perfbench/ that reads the spelling.

Dunder methods are skipped here, because a spelling scan cannot see an
operator: `a | b` reads the same whether a is an int, a set or a
CofiniteSet, and names no owner.  tests/test_corpus.py checks the
operators of the symbolic set algebras by reachability instead
(test_every_symbolic_operator_runs_in_the_corpus): each one written in
a class body must run in run_corpus.

A parameter with a default is a knob, and every knob of a function or
method under src/t0kit that src/ or perfbench/ calls must be passed by
one of those calls (by position, by keyword, or through * or **) or by
a README backtick call (`name(...)`).  A call is matched by spelling;
a call of a class is a call of its __init__.  A function that no
program file calls, such as a documented sweep entry point, is exempt.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "t0kit").rglob("*.py"), *(ROOT / "tests").glob("*.py")])
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


def public_names(tree: ast.Module, module: str) -> dict[str, int]:
    """Every top-level function and class not starting with _ (as
    module.name), and every such method of those classes (as
    Class.method), with its line."""
    names = {}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)) and not node.name.startswith("_"):
            names[f"{module}.{node.name}"] = node.lineno
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, functions) and not sub.name.startswith("_"):
                        names[f"{node.name}.{sub.name}"] = sub.lineno
    return names


def read_names(source: str) -> set[str]:
    """Every name source loads, reads as an attribute or lists in __all__."""
    tree = ast.parse(source)
    read = exported_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def backticked_names(text: str) -> set[str]:
    """Every name text puts in backticks, bare and with its owner:
    `a.b.c(x)` gives c and b.c."""
    names = set()
    for dotted in re.findall(r"`([\w.]+)(?:\([^`]*\))?`", text):
        parts = dotted.split(".")
        names |= {parts[-1], ".".join(parts[-2:])}
    return names


def unread_names(modules: dict[str, str], readers: dict[str, str], readme: str,
                 allowed: dict[str, str]) -> list[str]:
    """The public names of modules (path -> source) that nothing reads,
    and the allow-list entries that name no reader.

    A spelling that one owner alone defines is read when any reader
    (path -> source) reads it or the README backticks it.  A spelling
    that two or more owners share is read, for one owner, only when the
    README backticks Owner.name or `allowed` maps Owner.name to a reader
    path that reads the spelling."""
    owned = {name: (path, line) for path, source in modules.items()
             for name, line in public_names(ast.parse(source), Path(path).stem).items()}
    owners = Counter(name.rpartition(".")[2] for name in owned)
    read = {path: read_names(source) for path, source in readers.items()}
    anywhere = set().union(*read.values())
    quoted = backticked_names(readme)

    def allowed_reader(name: str) -> bool:
        return name.rpartition(".")[2] in read.get(allowed.get(name), ())

    def has_reader(name: str) -> bool:
        spelling = name.rpartition(".")[2]
        if owners[spelling] == 1:
            return spelling in anywhere or spelling in quoted
        return name in quoted or allowed_reader(name)

    unread = [f"{name} ({path}, line {line})" for name, (path, line) in owned.items()
              if not has_reader(name)]
    stale = [f"allowed {name} -> {path}" for name, path in allowed.items()
             if name not in owned or owners[name.rpartition(".")[2]] == 1
             or not allowed_reader(name)]
    return sorted(unread + stale)


def test_the_scan_sees_an_unread_name():
    source = ("def used(): pass\ndef unread(): pass\ndef _private(): pass\n"
              "class C:\n    def m(self): pass\n    def _p(self): pass\n    def n(self): pass\n")
    readers = {"r.py": "used(C().m)\n"}
    planted = ["C.n (mod, line 7)", "mod.unread (mod, line 2)"]
    assert unread_names({"mod": source}, readers, "", {}) == planted
    assert unread_names({"mod": source}, {**readers, "s.py": "x.n\n__all__ = ['unread']\n"},
                        "", {}) == []
    assert unread_names({"mod": source}, readers, "call `unread(x)` on `mod.n`", {}) == []
    assert unread_names({"mod": source}, readers, "unread and n, not in backticks", {}) == planted


def test_the_scan_reads_a_shared_spelling_only_through_its_owner():
    modules = {"a": "class A:\n    def n(self): pass\n",
               "b": "class B:\n    def n(self): pass\ndef f(): pass\n"}
    readers = {"r.py": "f(A, B, x.n)\n", "s.py": "f()\n"}
    both = ["A.n (a, line 2)", "B.n (b, line 2)"]
    assert unread_names(modules, readers, "`n` and `x.n`", {}) == both
    assert unread_names(modules, readers, "`A.n`", {}) == ["B.n (b, line 2)"]
    assert unread_names(modules, readers, "", {"A.n": "r.py", "B.n": "r.py"}) == []
    assert unread_names(modules, readers, "", {"A.n": "r.py", "B.n": "s.py"}) == [
        "B.n (b, line 2)", "allowed B.n -> s.py"]
    assert unread_names(modules, readers, "`A.n` `B.n`", {"b.f": "s.py", "C.n": "r.py"}) == [
        "allowed C.n -> r.py", "allowed b.f -> s.py"]


# Owner.name -> a reader of a spelling that other owners share, for the
# owners the README does not name: the reader reaches it through a
# variable, so its text does not say which owner it means.
SRC = "src/t0kit/"
ALLOWED_READERS = {
    "FiniteSpace.is_open": SRC + "properties.py",
    "FiniteSpace.leq": SRC + "constructions.py",
    "PropertyReport.as_tree": SRC + "cli.py",
    "Verdict.as_tree": SRC + "symbolic/corpus.py",
    "Verdict.holds": SRC + "symbolic/intervals.py",
    "verdicts.holds": SRC + "symbolic/cofinite.py",
    "catalog.truncate": SRC + "symbolic/__init__.py",
    "AlexSet.is_empty": SRC + "symbolic/alexandrov.py",
    "AlexandrovNat.is_open": SRC + "symbolic/alexandrov.py",
    "AlexandrovNat.leq": SRC + "symbolic/alexandrov.py",
    "AlexandrovNat.saturate": SRC + "symbolic/alexandrov.py",
    "AlexandrovNat.truncate": SRC + "symbolic/alexandrov.py",
    "CofiniteSet.is_empty": SRC + "symbolic/cofinite.py",
    "CofiniteNat.is_open": SRC + "symbolic/cofinite.py",
    "CofiniteNat.truncate": SRC + "symbolic/catalog.py",
    "QIntervalSet.is_empty": SRC + "symbolic/intervals.py",
    "ScottQSubspace.contains": SRC + "symbolic/intervals.py",
    "ScottQSubspace.is_open": SRC + "symbolic/intervals.py",
    "ScottQSubspace.truncate": SRC + "symbolic/catalog.py",
    "JohnstoneOpen.is_empty": SRC + "symbolic/johnstone.py",
    "JohnstoneSpace.truncate": SRC + "symbolic/catalog.py",
    "KnSubspace.contains": SRC + "symbolic/johnstone.py",
    "KnSubspace.truncate": SRC + "symbolic/johnstone.py",
}


def test_every_public_name_has_a_reader():
    modules = {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
               for path in (ROOT / "src" / "t0kit").rglob("*.py")}
    readers = {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
               for path in READERS}
    assert unread_names(modules, readers, (ROOT / "README.md").read_text(encoding="utf-8"),
                        ALLOWED_READERS) == []


def function_knobs(fn: ast.FunctionDef, owner: ast.ClassDef | None) -> list[tuple]:
    """knobs() for one function; owner is its class, if it is a method."""
    a = fn.args
    bound = owner is not None and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    positional = [*a.posonlyargs, *a.args][1 if bound else 0:]
    spelling = owner.name if owner is not None and fn.name == "__init__" else fn.name
    first_default = len(positional) - len(a.defaults)
    return ([(spelling, arg.arg, i, fn.lineno)
             for i, arg in enumerate(positional) if i >= first_default]
            + [(spelling, arg.arg, None, fn.lineno)
               for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None])


def knobs(source: str) -> list[tuple[str, str, int | None, int]]:
    """(spelling, parameter, position or None, line) for every parameter
    with a default; a class's __init__ is spelled as the class, and a
    method's position leaves out self or cls."""
    found = []

    def visit(node: ast.AST, owner: ast.ClassDef | None) -> None:
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.extend(function_knobs(sub, owner))
                visit(sub, None)
            else:
                visit(sub, sub if isinstance(sub, ast.ClassDef) else owner)

    visit(ast.parse(source), None)
    return found


def calls(tree: ast.AST) -> list[tuple[str, int, set[str], bool]]:
    """(spelling, positional count, keywords, spread) for every call of
    a name or an attribute; spread is a * or ** argument."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            spelling = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            keywords = {k.arg for k in node.keywords}
            spread = None in keywords or any(isinstance(x, ast.Starred) for x in node.args)
            out.append((spelling, len(node.args), keywords, spread))
    return out


def readme_calls(text: str) -> list[tuple[str, int, set[str], bool]]:
    """The calls of every README backtick call that parses."""
    out = []
    for call in re.findall(r"`([\w.]+\([^`]*\))`", text):
        try:
            out += calls(ast.parse(call, mode="eval"))
        except SyntaxError:
            continue
    return out


def unpassed_knobs(modules: dict[str, str], callers: dict[str, str], readme: str) -> list[str]:
    """The knobs of modules (path -> source) called from callers (path ->
    source) that neither those calls nor a README backtick call pass."""
    program = [c for source in callers.values() for c in calls(ast.parse(source))]
    called = {spelling for spelling, *_ in program}

    def passed(spelling: str, name: str, position: int | None) -> bool:
        return any(s == spelling and (spread or name in keywords
                                      or (position is not None and position < count))
                   for s, count, keywords, spread in program + readme_calls(readme))

    return sorted(f"{spelling}({name}) ({path}, line {line})"
                  for path, source in modules.items()
                  for spelling, name, position, line in knobs(source)
                  if spelling in called and not passed(spelling, name, position))


def test_the_scan_sees_an_unpassed_knob():
    source = ("def f(a, b=1, *, c=2): pass\ndef g(x=0): pass\n"
              "class C:\n    def __init__(self, n=0): pass\n"
              "    def m(self, k=1, j=2): pass\n"
              "    @staticmethod\n    def s(k=1): pass\n")
    callers = {"r.py": "f(1)\nC()\nobj.m(3)\nC.s()\n"}  # g has no caller: exempt
    planted = ["C(n) (mod, line 4)", "f(b) (mod, line 1)", "f(c) (mod, line 1)",
               "m(j) (mod, line 5)", "s(k) (mod, line 7)"]
    assert unpassed_knobs({"mod": source}, callers, "") == planted
    assert unpassed_knobs({"mod": source},
                          {"r.py": "f(1, 2, c=3)\nC(n=1)\nobj.m(*a)\nC.s(0)\n"}, "") == []
    assert unpassed_knobs({"mod": source}, callers,
                          "`f(x, b=2, **kw)` `C(4)` `x.m(1, 2)` `s(k=0)`") == []
    assert unpassed_knobs({"mod": source}, callers, "f(x, b=2) and `m(...)`") == planted


def test_every_called_knob_is_passed():
    modules = {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
               for path in (ROOT / "src" / "t0kit").rglob("*.py")}
    callers = {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
               for path in READERS}
    assert unpassed_knobs(modules, callers, (ROOT / "README.md").read_text(encoding="utf-8")) == []
