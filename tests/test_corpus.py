"""The corpus row table: names, one call per check, and the late lookup
of each checker that a tracer or a spy depends on.  Also: every
operator that the symbolic set algebras write runs in the corpus."""

import importlib
import inspect
import pkgutil
import sys
from collections import Counter
from dataclasses import dataclass

import pytest

from t0kit import symbolic
from t0kit.cli import main
from t0kit.symbolic import corpus
from t0kit.symbolic.alexandrov import check_cosober_alexandrov
from t0kit.symbolic.cofinite import check_owf
from t0kit.symbolic.corpus import ROWS, CorpusRow, run_corpus
from t0kit.symbolic.intervals import check_kbs_holds
from t0kit.symbolic.johnstone import check_johnstone_claims

CHECKERS = {f.__name__: f for f in (check_owf, check_cosober_alexandrov, check_kbs_holds,
                                    check_johnstone_claims)}
# Calls per run_corpus: one per row, the four Johnstone rows sharing one.
EXPECTED = {"check_owf": 1, "check_cosober_alexandrov": 1, "check_kbs_holds": 7,
            "check_johnstone_claims": 1}


def count_checker_calls(monkeypatch) -> Counter:
    """Wrap each corpus checker wherever a t0kit module binds it, in a
    module attribute or a module-level dict (what a tracer rewrites),
    and count the calls that reach a wrapper."""
    calls = Counter()
    for name, orig in CHECKERS.items():
        def wrapper(*args, _name=name, _orig=orig, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "t0kit" or mod_name.startswith("t0kit.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is orig:
                            monkeypatch.setitem(value, k, wrapper)
    return calls


def test_row_names_are_unique_and_results_follow_the_rows():
    names = [row.name for row in ROWS]
    assert len(names) == len(set(names)) == 13
    results = run_corpus(12)
    assert [r["check"] for r in results] == names
    for r in results:
        if r["check"].startswith("johnstone dcpo: "):
            assert r["check"] == f"johnstone dcpo: {r['report']['claim']}"


def test_every_check_runs_once_per_run(monkeypatch):
    calls = count_checker_calls(monkeypatch)
    run_corpus(12)
    assert calls == EXPECTED
    run_corpus(12)
    assert calls == {name: 2 * n for name, n in EXPECTED.items()}


def test_a_row_that_binds_its_checker_early_is_caught(monkeypatch):
    early = CorpusRow("alexandrov naturals: co-sober", "holds", True,
                      lambda bound, checker=check_cosober_alexandrov: checker(bound=50))
    monkeypatch.setattr(corpus, "ROWS", tuple(early if row.name == early.name else row
                                              for row in ROWS))
    calls = count_checker_calls(monkeypatch)
    assert all(r["match"] for r in run_corpus(12))
    assert calls != EXPECTED  # the early-bound call never reached a wrapper
    assert calls["check_cosober_alexandrov"] == 0


@pytest.mark.parametrize("bound, code", [("0", 2), ("-3", 2), ("257", 3)])
def test_a_bad_bound_is_refused_before_any_check_runs(monkeypatch, capsys, bound, code):
    calls = count_checker_calls(monkeypatch)
    assert main(["corpus", "run", "--bound", bound]) == code
    assert calls == {}
    assert "the check bound" in capsys.readouterr().err


SKIPPED_DUNDERS = {"__init__", "__post_init__", "__repr__"}


def unreached_operators(classes, run) -> list[str]:
    """The dunder methods written in the bodies of classes that no call
    reaches while run() runs under sys.setprofile.  A method counts as
    written when its code sits in its class's source file, which leaves
    out what dataclass generates; __init__, __post_init__ and __repr__
    are skipped."""
    written = {}
    for cls in classes:
        source = sys.modules[cls.__module__].__file__
        for name, fn in vars(cls).items():
            if (name.startswith("__") and name.endswith("__") and name not in SKIPPED_DUNDERS
                    and inspect.isfunction(fn) and fn.__code__.co_filename == source):
                written[fn.__code__] = f"{cls.__name__}.{name}"
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return sorted(name for code, name in written.items() if code not in reached)


@dataclass(frozen=True)
class Toy:
    x: int

    def __and__(self, other):
        return Toy(self.x & other.x)

    def __or__(self, other):
        return Toy(self.x | other.x)


def test_the_check_sees_an_unreached_operator():
    # the dataclass's own __eq__, __hash__ and __setattr__ are not written
    assert unreached_operators([Toy], lambda: Toy(1) & Toy(3)) == ["Toy.__or__"]
    assert unreached_operators([Toy], lambda: (Toy(1) & Toy(3)) | Toy(4)) == []


def test_every_symbolic_operator_runs_in_the_corpus():
    # A spelling scan cannot see operators: `a | b` names no owner.
    modules = [importlib.import_module(f"{symbolic.__name__}.{info.name}")
               for info in pkgutil.iter_modules(symbolic.__path__)]
    assert len(modules) == 7
    classes = [cls for module in modules for _, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__ == module.__name__]
    assert unreached_operators(classes, lambda: run_corpus(1)) == []
