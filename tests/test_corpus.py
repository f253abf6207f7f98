"""The corpus row table: names, one call per check, and the late lookup
of each checker that a tracer or a spy depends on."""

import sys
from collections import Counter

import pytest

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
