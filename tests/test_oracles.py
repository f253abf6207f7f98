"""Every fast path against its literal oracle, from the table in
oracles.py: exhaustively over each row's seeds, and over random posets
within each oracle's cap.  A fault planted in any row's fast side must
make that row's walk fail."""

import dataclasses
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from oracles import ROWS, off_by_one, random_posets, walk, walked


@settings(derandomize=True, deadline=None)
@given(random_posets())
def walk_random_poset(space):
    for row in ROWS:
        walk(row, row.sample(space))


@pytest.mark.parametrize("way", ["exhaustive", "random"])
def test_fast_paths_match_their_oracles(way):
    if way == "random":
        walk_random_poset()
        return
    for row in ROWS:
        values = walked(row.name)
        assert values, row.name
        if row.outcomes is not None:
            label, wanted = row.outcomes
            assert wanted <= {label(v) for v in values}, row.name


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name.split(",")[0])
def test_the_walk_catches_a_planted_fault(row):
    def fast(*args):
        return off_by_one(row.fast(*args))

    with pytest.raises(AssertionError, match=re.escape(repr(row.name))):
        walk(dataclasses.replace(row, fast=fast), row.inputs())


def test_the_readme_table_names_every_row():
    # the first routine of each row of README's "Fast paths and their
    # oracles" table, against the first name of each ROWS entry
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Fast paths and their oracles", 1)[1].split("\n#", 1)[0]
    documented = set(re.findall(r"^\| `(\w+)`", section, re.MULTILINE))
    assert documented == {row.name.split(",")[0] for row in ROWS}
