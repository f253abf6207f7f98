"""Report tree normalization, text/JSON rendering, DOT export."""

import json
from fractions import Fraction

from t0kit.finite_space import chain, sigma2, v_poset
from t0kit.properties import is_sober
from t0kit.report import as_data, cover_pairs, render_dot, render_json, render_text
from t0kit.symbolic.cofinite import CofiniteSet


def test_as_data_normalizes_rich_values():
    data = as_data({
        "frac": Fraction(1, 3),
        "set": frozenset({3, 1, 2}),
        "pair": (1, None),
        "report": is_sober(sigma2()),
        "sym": CofiniteSet(False, {2, 1}),
        7: "int key",
    })
    assert data["frac"] == "1/3"
    assert data["set"] == [1, 2, 3]
    assert data["pair"] == [1, None]
    assert data["report"]["property"] == "sober"
    assert data["report"]["caps"]["carrier_cap"] >= 1
    assert data["sym"] == "{1,2}"  # repr fallback for leaf objects
    assert data["7"] == "int key"


def test_render_json_is_deterministic_and_parseable():
    tree = {"b": [1, {"z": 2, "a": 3}], "a": True}
    one, two = render_json(tree), render_json(tree)
    assert one == two
    parsed = json.loads(one)
    assert parsed == {"a": True, "b": [1, {"a": 3, "z": 2}]}
    assert one.index('"a"') < one.index('"b"')  # keys sorted


def test_render_text_shapes():
    text = render_text({
        "verdict": "Holds",
        "count": 3,
        "nested": {"inner": False},
        "items": ["x", {"k": 1}],
        "empty_list": [],
        "empty_dict": {},
        "block": "line one\nline two",
    })
    lines = text.splitlines()
    assert "verdict: Holds" in lines
    assert "nested:" in lines and "  inner: False" in lines
    assert "  - x" in lines  # list items sit under their key
    assert "    k: 1" in lines  # dict item nested one deeper than its dash
    assert "empty_list: []" in lines and "empty_dict: {}" in lines
    # multi-line strings indent as a block under their key
    assert "  line one" in lines and "  line two" in lines


def test_cover_pairs():
    assert cover_pairs(sigma2()) == [(0, 1)]
    c = chain(4)
    assert sorted(cover_pairs(c)) == [(0, 1), (1, 2), (2, 3)]
    v = v_poset()
    assert len(cover_pairs(v)) == 2


def test_render_dot_golden():
    dot = render_dot(sigma2(), ["a", "b"], graph_name="S")
    assert dot == (
        "digraph S {\n"
        "  rankdir=BT;\n"
        '  0 [label="a"];\n'
        '  1 [label="b"];\n'
        "  0 -> 1;\n"
        "}"
    )
    assert render_dot(sigma2(), ["a", "b"], "S") == dot  # stable
    assert 'label="x0"' in render_dot(sigma2())  # default names
