"""Catalog lookup and uniform truncation across the example spaces."""

from dataclasses import replace

import pytest

from t0kit.constructions import find_homeomorphism, subspace
from t0kit.errors import BadParams, UnknownSpace
from t0kit.symbolic.alexandrov import AlexSet
from t0kit.symbolic.catalog import catalog, catalog_names, truncate
from t0kit.symbolic.cofinite import (
    CofiniteNat,
    CofiniteSet,
    check_owf_refutation,
    empty_set,
    initial_segment_complements,
)
from t0kit.symbolic.intervals import (
    QInterval,
    QIntervalSet,
    ScottQSubspace,
    check_kbs,
    interval,
    scott_xn,
    scott_y,
)
from t0kit.symbolic.johnstone import (
    JohnstoneOpen,
    KnSubspace,
    check_point,
    open_from_generators,
)
from t0kit.symbolic.verdicts import Verdict


def test_names_are_stable_and_sorted():
    names = catalog_names()
    assert names == sorted(names)
    assert {
        "nat_cofinite",
        "nat_alexandrov",
        "scott_q03",
        "scott_q03_y",
        "scott_q03_xn",
        "johnstone",
        "johnstone_kn",
    } == set(names)


def test_lookup_and_param_validation():
    assert isinstance(catalog("nat_cofinite"), CofiniteNat)
    assert isinstance(catalog("scott_q03_y"), ScottQSubspace)
    assert catalog("scott_q03_xn", n=4).name == "scott_q03_x4"
    k = catalog("johnstone_kn", n=2)
    assert isinstance(k, KnSubspace) and k.n == 2
    with pytest.raises(BadParams):
        catalog("nat_cofinite", n=3)
    with pytest.raises(BadParams):
        catalog("scott_q03_xn")
    with pytest.raises(BadParams):
        catalog("johnstone_kn", n=1, m=2)
    with pytest.raises(UnknownSpace):
        catalog("sierpinski_tower")


def test_truncate_dispatch():
    assert truncate(catalog("nat_alexandrov"), 6).n == 6
    assert truncate(catalog("nat_cofinite"), 5).n == 5
    assert truncate(catalog("scott_q03_y"), 8).n == 8
    sp = truncate(catalog("johnstone"), columns=4, height=2)
    assert sp.n == 4 * 2 + 4
    assert truncate(catalog("johnstone")).n == 12  # defaults 3 x 3
    assert truncate(catalog("johnstone"), 4).n == 4 * 4 + 4  # bound sets both
    assert truncate(catalog("johnstone_kn", n=1), columns=3, height=3).n == 9
    with pytest.raises(BadParams):
        truncate(catalog("nat_alexandrov"))
    with pytest.raises(BadParams):
        truncate(catalog("nat_alexandrov"), 5, columns=2)
    with pytest.raises(BadParams):
        truncate(catalog("johnstone"), rows=2)


@pytest.mark.parametrize("k", [1, 5])
def test_truncate_keeps_the_handle_defaults(k):
    # johnstone_kn's default columns lie beyond its k deleted ones
    assert truncate(catalog("johnstone_kn", n=k)).n == KnSubspace(k).truncate().n


@pytest.mark.parametrize(
    "name", ["nat_cofinite", "nat_alexandrov", "scott_q03", "scott_q03_y"]
)
def test_truncation_coherence_chainlike(name):
    # the smaller truncation appears inside the larger one as a subspace
    space = catalog(name)
    small, big = truncate(space, 5), truncate(space, 11)
    found = False
    for mask in _prefix_masks(big.n, small.n):
        sub = subspace(big, mask).space
        if find_homeomorphism(sub, small) is not None:
            found = True
            break
    assert found


def _prefix_masks(n_big: int, n_small: int):
    # truncations enumerate carriers deterministically, so the image of
    # the smaller one is a prefix of the larger one's points for the
    # integer carriers; the rational carrier re-sorts, so offer both the
    # prefix and every contiguous window as candidates
    yield (1 << n_small) - 1
    for lo in range(1, n_big - n_small + 1):
        yield ((1 << n_small) - 1) << lo


def test_truncation_coherence_scott_sorted_selection():
    # for the rational carrier the small truncation is found by value,
    # not by position; select exactly its points inside the larger one
    space = catalog("scott_q03_y")
    pts_small = space.truncation_carrier(6)
    pts_big = space.truncation_carrier(14)
    idx = [pts_big.index(q) for q in pts_small]
    small = truncate(space, 6)
    big = truncate(space, 14)
    sub = subspace(big, sum(1 << i for i in idx)).space
    assert find_homeomorphism(sub, small) is not None


def test_truncation_coherence_johnstone():
    space = catalog("johnstone")
    small = truncate(space, columns=2, height=2)
    big = truncate(space, columns=3, height=3)
    # grid points enumerate columns-major with tops last; map them by hand
    pts_small = [(m, j) for m in (1, 2) for j in (1, 2)] + [(1, None), (2, None)]
    pts_big = [(m, j) for m in (1, 2, 3) for j in (1, 2, 3)] + [
        (1, None), (2, None), (3, None)
    ]
    idx = [pts_big.index(p) for p in pts_small]
    sub = subspace(big, sum(1 << i for i in idx)).space
    assert find_homeomorphism(sub, small) is not None


@pytest.mark.parametrize("build", [
    lambda: catalog("scott_q03_xn", n=2.5),
    lambda: catalog("scott_q03_xn", n="x"),
    lambda: catalog("scott_q03_xn", n="4"),
    lambda: catalog("johnstone_kn", n="x"),
    lambda: catalog("johnstone_kn", n=True),
    lambda: truncate(catalog("nat_cofinite"), 2.5),
    lambda: truncate(catalog("nat_alexandrov"), True),
    lambda: truncate(catalog("johnstone"), columns=2.5),
    lambda: truncate(catalog("johnstone_kn", n=1), height=True),
], ids=["xn-float", "xn-text", "xn-digits", "kn-text", "kn-bool", "bound-float", "bound-bool",
        "columns-float", "height-bool"])
def test_non_int_parameters_are_bad_params(build):
    with pytest.raises(BadParams):
        build()


@pytest.mark.parametrize("build", [
    lambda: KnSubspace(1.5),
    lambda: KnSubspace(True),
    lambda: AlexSet("up", 2.5),
    lambda: open_from_generators(top_columns=[1.5]),
    lambda: open_from_generators(tail=(1, "const", 1.5)),
    lambda: scott_xn(2.5),
    lambda: open_from_generators(finite_points=[(1.5, 2)]),
    lambda: CofiniteSet(False, {"a"}),
    lambda: check_point((1,)),
    lambda: check_kbs(scott_y(), interval(0, 1, True, False), sup_claim="x"),
    lambda: interval(0, 0.1, True, True),
], ids=["kn-float", "kn-bool", "alex-float", "top-float", "tail-float", "xn-float",
        "point-float", "cofinite-text", "point-short", "sup-text", "endpoint-float"])
def test_malformed_constructor_values_are_bad_params(build):
    with pytest.raises(BadParams):
        build()


def test_verdict_invariants_are_bad_params():
    with pytest.raises(BadParams):
        Verdict("c", "maybe", "m")
    with pytest.raises(BadParams):
        Verdict("c", "holds_up_to", "m")  # no bound


@pytest.mark.parametrize("build", [
    lambda: QInterval(0, 1, "yes", None),
    lambda: QInterval(0, 1, True, 0),
    lambda: CofiniteSet("no", {1}),
    lambda: QIntervalSet(((1, 2), (0, 1))),
    lambda: JohnstoneOpen("x", frozenset(), (), "const", 0),
    lambda: JohnstoneOpen(False, frozenset({1.5}), (), "const", 0),
    lambda: JohnstoneOpen(False, frozenset(), (1.5,), "const", 0),
    lambda: JohnstoneOpen(False, frozenset(), (), "const", 1.5),
    lambda: check_owf_refutation(CofiniteNat(), replace(initial_segment_complements(), start=1.5),
                                 empty_set(), 4),
], ids=["interval-flag", "interval-flag-int", "cofinite-flag", "set-parts", "open-empty-flag",
        "open-top", "open-height", "open-ev-val", "family-start"])
def test_value_types_refuse_malformed_fields(build):
    # flags are bools, integers pass caps.check_int, parts are QIntervals
    with pytest.raises(BadParams):
        build()
