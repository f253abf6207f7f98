"""Maps, subspaces, products, powers, equalizers.

The product, Sierpinski-power and continuity fast paths are checked
against their literal oracles in tests/oracles.py; maps that appear
here are checked both monotone and preimage-continuous."""

import pytest
from oracles import is_preimage_continuous, powerset_scott, product_index, walked

from t0kit import constructions
from t0kit.b_topology import is_b_closed
from t0kit.constructions import (
    SpaceMap,
    canonical_embedding,
    compose,
    equalizer,
    equalizer_maps_for_bclosed,
    find_homeomorphism,
    identity,
    is_homeomorphism,
    is_monotone,
    preimage,
    product,
    sierpinski_power,
    space_map,
    subspace,
)
from t0kit.errors import CapExceeded, EmptyCarrier, MismatchedSpaces, NotContinuous
from t0kit.finite_space import (
    antichain,
    chain,
    from_cover,
    is_subset,
    mask_of,
    sigma2,
    v_poset,
)


def test_space_map_validates_continuity():
    s = sigma2()
    space_map(s, s, (0, 0))
    space_map(s, s, (0, 1))
    space_map(s, s, (1, 1))
    with pytest.raises(NotContinuous):
        space_map(s, s, (1, 0))
    with pytest.raises(MismatchedSpaces):
        space_map(s, s, (0, 1, 1))


def test_monotone_agrees_with_preimage_continuity():
    # every table between sigma2, chain(3), v_poset and antichain(2), and more
    assert walked("is_monotone")


def test_compose_and_identity():
    c3 = chain(3)
    s = sigma2()
    f = space_map(c3, s, (0, 0, 1))
    assert compose(f, identity(c3)).table == f.table
    assert compose(identity(s), f).table == f.table
    with pytest.raises(MismatchedSpaces):
        compose(f, f)


def test_preimage_and_image():
    f = space_map(chain(3), sigma2(), (0, 0, 1))
    assert preimage(f, 0b10) == 0b100
    assert preimage(f, 0b01) == 0b011
    assert mask_of(f.table) == 0b11


def test_subspace_of_chain():
    sub = subspace(chain(4), mask_of([0, 2, 3]))
    assert sub.space == chain(3)
    assert sub.points == (0, 2, 3)
    inclusion = space_map(sub.space, chain(4), sub.points)
    assert is_monotone(inclusion) and is_preimage_continuous(inclusion)
    with pytest.raises(EmptyCarrier):
        subspace(chain(4), 0)


@pytest.mark.parametrize("carrier", [0b1000, 0b1001, -1])
def test_subspace_refuses_points_outside_the_space(carrier):
    with pytest.raises(MismatchedSpaces, match="has points outside a space of 3 points"):
        subspace(chain(3), carrier)
    # and so does a preimage, rather than dropping those points
    with pytest.raises(MismatchedSpaces, match="has points outside a space of 3 points"):
        preimage(identity(chain(3)), carrier)


def test_product_against_literal_oracle():
    # index, coords, up and down of [sigma2, chain(3)], [v_poset, antichain(2),
    # chain(3)], [v_poset] and [sigma2] * 4, and more
    assert walked("product")


def test_product_index_and_coords_reject_out_of_range_values():
    prod = product([sigma2(), chain(3)])
    for coords in [(0, 3), (0, -1), (0,), (0, 0, 0)]:
        with pytest.raises(MismatchedSpaces):
            product_index(prod, coords)
    for index in [6, -1]:
        with pytest.raises(MismatchedSpaces):
            prod.coords(index)
    assert product_index(prod, (1, 0)) == 3 and prod.coords(5) == (1, 2)


def test_refused_product_builds_no_mask(monkeypatch):
    # 13 Sierpinski factors fold to 8192 points; the refusal comes before
    # the 4096-point step under it is built
    planted = []
    monkeypatch.setattr(constructions, "_plant", lambda *args: planted.append(args))
    with pytest.raises(CapExceeded, match="^product carrier size: 8192 exceeds cap 4096$"):
        product([sigma2()] * 13)
    assert planted == []


def test_empty_product_is_point():
    prod = product([])
    assert prod.space.n == 1
    assert product_index(prod, ()) == 0


def test_sierpinski_power_codes():
    # a point is its code, and the order on codes is subset inclusion
    pw = sierpinski_power(3)
    assert pw.n == 8
    for c1 in range(8):
        for c2 in range(8):
            assert pw.leq(c1, c2) == is_subset(c1, c2)


def test_sierpinski_power_bit_convention():
    # coordinate k is bit m-1-k of the code, which is the point's product index
    sets = [0b011, 0b110, 0b100]
    assert constructions._codes(3, sets) == (0b100, 0b110, 0b011)
    for m in range(6):
        prod = product([sigma2()] * m)
        assert sierpinski_power(m) == prod.space
        for code in range(1 << m):
            coords = tuple((code >> (m - 1 - k)) & 1 for k in range(m))
            assert product_index(prod, coords) == code
            assert prod.coords(code) == coords


def test_powerset_scott_frozen():
    ps = powerset_scott(2)
    assert ps.n == 4
    assert ps.up == (0b1111, 0b1010, 0b1100, 0b1000)
    assert ps.down == (0b0001, 0b0011, 0b0101, 0b1111)


def test_canonical_embedding_sierpinski():
    emb = canonical_embedding(sigma2())
    assert emb.opens == (0b10, 0b11)
    assert emb.bitcodes == (0b01, 0b11)
    f = space_map(sigma2(), sierpinski_power(2), emb.bitcodes)
    assert len(set(f.table)) == 2
    # the embedded pair is order-isomorphic to the domain
    sub = subspace(f.cod, mask_of(f.table))
    assert find_homeomorphism(sub.space, sigma2()) is not None


def test_canonical_embedding_reflects_order():
    for sp in [chain(3), v_poset(), antichain(3)]:
        emb = canonical_embedding(sp)
        for x in range(sp.n):
            for y in range(sp.n):
                assert is_subset(emb.bitcodes[x], emb.bitcodes[y]) == sp.leq(x, y)


def test_equalizer_mask():
    c3 = chain(3)
    s = sigma2()
    f = space_map(c3, s, (0, 0, 1))
    g = space_map(c3, s, (0, 1, 1))
    assert equalizer(f, g) == 0b101
    with pytest.raises(MismatchedSpaces):
        equalizer(f, space_map(c3, c3, (0, 1, 2)))


def test_equalizer_compares_spaces_by_value():
    # equal but distinct domain and codomain objects still make a parallel pair
    f = space_map(chain(3), sigma2(), (0, 0, 1))
    g = space_map(chain(3), sigma2(), (0, 1, 1))
    assert f.dom is not g.dom and f.dom == g.dom
    assert f.cod is not g.cod and f.cod == g.cod
    assert equalizer(f, g) == 0b101
    assert equalizer(g, f) == 0b101
    with pytest.raises(MismatchedSpaces):
        equalizer(f, space_map(antichain(3), sigma2(), (0, 0, 1)))


def test_compose_compares_spaces_by_value():
    # an equal but distinct middle space composes like the same object
    f = space_map(chain(3), sigma2(), (0, 0, 1))
    g = space_map(sigma2(), chain(3), (0, 2))
    assert f.cod is not g.dom and f.cod == g.dom
    assert compose(g, f).table == (0, 0, 2)
    assert compose(g, f) == compose(space_map(f.cod, g.cod, g.table), f)
    # a mismatch by value on equal carriers is still refused
    with pytest.raises(MismatchedSpaces):
        compose(identity(antichain(3)), identity(chain(3)))


@pytest.mark.parametrize("table", [(0, 1), (0, -1, 1), (0, 2, 1)],
                         ids=["short", "negative", "too-large"])
def test_equalizer_refuses_malformed_tables(table):
    # a raw SpaceMap skips space_map's checks; equalizer makes them itself
    c3, s = chain(3), sigma2()
    bad = SpaceMap(c3, s, table)
    good = space_map(c3, s, (0, 0, 1))
    message = f"table of length {len(table)} does not map 3 points into 2"
    for f, g in [(bad, good), (good, bad)]:
        with pytest.raises(MismatchedSpaces, match=message):
            equalizer(f, g)


@pytest.mark.parametrize("sp", [sigma2(), chain(3), v_poset(), antichain(3)],
                         ids=lambda s: f"n{s.n}-{hash(s) & 0xffff:04x}")
def test_equalizer_presentation_roundtrip(sp):
    # every subset of a finite T0 space is b-closed; the presentation must
    # reproduce it as an honest equalizer
    for e in range(sp.full + 1):
        assert is_b_closed(sp, e)
        pres = equalizer_maps_for_bclosed(sp, e)
        assert equalizer(pres.f, pres.g) == e
        # the closed_pair_representation oracle row checks that each pair
        # is a pair of opens whose U | ~V holds E
        assert len(pres.pairs) == sp.n - e.bit_count()  # one per point outside E


def test_homeomorphism_checks():
    c3 = chain(3)
    relabeled = from_cover(3, [(2, 0), (0, 1)])  # chain 2 < 0 < 1
    f = find_homeomorphism(c3, relabeled)
    assert f is not None and is_homeomorphism(f)
    assert f.table == (2, 0, 1)
    assert find_homeomorphism(c3, v_poset()) is None
    assert find_homeomorphism(v_poset(), from_cover(3, [(0, 1), (0, 2)])) is None
    assert find_homeomorphism(c3, chain(2)) is None  # unequal sizes
    assert is_homeomorphism(identity(c3))
    assert not is_homeomorphism(space_map(c3, c3, (0, 0, 2)))
    assert not is_homeomorphism(SpaceMap(c3, c3, (2, 1, 0)))  # a bijection, not monotone

