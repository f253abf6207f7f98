"""Kernel tests.

Expected values are frozen from independent oracles.  The oracles
themselves (closures from the smallest closed superset, saturations
from the intersection of covering opens, irreducible closed sets from
the pairwise reducibility scan) are rows of tests/oracles.py.
"""

import pytest
from oracles import BY_NAME, GALLERY, NOT_AN_ORDER, lambda_poset, space_id, walked

from t0kit import caps
from t0kit.b_topology import b_closure, is_b_closed
from t0kit.constructions import closed_pair_representation, equalizer_maps_for_bclosed, identity
from t0kit.errors import (
    CapExceeded,
    EmptyCarrier,
    MismatchedSpaces,
    NotAPartialOrder,
    NotATopology,
    NotOpen,
    NotT0,
)
from t0kit.finite_space import (
    FiniteSpace,
    all_opens,
    antichain,
    chain,
    closure,
    from_cover,
    from_opens,
    from_order,
    interior,
    irreducible_closed_sets,
    is_directed,
    is_subset,
    mask_of,
    point,
    points_of,
    saturate,
    sigma2,
    v_poset,
)
from t0kit.properties import is_t1, way_below_opens


def test_mask_helpers_roundtrip():
    assert mask_of([0, 2, 5]) == 0b100101
    assert points_of(0b100101) == (0, 2, 5)
    assert points_of(0) == ()
    assert is_subset(0b101, 0b111) and not is_subset(0b101, 0b110)


def test_three_chain_from_opens():
    # opens {2} and {1,2} generate the 3-chain 0 < 1 < 2
    sp = from_opens(3, [0b100, 0b110])
    assert sp.up == (0b111, 0b110, 0b100)
    assert sp.down == (0b001, 0b011, 0b111)
    assert sp == chain(3)


def test_from_opens_requires_t0():
    with pytest.raises(NotT0):
        from_opens(2, [])
    with pytest.raises(NotT0):
        from_opens(3, [0b111, 0b011])  # points 0 and 1 never separated


def test_from_opens_strict():
    # {0,1} and {1,2} are completed to a topology: their intersection
    # {1} becomes open, and 1 lies above both 0 and 2
    sp = from_opens(3, [0b011, 0b110])
    assert 0b010 in all_opens(sp)
    assert sp == from_order(3, [(0, 1), (2, 1)])
    with pytest.raises(NotATopology):
        from_opens(2, [0b100])  # an open outside the carrier


def test_from_order_validates():
    with pytest.raises(NotAPartialOrder):
        from_order(2, [(0, 1), (1, 0)])
    with pytest.raises(NotAPartialOrder):
        from_order(3, [(0, 1), (1, 2)])  # (0, 2) missing: not transitive
    with pytest.raises(NotAPartialOrder):
        from_order(2, [(0, 3)])
    with pytest.raises(NotAPartialOrder):
        from_cover(2, [(0, 3)])
    sp = from_order(3, [(0, 1), (1, 2), (0, 2)])
    assert sp == chain(3)


def test_carrier_guards():
    with pytest.raises(EmptyCarrier):
        from_order(0, [])
    with pytest.raises(CapExceeded):
        from_order(caps.cap("carrier") + 1, [])


def test_sierpinski_shape():
    sp = sigma2()
    assert sp.up == (0b11, 0b10)
    assert all_opens(sp) == (0, 0b10, 0b11)
    assert sp.is_open(0b10) and not sp.is_open(0b01)


def test_slotted_space_fills_b_discrete_on_first_use():
    # no instance dict: a filled one slows every later attribute read
    sp, fresh = chain(3), chain(3)
    assert not hasattr(sp, "__dict__") and not hasattr(identity(sp), "__dict__")
    assert sp.b_discrete is None
    assert is_b_closed(sp, 0b101)
    assert sp.b_discrete is True and fresh.b_discrete is None
    # the flag is out of ==, hash and repr
    assert sp == fresh and hash(sp) == hash(fresh) and repr(sp) == repr(fresh)
    # an up/down pair that is no order is not b-discrete, so is_b_closed
    # falls back to b_closure: {0} is not b-closed, though inside the carrier
    bad = FiniteSpace(NOT_AN_ORDER.n, NOT_AN_ORDER.up, NOT_AN_ORDER.down)
    assert not is_b_closed(bad, 0b001) and b_closure(bad, 0b001) == 0b011
    assert bad.b_discrete is False
    assert is_b_closed(bad, 0b011)


def test_masks_outside_the_carrier_are_neither_open_nor_closed():
    sp = sigma2()
    for mask in (0b100, 0b111, -1):
        assert not sp.is_open(mask)
    with pytest.raises(NotOpen):
        way_below_opens(sp, 0b100, 0b11)


@pytest.mark.parametrize("mask", [0b1000, 0b1001])
@pytest.mark.parametrize("op", [closure, saturate, interior, is_directed,
                                closed_pair_representation, equalizer_maps_for_bclosed])
def test_operators_refuse_masks_outside_the_carrier(op, mask):
    with pytest.raises(MismatchedSpaces, match=f"{mask:#x} has points outside a space of 3"):
        op(chain(3), mask)


def test_opens_counts_frozen():
    # up-set counts computed once from the 2^n filter oracle, then frozen
    assert len(all_opens(chain(3))) == 4
    assert len(all_opens(antichain(3))) == 8
    assert len(all_opens(v_poset())) == 5
    assert len(all_opens(lambda_poset())) == 5


def test_closure_and_saturate_frozen():
    sp = chain(3)
    assert closure(sp, 0b100) == 0b111
    assert closure(sp, 0b010) == 0b011
    assert saturate(sp, 0b001) == 0b111
    assert saturate(sp, 0b010) == 0b110
    assert interior(sp, 0b011) == 0
    assert interior(sp, 0b110) == 0b110
    assert sp.up[0] == 0b111  # the least open neighborhood of 0


def test_t1_means_discrete():
    assert is_t1(antichain(3)).holds
    assert not is_t1(sigma2()).holds
    assert is_t1(point()).holds


def test_compactness_and_directedness():
    sp = v_poset()
    # every finite subset is compact, so compact saturated means saturated
    assert saturate(sp, 0b100) == 0b100  # {top}
    assert saturate(sp, 0b001) != 0b001  # {0} is not an up-set
    assert saturate(sp, 0b101) == 0b101
    assert is_directed(sp, 0b101)  # {0, top} is a chain
    assert not is_directed(sp, 0b011)  # two minimal points, no bound inside
    assert not is_directed(sp, 0)


def test_irreducible_closed_sets_v_poset():
    # closures of points are irreducible; {0,1} splits as {0} | {1}
    assert irreducible_closed_sets(v_poset()) == (0b001, 0b010, 0b111)


def test_saturated_sets_are_up_sets():
    sp = v_poset()
    sats = all_opens(sp)
    assert set(sats) == {s for s in range(8) if saturate(sp, s) == s}


@pytest.mark.parametrize("sp", GALLERY, ids=space_id)
def test_operators_match_oracles(sp):
    # each row walks every GALLERY space; this id reads that one walk
    for name in ("closure, saturate, interior", "irreducible_closed_sets"):
        assert sp in BY_NAME[name].seeds() and walked(name)


@pytest.mark.parametrize("sp", GALLERY, ids=space_id)
def test_kuratowski_laws(sp):
    full = sp.full
    assert closure(sp, 0) == 0
    for a in range(full + 1):
        ca = closure(sp, a)
        assert is_subset(a, ca)
        assert closure(sp, ca) == ca
        assert full & ~interior(sp, a) == closure(sp, full & ~a)
        for b in range(full + 1):
            assert closure(sp, a | b) == ca | closure(sp, b)


@pytest.mark.parametrize("sp", GALLERY, ids=space_id)
def test_every_irreducible_closed_is_a_point_closure(sp):
    # finite T0 fact, derived: irreducible closed sets have a greatest point
    for f in irreducible_closed_sets(sp):
        assert any(sp.down[x] == f for x in points_of(f))
