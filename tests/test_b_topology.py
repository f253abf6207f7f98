"""b-topology tests.

The minimal-basic-neighborhood closure is cross-checked against the
literal all-basic-sets quantifier of tests/oracles.py on every subset,
and b_space against the topology that b_basic_opens generates.
That the b-topology of a finite T0 space is discrete is a derived
regression fact here, never an assumption in the code."""

import pytest
from oracles import BY_NAME, GALLERY, space_id, walked

from t0kit.b_topology import b_basic_opens, b_closure, b_space, is_b_closed
from t0kit.finite_space import chain, sigma2
from t0kit.properties import is_t1


def test_sierpinski_basic_opens_frozen():
    # U=X with x=0 gives {0}; U={1} with x=1 gives {1}; U=X, x=1 gives X
    assert b_basic_opens(sigma2()) == (0b01, 0b10, 0b11)


def test_chain3_basic_opens_frozen():
    # every singleton appears: {up-set of x} n cl({x}) = {x}
    base = b_basic_opens(chain(3))
    assert 0b001 in base and 0b010 in base and 0b100 in base


@pytest.mark.parametrize("sp", GALLERY, ids=space_id)
def test_b_closure_matches_literal_base_quantifier(sp):
    # the b_closure row walks every GALLERY space; this id reads that one walk
    assert sp in BY_NAME["b_closure"].seeds() and walked("b_closure")


@pytest.mark.parametrize("sp", GALLERY, ids=space_id)
def test_b_closure_is_a_closure_operator(sp):
    for a in range(sp.full + 1):
        ca = b_closure(sp, a)
        assert a & ~ca == 0
        assert b_closure(sp, ca) == ca
        # coarser than the topological closure; compare via is_b_closed
        assert is_b_closed(sp, ca)


@pytest.mark.parametrize("sp", GALLERY, ids=space_id)
def test_b_closure_ignores_bits_outside_the_carrier(sp):
    # a set of points is a mask below 1 << n; higher bits name no point
    for a in range(sp.full + 1):
        outside = a | (0b101 << sp.n)
        assert b_closure(sp, outside) == b_closure(sp, a)
        assert not is_b_closed(sp, outside)


@pytest.mark.parametrize("sp", GALLERY, ids=space_id)
def test_b_space_is_discrete_derived_fact(sp):
    assert is_t1(b_space(sp)).holds
    # consequently only the full set is b-dense
    for a in range(sp.full + 1):
        assert (b_closure(sp, a) == sp.full) == (a == sp.full)

