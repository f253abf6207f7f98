"""Enumeration tests.

The maximal-point pipeline is counted against the known class numbers
and against a second, independent pipeline (transitive relations on the
strict upper triangle, deduplicated by canonical form).  Canonical forms
are validated against the backtracking homeomorphism search, and the
continuous-map stream against the filter-all-tables oracle."""

import itertools
import random
import re

import pytest
from oracles import walked

from t0kit.constructions import find_homeomorphism, is_homeomorphism
from t0kit.enumeration import (
    all_spaces,
    canonical_form,
    continuous_maps_list,
    relabel_space,
    spaces_up_to,
)
from t0kit.errors import CapExceeded, EmptyCarrier, MismatchedSpaces
from t0kit.finite_space import FiniteSpace, antichain, chain, from_order, sigma2, v_poset

KNOWN_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}


def canonicalize(space: FiniteSpace) -> FiniteSpace:
    """The space relabelled by its canonical form's witness."""
    return relabel_space(space, canonical_form(space).relabel)


@pytest.mark.parametrize("n,count", sorted(KNOWN_COUNTS.items()))
def test_space_counts(n, count):
    assert len(all_spaces(n)) == count


def test_space_count_six():
    assert len(all_spaces(6)) == 318


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        all_spaces(7)


def test_enumeration_of_an_empty_carrier_is_not_a_cap():
    with pytest.raises(EmptyCarrier):
        all_spaces(0)


def _labeled_pipeline(n: int):
    """Independent generator: every reflexive-transitive relation whose
    strict part sits in the upper triangle, i.e. label order extends the
    partial order; every class has such a labeling."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in itertools.product([0, 1], repeat=len(pairs)):
        up = [1 << x for x in range(n)]
        for (i, j), b in zip(pairs, bits):
            if b:
                up[i] |= 1 << j
        transitive = True
        for x in range(n):
            for y in range(n):
                if (up[x] >> y) & 1 and up[y] | up[x] != up[x]:
                    transitive = False
                    break
            if not transitive:
                break
        if not transitive:
            continue
        down = [0] * n
        for x in range(n):
            for y in range(n):
                if (up[x] >> y) & 1:
                    down[y] |= 1 << x
        yield FiniteSpace(n, tuple(up), tuple(down))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pipelines_agree(n):
    keys_a = {canonical_form(sp).key for sp in all_spaces(n)}
    keys_b = {canonical_form(sp).key for sp in _labeled_pipeline(n)}
    assert keys_a == keys_b
    assert len(keys_a) == KNOWN_COUNTS[n]


def test_canonical_form_is_relabeling_invariant():
    rng = random.Random(90125)
    for sp in all_spaces(4):
        key = canonical_form(sp).key
        for _ in range(5):
            perm = list(range(sp.n))
            rng.shuffle(perm)
            shuffled = relabel_space(sp, tuple(perm))
            assert canonical_form(shuffled).key == key
            assert canonicalize(shuffled) == canonicalize(sp)


def test_canonical_form_matches_homeomorphism_search():
    spaces = list(all_spaces(4))
    rng = random.Random(5150)
    for a in spaces:
        for b in spaces:
            perm = list(range(b.n))
            rng.shuffle(perm)
            b2 = relabel_space(b, tuple(perm))
            same_key = canonical_form(a).key == canonical_form(b2).key
            assert same_key == (find_homeomorphism(a, b2) is not None)
    # Up to 5 points the sorted (|up|, |down|) signature settles every
    # pair, so only 6-point classes that share a signature make the
    # search backtrack and fail: 7 signatures, two classes each.
    groups = {}
    for sp in all_spaces(6):
        sig = sorted((sp.up[x].bit_count(), sp.down[x].bit_count()) for x in range(sp.n))
        groups.setdefault(tuple(sig), []).append(sp)
    shared = [g for g in groups.values() if len(g) > 1]
    assert sorted(map(len, shared)) == [2] * 7
    for a, b in itertools.chain.from_iterable(itertools.permutations(g) for g in shared):
        assert canonical_form(a).key != canonical_form(b).key
        assert find_homeomorphism(a, b) is None
        perm = list(range(a.n))
        rng.shuffle(perm)
        f = find_homeomorphism(a, relabel_space(a, tuple(perm)))
        assert f is not None and is_homeomorphism(f)


@pytest.mark.parametrize("relabel", [(0, 0, 1), (0, 1), (0, 1, 2, 3)],
                         ids=["repeated", "short", "long"])
def test_relabel_space_refuses_a_relabelling_that_is_not_a_permutation(relabel):
    # (0, 0, 1) would leave point 2 with an empty up-set: no space
    message = re.escape(f"relabelling {relabel} is not a permutation of the 3 points")
    with pytest.raises(MismatchedSpaces, match=message):
        relabel_space(chain(3), relabel)


def test_canonicalize_fixes_its_own_output():
    for sp in spaces_up_to(4):
        assert canonicalize(canonicalize(sp)) == canonicalize(sp)


def test_map_counts_frozen():
    assert len(continuous_maps_list(sigma2(), sigma2())) == 3
    assert len(continuous_maps_list(chain(2), chain(3))) == 6
    assert len(continuous_maps_list(antichain(2), chain(2))) == 4
    assert len(continuous_maps_list(v_poset(), sigma2())) == 5


def test_maps_match_filter_oracle():
    # the same maps in the same order as the filter over every table, between
    # sigma2, chain(3), v_poset and antichain(2), and more
    assert walked("all_continuous_maps")


def test_maps_list_caches_and_guards():
    assert continuous_maps_list(sigma2(), sigma2()) is continuous_maps_list(
        sigma2(), sigma2()
    )
    with pytest.raises(CapExceeded):
        continuous_maps_list(from_order(16, []), from_order(16, []))


def test_all_spaces_output_is_canonical():
    for sp in all_spaces(4):
        assert canonicalize(sp) == sp
