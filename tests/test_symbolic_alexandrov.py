"""Up/down-set algebra on the naturals ordered as one infinite chain."""

import pytest

from t0kit.constructions import find_homeomorphism, subspace
from t0kit.errors import BadParams, CapExceeded, NotRepresentable
from t0kit.properties import is_co_sober
from t0kit.symbolic import alexandrov
from t0kit.symbolic.alexandrov import (
    AlexandrovNat,
    AlexSet,
    check_cosober_alexandrov,
    down_set,
    full_alex,
    union,
    up_set,
)

BOUND = 30


def trace(s: AlexSet) -> frozenset:
    """The members below BOUND, read off the normal form (kind, n), so
    the oracle for union does not read the module under test."""
    if s.kind == "empty":
        return frozenset()
    if s.kind == "down":
        return frozenset(range(min(s.n + 1, BOUND)))
    return frozenset(range(s.n if s.kind == "up" else 0, BOUND))


def all_small_sets():
    out = [AlexSet("empty"), full_alex()]
    out += [up_set(n) for n in range(1, 12)]
    out += [down_set(n) for n in range(0, 12)]
    return out


def test_ops_agree_with_traces_when_representable():
    sets = all_small_sets()
    for a in sets:
        for b in sets:
            try:
                u = union(a, b)
            except NotRepresentable:
                # the honest union escapes the four normal forms
                assert trace(a) | trace(b) not in {trace(s) for s in sets}
            else:
                assert trace(u) == trace(a) | trace(b)


def test_union_of_up_sets_is_k_irreducibility_engine():
    for a in range(1, 9):
        for b in range(1, 9):
            assert union(up_set(a), up_set(b)) == up_set(min(a, b))


def test_up_down_union_boundary():
    # {0..4} u {4..} covers everything, {0..4} u {6..} has a hole at 5
    assert union(down_set(4), up_set(4)) == full_alex()
    assert union(down_set(4), up_set(5)) == full_alex()
    with pytest.raises(NotRepresentable):
        union(down_set(4), up_set(6))


def test_normal_forms():
    assert up_set(0) == full_alex()
    assert up_set(3) != up_set(2)
    with pytest.raises(BadParams):
        AlexSet("up", 0)  # must be spelled as full
    with pytest.raises(BadParams):
        down_set(-1)
    with pytest.raises(BadParams):
        AlexSet("empty", 5)  # no index allowed


SPACE = AlexandrovNat()


def test_space_basics():
    assert SPACE.leq(2, 7) and not SPACE.leq(7, 2)
    assert SPACE.is_open(up_set(3)) and not SPACE.is_open(down_set(3))
    assert SPACE.saturate(down_set(2)) == full_alex()


def test_min_and_directed_sup():
    assert SPACE.min_of(up_set(5)) == 5
    assert SPACE.min_of(full_alex()) == 0
    assert SPACE.min_of(AlexSet("empty")) is None


def test_cosober_verdict():
    v = check_cosober_alexandrov(bound=40)
    assert v.kind == "holds" and v.exact
    assert v.claim == "co-sober"
    assert v.details["k_irreducible_splits_checked"] >= 700
    assert v.details["truncation_co_sober"] is True
    assert v.details["truncation_t1"] is False
    with pytest.raises(BadParams):
        check_cosober_alexandrov(bound=1)


@pytest.mark.parametrize("bound, message", [
    ("9", "must be an int"), (2.0, "must be an int"),
    (0, "need at least two points"), (1, "need at least two points"),
])
def test_cosober_bound_is_an_int_of_at_least_two(bound, message):
    with pytest.raises(BadParams, match=message):
        check_cosober_alexandrov(bound)


def test_over_cap_bound_is_refused_before_the_split_loop(monkeypatch):
    calls = []
    monkeypatch.setattr(alexandrov, "union", lambda *args: calls.append(args))
    with pytest.raises(CapExceeded):
        check_cosober_alexandrov(bound=1500)
    assert calls == []


def test_truncations_are_chains_and_coherent():
    sp = SPACE.truncate(5)
    assert sp.n == 5
    assert is_co_sober(sp).holds
    assert any(sp.up[x] != 1 << x for x in range(sp.n))  # not T1
    with pytest.raises(BadParams):
        SPACE.truncate(0)
    with pytest.raises(CapExceeded):
        SPACE.truncate(10**6)
    big = SPACE.truncate(9)
    small = subspace(big, (1 << 5) - 1).space  # first five points
    assert find_homeomorphism(small, sp) is not None
