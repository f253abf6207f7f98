"""Cofinite algebra and the open-well-filteredness refutation.

The randomized loops cross-check every algebra operation against plain
finite traces; the refutation test re-validates each certificate clause
with nothing but membership and containment primitives."""

import random

import pytest

from t0kit.errors import BadParams, CapExceeded, NotOpen
from t0kit.finite_space import all_opens
from t0kit.properties import is_open_well_filtered, way_below_opens
from t0kit.symbolic.cofinite import (
    CofiniteNat,
    CofiniteSet,
    IndexedFamily,
    check_owf,
    check_owf_refutation,
    cofinite_excluding,
    empty_set,
    initial_segment_complements,
)

SPACE = CofiniteNat()


def random_set(rng: random.Random) -> CofiniteSet:
    support = frozenset(rng.randrange(1, 30) for _ in range(rng.randrange(0, 6)))
    return CofiniteSet(rng.random() < 0.5, support)


def trace(s: CofiniteSet, bound: int) -> frozenset:
    return frozenset(k for k in range(1, bound + 1) if k in s)


def test_algebra_laws_randomized():
    rng = random.Random(271828)
    bound = 40
    for _ in range(2500):
        a, b, c = (random_set(rng) for _ in range(3))
        ta, tb = trace(a, bound), trace(b, bound)
        # intersection agrees with plain set traces and is associative
        assert trace(a & b, bound) == ta & tb
        assert (a & b) & c == a & (b & c)
        # containment is a partial order consistent with intersection
        assert (a & b) <= a
        if a <= b and b <= a:
            assert a == b


def test_membership_beyond_any_support():
    s = cofinite_excluding([1, 5])
    assert 10**9 in s
    assert 5 not in s
    assert 0 not in s  # carrier starts at 1
    assert 3 in CofiniteSet(False, {3})
    assert 10**9 not in CofiniteSet(False, {3})


def test_polarity_flip_and_identities():
    assert empty_set().is_empty
    with pytest.raises(BadParams):
        CofiniteSet(False, {0})


def test_opens_and_closure():
    assert SPACE.is_open(empty_set())
    assert SPACE.is_open(cofinite_excluding([3, 4]))
    assert not SPACE.is_open(CofiniteSet(False, {1}))


def test_way_below_is_containment_guarded():
    u, v = cofinite_excluding([1, 2]), cofinite_excluding([1])
    assert SPACE.way_below(u, v)
    assert not SPACE.way_below(v, u)
    with pytest.raises(NotOpen):
        SPACE.way_below(CofiniteSet(False, {1}), v)


@pytest.mark.parametrize("b", [2, 3, 4])
def test_way_below_matches_literal_on_truncations(b):
    # the trace is discrete, where the literal computation also gives
    # way-below equal to containment
    sp = SPACE.truncate(b)
    opens = all_opens(sp)
    for u in opens:
        for v in opens:
            assert way_below_opens(sp, u, v) == ((u & v) == u)


def test_truncation_is_discrete_and_coherent():
    for b in (1, 3, 5):
        sp = SPACE.truncate(b)
        assert sp.n == b
        assert all(sp.up[x] == 1 << x for x in range(b))
    with pytest.raises(BadParams):
        SPACE.truncate(0)
    with pytest.raises(CapExceeded):
        SPACE.truncate(100000)


@pytest.mark.parametrize("b", [3, 4, 5])
def test_finite_truncations_are_owf(b):
    # the refutation is inherently infinite: every finite trace passes
    report = is_open_well_filtered(SPACE.truncate(b))
    assert report.holds


def test_owf_refutation_verdict_and_certificate():
    verdict = check_owf()
    assert verdict.kind == "refuted" and verdict.exact
    assert verdict.claim == "open well-filtered"
    w = verdict.witness
    assert w["family"] == "complements of initial segments"
    assert w["u"] == "{}"
    # re-validate the certificate with raw primitives only
    fam = initial_segment_complements()
    members = fam.members(20)
    assert all(SPACE.is_open(m) for m in members)
    for i in range(10):
        for j in range(10):
            meet = members[i] & members[j]
            assert any(m <= meet for m in members)  # filtered
    for x in range(1, 21):
        assert x not in fam.member(x)  # intersection empties out
    assert not any(m <= empty_set() for m in members)  # no member inside


def test_non_refuting_certificates():
    # the constant full family contains a member inside u = full
    full = CofiniteSet(True)
    v = check_owf_refutation(SPACE, IndexedFamily("constant", lambda n: full, 1, "constant"),
                             full)
    assert v.kind == "holds" and v.exact
    assert v.details["containing_member_index"] == 1
    # initial segments against a cofinite u: some member fits inside
    v2 = check_owf_refutation(
        SPACE, initial_segment_complements(), cofinite_excluding([2, 4])
    )
    assert v2.kind == "holds" and v2.details["containing_member_index"] >= 4
    # a family that is not filtered is a bad certificate
    flip_flop = IndexedFamily("flip flop", lambda n: CofiniteSet(False, {1}), 1, "constant")
    with pytest.raises(BadParams):
        check_owf_refutation(SPACE, flip_flop, empty_set())


# Families whose shape tag lies about their members.  Each would get a
# verdict from the shape alone; the spot check of the promise refuses it.
_FORGED = {
    # the intersection is empty and no member is inside it, so the
    # condition fails: "Holds, intersection is not inside u" would be false
    "segments tagged constant": (
        IndexedFamily("segments tagged constant",
                      lambda n: cofinite_excluding(range(1, n + 1)), 1, "constant"),
        empty_set(), "member 2 differs from the first"),
    # the intersection N+ minus {1..40} holds 50, so it is not inside u and
    # the condition holds: "Refuted" would be false
    "late": (
        IndexedFamily("late", lambda n: cofinite_excluding(range(1, min(n, 40) + 1)),
                      1, "initial_segment_complements"),
        cofinite_excluding([50]), "member 50 is not inside u"),
    "full tagged segments": (
        IndexedFamily("full tagged segments", lambda n: CofiniteSet(True), 1,
                      "initial_segment_complements"),
        empty_set(), "point 1 is in member 1"),
}


@pytest.mark.parametrize("case", list(_FORGED))
def test_forged_shape_tags_are_refused(case):
    family, u, why = _FORGED[case]
    with pytest.raises(BadParams) as err:
        check_owf_refutation(SPACE, family, u, bound=8)
    assert str(err.value) == f"{case} breaks its shape: {why}"


def test_opaque_family_reports_bounded():
    opaque = IndexedFamily("opaque", lambda n: cofinite_excluding([1]), 1, "generic")
    v = check_owf_refutation(SPACE, opaque, empty_set(), bound=8)
    assert v.kind == "holds_up_to" and v.bound == 8
