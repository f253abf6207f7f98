"""Rational interval algebra and k-bounded sobriety of chain subspaces.

Random sets are cross-checked against dense point samples; the
refutation for the punctured-limit carrier re-validates clause by
clause with membership primitives only."""

import random
from fractions import Fraction

import pytest

from t0kit.constructions import find_homeomorphism, subspace
from t0kit.errors import BadParams
from t0kit.symbolic.intervals import (
    FULL,
    QInterval,
    QIntervalSet,
    check_kbs,
    check_kbs_holds,
    closed_prefix,
    interval,
    scott_full,
    scott_xn,
    scott_y,
    singleton,
)

DENOMS = (1, 2, 3, 4, 5)


def sample_points():
    pts = set()
    for d in DENOMS:
        for p in range(0, 3 * d + 1):
            pts.add(Fraction(p, d))
    return sorted(pts)


POINTS = sample_points()


def random_set(rng: random.Random) -> QIntervalSet:
    parts = []
    for _ in range(rng.randrange(0, 4)):
        a, b = sorted(rng.sample(range(len(POINTS)), 2))
        lo, hi = POINTS[a], POINTS[b]
        parts.append(QInterval(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
    if rng.random() < 0.2:
        q = rng.choice(POINTS)
        parts.append(QInterval(q, q, True, True))
    return QIntervalSet(tuple(parts))


def trace(s: QIntervalSet) -> frozenset:
    return frozenset(q for q in POINTS if q in s)


def test_algebra_laws_randomized():
    rng = random.Random(314159)
    full_trace = frozenset(POINTS)
    for _ in range(2000):
        a, b = random_set(rng), random_set(rng)
        ta, tb = trace(a), trace(b)
        # seven checked identities per case, 14000 total
        assert trace(a & b) == ta & tb
        assert trace(a | b) == ta | tb
        assert trace(a.complement()) == full_trace - ta
        assert trace(a - b) == ta - tb
        assert (a | b).complement() == a.complement() & b.complement()
        assert a & (a | b) == a
        assert a | (a & b) == a
        # normalization is idempotent and canonical
        assert QIntervalSet(a.parts) == a
        assert a.complement().complement() == a
        if a <= b and b <= a:
            assert a == b


def test_normalization_merges_touching_parts():
    s = interval(0, 1, True, False) | interval(1, 2, True, True)
    assert len(s.parts) == 1
    assert s == interval(0, 2, True, True)
    # both-open at the shared endpoint must stay split: the point is missing
    t = interval(0, 1, True, False) | interval(1, 2, False, True)
    assert len(t.parts) == 2
    assert Fraction(1) not in t


def test_sup_inf_and_least():
    s = interval(0, 1, True, False) | singleton(2)
    assert s.sup_info() == (Fraction(2), True)
    assert QIntervalSet(s.parts[:1]).sup_info() == (Fraction(1), False)
    assert s.inf_info() == (Fraction(0), True)
    assert s.least() == Fraction(0)
    assert interval(1, 2, False, True).least() is None
    with pytest.raises(BadParams):
        QIntervalSet(()).sup_info()


def test_validation():
    with pytest.raises(BadParams):
        interval(1, 4, True, True)  # leaves [0, 3]
    with pytest.raises(BadParams):
        interval(1, 1, True, False)  # degenerate and not closed


FULL_SPACE = scott_full()


def test_full_space_opens():
    assert FULL_SPACE.is_open(QIntervalSet(()))
    assert FULL_SPACE.is_open(FULL)
    assert FULL_SPACE.is_open(interval(Fraction(1, 2), 3, False, True))
    assert not FULL_SPACE.is_open(interval(1, 3, True, True))  # attains its inf
    assert not FULL_SPACE.is_open(interval(1, 2, False, False))  # not final
    assert FULL_SPACE.is_closed(closed_prefix(Fraction(3, 2)))
    assert not FULL_SPACE.is_closed(interval(0, 1, True, False))


def test_subspace_traces():
    y = scott_y()
    f = interval(0, 1, True, False)
    assert y.is_closed(f)  # trace of the closed prefix at 1
    assert y.is_open(singleton(2))  # trace of the final segment past 1
    assert not y.is_open(f)
    assert y.closure_of_point(2) == y.carrier
    with pytest.raises(BadParams):
        y.is_open(interval(0, 3, True, True))  # leaves the carrier


def test_sup_in_subspace():
    y = scott_y()
    assert y.sup_in(interval(0, 1, True, False)) == Fraction(2)
    assert y.sup_in(singleton(Fraction(1, 2))) == Fraction(1, 2)
    x2 = scott_xn(2)
    assert x2.sup_in(interval(0, 1, True, False)) is None  # open gap above


def test_kbs_refuted_for_punctured_limit():
    verdict = check_kbs_holds(scott_y())
    assert verdict.kind == "refuted" and verdict.exact
    w = verdict.witness
    assert w["F"] == "[0,1)"
    assert w["sup"] == "2"
    assert w["sup_in_F"] is False
    assert w["closure_of_sup_equals_F"] is False
    assert any(s["candidate"] for s in w["sampled_candidates"])
    # re-validate with primitives: F closed, sup exists, no greatest element
    y = scott_y()
    f = interval(0, 1, True, False)
    assert y.is_closed(f)
    assert y.sup_in(f) == Fraction(2)
    c, attained = f.sup_info()
    assert (c, attained) == (Fraction(1), False)
    for q in POINTS:
        if q in f:
            assert y.closure_of_point(q) != f  # misses rationals above q


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_kbs_holds_for_open_gap_carriers(n):
    verdict = check_kbs_holds(scott_xn(n))
    assert verdict.kind == "holds" and verdict.exact
    shapes = verdict.details["shapes_checked"]
    assert len(shapes) >= 3


def test_kbs_holds_for_full_chain():
    verdict = check_kbs_holds(scott_full())
    assert verdict.kind == "holds"


def test_kbs_single_certificate_paths():
    y = scott_y()
    # vacuous: no sup among carrier points
    x2 = scott_xn(2)
    v = check_kbs(x2, interval(0, 1, True, False))
    assert v.kind == "holds" and "vacuous" in v.details
    # attained max: the certificate confirms the closure
    v2 = check_kbs(y, interval(0, Fraction(1, 2), True, True), Fraction(1, 2))
    assert v2.kind == "holds" and v2.details["generic_point"] == "1/2"
    # bad certificates are rejected, not misreported
    with pytest.raises(BadParams):
        check_kbs(y, interval(0, 1, True, False), Fraction(3))  # wrong sup
    with pytest.raises(BadParams):
        check_kbs(y, singleton(2) - singleton(2))  # empty
    with pytest.raises(BadParams):
        check_kbs(y, interval(0, Fraction(1, 2), True, False))  # not closed


def test_xn_param_validation():
    with pytest.raises(BadParams):
        scott_xn(1)


def test_truncation_canonical_and_coherent():
    y = scott_y()
    pts10 = y.truncation_carrier(10)
    pts25 = y.truncation_carrier(25)
    assert set(pts10) <= set(pts25)  # enumeration extends, order re-sorts
    assert all(q in y.carrier for q in pts25)
    assert pts10 == tuple(sorted(pts10))
    sp10, sp25 = y.truncate(10), y.truncate(25)
    assert sp10.n == 10 and sp25.n == 25
    # the smaller truncation embeds as a subspace of the larger
    idx = [pts25.index(q) for q in sorted(pts10)]
    sub = subspace(sp25, sum(1 << i for i in idx)).space
    assert find_homeomorphism(sub, sp10) is not None


def test_truncation_of_full_space_starts_with_integers():
    pts = scott_full().truncation_carrier(4)
    assert pts == (Fraction(0), Fraction(1), Fraction(2), Fraction(3))
