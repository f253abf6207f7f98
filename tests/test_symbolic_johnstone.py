"""Representable Scott opens of the two-index dcpo.

Profile arithmetic (membership, meets, inclusion) is
cross-checked pointwise against a grid large enough to separate every
shape in the sample pool; the way-below refutation is re-validated
clause by clause from the cover members it names."""

import tracemalloc

import pytest

from t0kit import caps
from t0kit.errors import BadParams, CapExceeded, EmptyOpen
from t0kit.symbolic import catalog, johnstone, truncate
from t0kit.symbolic.cofinite import (
    CofiniteNat,
    check_owf,
    check_owf_refutation,
    cofinite_excluding,
    empty_set,
    initial_segment_complements,
)
from t0kit.symbolic.johnstone import (
    EMPTY_OPEN,
    FULL_OPEN,
    JohnstoneSpace,
    KnSubspace,
    check_johnstone_claims,
    check_point,
    check_way_below,
    cover_member,
    default_sample_opens,
    leq_points,
    min_selector,
    open_from_generators,
    truncate_grid,
)

COLS = 20
HEIGHTS = 28


def grid():
    pts = [(m, j) for m in range(1, COLS + 1) for j in range(1, HEIGHTS + 1)]
    pts += [(m, None) for m in range(1, COLS + 1)]
    return pts


GRID = grid()


def trace(u):
    return frozenset(p for p in GRID if p in u)


def pool():
    return [
        EMPTY_OPEN,
        FULL_OPEN,
        open_from_generators(tail=(1, "const", 1)),
        open_from_generators(tail=(1, "const", 4)),
        open_from_generators(tail=(1, "shift", 0)),
        open_from_generators(tail=(3, "shift", 2)),
        open_from_generators(finite_points=[(1, 5), (3, 2)]),
        open_from_generators(top_columns=[2]),
        open_from_generators(top_columns=[1, 4], finite_points=[(6, 2)]),
        open_from_generators(top_columns=[2], tail=(1, "shift", 1)),
    ]


def test_order_arithmetic():
    assert leq_points((2, 3), (2, 5)) and not leq_points((2, 5), (2, 3))
    assert leq_points((2, 3), (2, None))  # own top
    assert leq_points((2, 3), (7, None))  # any top at or past the height
    assert not leq_points((2, 3), (1, None))
    assert not leq_points((2, 3), (3, 9))  # finite points in other columns
    assert not leq_points((2, None), (3, None))  # tops form an antichain
    assert not leq_points((2, None), (2, 5))
    with pytest.raises(BadParams):
        check_point((0, 1))
    with pytest.raises(BadParams):
        check_point((1, 0))


def test_truncation_order_matches_point_order():
    # exhaustive order sanity on truncations up to 5 x 5
    for cols in range(1, 6):
        for hts in range(1, 6):
            pts = [(m, j) for m in range(1, cols + 1) for j in range(1, hts + 1)]
            pts += [(m, None) for m in range(1, cols + 1)]
            sp = truncate_grid(cols, hts)
            assert sp.n == len(pts)
            for i, p in enumerate(pts):
                for k, q in enumerate(pts):
                    assert bool((sp.up[i] >> k) & 1) == leq_points(p, q)
            # maximal elements are exactly the tops
            maximal = {i for i in range(sp.n) if sp.up[i] == 1 << i}
            assert maximal == {i for i, p in enumerate(pts) if p[1] is None}
            # every finite point lies below every top at or past its height
            for i, (m, j) in enumerate(pts):
                if j is None:
                    continue
                for k, (t, jt) in enumerate(pts):
                    if jt is None and (t >= j or t == m):
                        assert (sp.up[i] >> k) & 1


def test_membership_profile():
    u = open_from_generators(top_columns=[2], finite_points=[(5, 4)])
    assert (2, None) not in u and (1, None) in u
    assert (1, 2) not in u and (1, 3) in u  # band of the removed top
    assert (5, 4) not in u and (5, 5) in u
    assert (2, 99) not in u  # the whole column under a removed top
    assert (9, 2) not in u and (9, 3) in u
    v = open_from_generators(tail=(1, "shift", 0))
    assert (4, 4) not in v and (4, 5) in v
    assert (1, None) in v  # tails never remove tops


def test_algebra_against_grid_traces():
    opens = pool()
    traces = [trace(u) for u in opens]
    full = frozenset(GRID)
    pairs_checked = 0
    for a, ta in zip(opens, traces):
        assert (a.is_empty) == (ta == frozenset())
        for b, tb in zip(opens, traces):
            assert trace(a & b) == ta & tb
            assert (a <= b) == (ta <= tb)  # grid separates all pool shapes
            pairs_checked += 1
    assert pairs_checked == len(opens) ** 2
    assert trace(FULL_OPEN) == full


def test_canonical_profiles_make_equality_semantic():
    # generators subsumed by a removed top's band collapse away
    a = open_from_generators(top_columns=[2])
    b = open_from_generators(top_columns=[2], finite_points=[(2, 1), (1, 2)])
    assert a == b
    # a finite point inside a tail's reach collapses away
    c = open_from_generators(tail=(2, "const", 3))
    d = open_from_generators(tail=(2, "const", 3), finite_points=[(4, 2)])
    assert c == d
    # a shift tail started one column later plus the missing point
    e = open_from_generators(tail=(1, "shift", 1))
    f = open_from_generators(tail=(2, "shift", 1), finite_points=[(1, 2)])
    assert e == f
    assert open_from_generators(tail=(1, "const", 1)) != open_from_generators(
        tail=(1, "const", 2)
    )


def test_meet_join_eventual_kinds():
    const2 = open_from_generators(tail=(1, "const", 2))
    shift0 = open_from_generators(tail=(1, "shift", 0))
    meet = const2 & shift0
    assert meet.ev_kind == "shift"  # removals grow: max(2, m) is eventually m
    assert (1, 2) not in meet and (1, 3) in meet
    assert (5, 5) not in meet and (5, 6) in meet


def test_generator_validation():
    with pytest.raises(BadParams):
        open_from_generators(top_columns=[0])
    with pytest.raises(BadParams):
        open_from_generators(finite_points=[(2, None)])
    with pytest.raises(BadParams):
        open_from_generators(tail=(1, "quadratic", 1))
    with pytest.raises(BadParams):
        open_from_generators(tail=(0, "const", 1))


def test_min_selector_examples():
    full = min_selector(FULL_OPEN)
    assert full.top_bound == 0 and full.prefix == ()
    assert (full.ev_kind, full.ev_val) == ("const", 1)
    assert full.x(1) == 1 and full.x(100) == 1

    floor = min_selector(open_from_generators(tail=(1, "const", 1)))
    assert floor.x(1) == 2 and floor.x(50) == 2

    diag = min_selector(open_from_generators(tail=(1, "shift", 0)))
    assert (diag.ev_kind, diag.ev_val) == ("shift", 1)
    assert diag.x(3) == 4

    bumped = min_selector(open_from_generators(
        finite_points=[(1, 5)], tail=(1, "const", 1)))
    assert bumped.prefix == (6,)
    assert bumped.x(1) == 6 and bumped.x(2) == 2

    topped = min_selector(open_from_generators(top_columns=[2]))
    assert topped.top_bound == 2
    assert topped.x(3) == 3  # band height 2, so least member is 3
    with pytest.raises(BadParams):
        topped.x(2)
    with pytest.raises(EmptyOpen):
        min_selector(EMPTY_OPEN)


def test_cover_member_membership():
    sel = min_selector(open_from_generators(tail=(1, "const", 1)))  # x = 2
    w3 = cover_member(sel, 3)
    assert (3, 2) not in w3 and (3, 3) in w3
    assert (10, 1) not in w3 and (10, 3) in w3
    assert (2, 1) in w3 and (2, 2) in w3  # columns before k stay whole
    assert all((m, None) in w3 for m in range(1, 12))  # no tops removed
    topped = min_selector(open_from_generators(top_columns=[2]))
    with pytest.raises(BadParams):
        cover_member(topped, 1)


def test_way_below_empty_is_trivial():
    v = check_way_below(EMPTY_OPEN, FULL_OPEN)
    assert v.kind == "holds" and v.exact and v.method == "trivial"


def test_way_below_refuted_with_reusable_witness():
    u = open_from_generators(tail=(1, "const", 1))
    v = check_way_below(u, FULL_OPEN, bound=20)
    assert v.kind == "refuted" and v.exact
    w = v.witness
    assert w["selector_top_bound"] == 0
    assert w["selector_eventual"] == "const 2"
    assert w["instances_checked"] == 20
    assert "every v" in w["scope"]
    # re-validate the named cover clause by clause with the primitives
    sel = min_selector(u)
    members = [cover_member(sel, k) for k in range(1, 21)]
    for a, b in zip(members, members[1:]):
        assert a <= b
    for k, wk in enumerate(members, start=1):
        p = (k, sel.x(k))
        assert p in u and p not in wk
        assert not wk.tops
    assert all((m, 1) in members[-1] for m in range(1, 20))  # covers low rows
    assert dict(w["separating_points"])[1] == (1, sel.x(1))


def test_way_below_self_refuted_for_nonempty():
    u = open_from_generators(top_columns=[3], tail=(1, "shift", 2))
    v = check_way_below(u, u, bound=15)
    assert v.kind == "refuted"
    assert v.witness["selector_top_bound"] == 3


def test_claims_bundle():
    claims = check_johnstone_claims(bound=25)
    kinds = [c.kind for c in claims]
    assert kinds == ["holds", "holds_up_to", "holds_up_to", "holds"]
    assert claims[0].exact and claims[3].exact
    assert claims[0].details["nonempty_samples_refuted"] >= 3
    subs = claims[0].details["samples"]
    assert sum(1 for s in subs if s["verdict"] == "Refuted") >= 3
    assert claims[1].label == "HoldsUpTo(25)"
    assert claims[1].details["filtered_families"] >= 1
    assert claims[2].bound >= 9
    assert "open_question" in claims[2].details
    assert claims[3].witness["homeomorphism"].startswith("column index")


def test_owf_claim_checks_way_below_at_its_own_bound(monkeypatch):
    seen = []
    real = johnstone.check_way_below

    def spy(u, v, bound=30):
        seen.append(bound)
        return real(u, v, bound)

    monkeypatch.setattr(johnstone, "check_way_below", spy)
    verdict = check_johnstone_claims(5)[1]
    assert verdict.label == "HoldsUpTo(5)"
    assert seen == [5] * len(default_sample_opens())  # one pass: six calls, not twelve


@pytest.mark.parametrize("bound", [0, -3])
def test_check_bounds_below_one_are_refused(bound):
    u = open_from_generators(tail=(1, "const", 1))
    for check in (
        lambda: check_way_below(u, FULL_OPEN, bound),
        lambda: check_way_below(EMPTY_OPEN, FULL_OPEN, bound),
        lambda: check_johnstone_claims(bound)[0],
        lambda: check_johnstone_claims(bound)[1],
        lambda: check_johnstone_claims(bound)[3],
        lambda: check_johnstone_claims(bound),
        lambda: check_owf(bound=bound),
        lambda: check_owf_refutation(CofiniteNat(), initial_segment_complements(),
                                     empty_set(), bound),
    ):
        with pytest.raises(BadParams):
            check()


def test_check_bounds_above_the_truncate_cap_are_refused():
    bound = caps.cap("truncate") + 1
    for check in (
        lambda: check_way_below(EMPTY_OPEN, FULL_OPEN, bound),
        lambda: check_johnstone_claims(bound)[0],
        lambda: check_johnstone_claims(bound)[1],
        lambda: check_johnstone_claims(bound)[3],
        lambda: check_johnstone_claims(bound),
        lambda: check_owf(bound=bound),
    ):
        with pytest.raises(CapExceeded):
            check()
    with caps.scoped(truncate=bound):
        assert check_johnstone_claims(bound)[3].kind == "holds"


def test_top_row_traces():
    assert FULL_OPEN.top_trace() == cofinite_excluding([])
    u = open_from_generators(top_columns=[2, 5], tail=(1, "const", 3))
    assert u.top_trace() == cofinite_excluding([2, 5])
    v = check_johnstone_claims(12)[3]
    assert v.kind == "holds" and v.exact
    assert v.witness["bridge_lemma_grid"] >= 5


def test_space_handle_and_truncations():
    sp = JohnstoneSpace()
    assert sp.truncate().n == 12  # 3 columns x 3 heights + 3 tops
    assert truncate_grid(3, 3).n == 12


def test_kn_subspace():
    k1 = KnSubspace(1)
    assert not k1.contains((1, 4)) and k1.contains((1, None))
    assert k1.contains((2, 1))
    assert k1.truncate(columns=3, height=3).n == 9  # 2 x 3 finite + 3 tops
    k2 = KnSubspace(2)
    assert k2.truncate().n == 14  # default reaches two live columns past n
    with pytest.raises(BadParams):
        k2.truncate(columns=2)
    with pytest.raises(BadParams):
        KnSubspace(-1)


@pytest.mark.parametrize("columns", ["5", True, 2.5])
def test_kn_columns_must_be_an_int(columns):
    # the type is checked before the columns-beyond-n rule compares it
    with pytest.raises(BadParams, match="columns must be an int"):
        KnSubspace(1).truncate(columns=columns)
    with pytest.raises(BadParams, match="columns must be an int"):
        truncate(catalog("johnstone_kn", n=1), columns=columns)


def test_over_cap_grids_are_refused_before_their_points_are_built():
    # 600 x 600 is 360,600 points; the refusal must not build them
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            truncate_grid(600, 600)
        with pytest.raises(CapExceeded):
            KnSubspace(2).truncate(columns=600, height=600)
        assert tracemalloc.get_traced_memory()[1] < 100_000
    finally:
        tracemalloc.stop()


def test_default_sample_pool_shape():
    samples = default_sample_opens()
    assert samples[0] == FULL_OPEN and samples[-1] == EMPTY_OPEN
    assert len({repr(u) for u in samples}) == len(samples)
