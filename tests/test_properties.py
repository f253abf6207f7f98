"""Property-checker tests.

The five checkers are exercised on handcrafted spaces, then swept over
every space with up to 4 points (the 7-point sweep is the acceptance
suite's job).  Every reduced checker is compared with the literal scan
it replaced, kept here verbatim as an oracle: the reducibility scan,
the strong-d scan over every subset and every open, and the two
2^|opens| family passes of open well-filteredness (literal_way_below
builds the whole way-below table in one pass; literal_owf counts and
checks the filtered families).
Reports are compared whole, so OWF's closed-form family counts must
equal the literal ones on every space with at most 12 opens."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t0kit import caps, properties
from t0kit.enumeration import all_spaces, spaces_up_to
from t0kit.errors import NotAPartialOrder, NotOpen
from t0kit.finite_space import (
    FiniteSpace,
    all_closed_sets,
    all_opens,
    antichain,
    chain,
    from_cover,
    from_order,
    irreducible_closed_sets,
    is_directed,
    is_subset,
    iter_bits,
    lambda_poset,
    sigma2,
    v_poset,
)
from t0kit.properties import (
    CHECKERS,
    PropertyReport,
    _owf_structural,
    _pts,
    is_co_sober,
    is_k_bounded_sober,
    is_open_well_filtered,
    is_sober,
    is_strong_d,
    way_below_opens,
)

GALLERY = [
    sigma2(),
    chain(3),
    antichain(3),
    v_poset(),
    lambda_poset(),
    from_cover(4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
]


def test_sober_on_gallery():
    for sp in GALLERY:
        rep = is_sober(sp)
        assert rep.holds and rep.witness is None
        assert rep.method == "exhaustive"
        assert rep.details["irreducible_closed_count"] >= sp.n


def test_co_sober_counts_on_v():
    rep = is_co_sober(v_poset())
    assert rep.holds
    # saturations of points are k-irreducible; {0,1} (both minimal) splits
    assert rep.details["k_irreducible_count"] == 3


def test_strong_d_details():
    rep = is_strong_d(chain(3))
    assert rep.holds
    # nonempty subsets of a chain are all directed
    assert rep.details["directed_sets"] == 7


def test_k_bounded_sober_exempts_suplesss_sets():
    rep = is_k_bounded_sober(antichain(3))
    assert rep.holds
    assert rep.details["with_existing_sup"] == 3  # the point closures


def test_way_below_frozen_examples():
    s = sigma2()
    assert way_below_opens(s, 0b10, 0b11)
    assert way_below_opens(s, 0b10, 0b10)
    assert not way_below_opens(s, 0b11, 0b10)
    with pytest.raises(NotOpen):
        way_below_opens(s, 0b01, 0b11)


def test_way_below_reduction_matches_literal():
    for sp in spaces_up_to(4):
        opens = all_opens(sp)
        if len(opens) > caps.cap("owf_opens"):
            continue  # literal quantifier guarded beyond the cap
        below, _ = literal_way_below(sp)
        for i, u in enumerate(opens):
            for j, v in enumerate(opens):
                assert way_below_opens(sp, u, v) == bool(below[j] >> i & 1)


def test_owf_tiers_agree_where_both_run():
    for sp in spaces_up_to(4):
        if len(all_opens(sp)) > caps.cap("owf_opens"):
            continue
        lit = literal_owf(sp)
        struct = _owf_structural(sp)
        assert lit.holds == struct.holds


def test_owf_tier_selection():
    rep = is_open_well_filtered(chain(3))
    assert rep.method == "exhaustive"
    rep16 = is_open_well_filtered(antichain(4))  # 16 opens, over the cap
    assert rep16.method == "structural-least-member"
    assert rep16.holds


def test_filtered_families_contain_their_least_member():
    # the lemma backing the structural tier, against the literal way-below
    for sp in spaces_up_to(3):
        opens = all_opens(sp)
        m = len(opens)
        below, _ = literal_way_below(sp)
        index = {w: i for i, w in enumerate(opens)}

        def way_below(u, v):
            return bool(below[index[v]] >> index[u] & 1)

        for fam in range(1, 1 << m):
            members = [opens[i] for i in range(m) if (fam >> i) & 1]
            filtered = all(
                any(way_below(w, a) and way_below(w, b) for w in members)
                for a in members
                for b in members
            )
            if not filtered:
                continue
            inter = sp.full
            for w in members:
                inter &= w
            assert inter in members


def test_report_tree_shape():
    rep = is_sober(sigma2())
    tree = rep.as_tree()
    assert tree["property"] == "sober"
    assert tree["holds"] is True
    assert "caps" in tree and tree["caps"]["carrier_cap"] == caps.cap("carrier")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_all_properties_hold_on_all_small_spaces(n):
    # the finite collapse, computed rather than assumed
    assert list(CHECKERS) == ["sober", "co_sober", "strong_d", "k_bounded_sober",
                              "open_well_filtered", "t0", "t1"]
    for sp in all_spaces(n):
        for name, check in CHECKERS.items():
            if name == "t1":
                continue  # T1 is discreteness, not a sobriety-like property
            rep = check(sp)
            assert isinstance(rep, PropertyReport)
            assert rep.name == name
            assert rep.holds, (n, rep)


def test_owf_literal_family_counts_sierpinski():
    rep = is_open_well_filtered(sigma2())
    # opens {}, {1}, {0,1}: directed subfamilies of a chain are all 7
    assert rep.details["directed_families"] == 7
    assert rep.details["filtered_families"] == 7
    assert rep.holds
    assert rep == literal_owf(sigma2())


# Literal oracles for the reduced checkers.  These are the quantifier
# scans the reduced code replaced, kept verbatim: the pairwise
# reducibility scan over proper closed subsets, the strong-d scan over
# every subset D and every open U, and the two 2^|opens| family passes
# of open well-filteredness (guarded by the owf_opens cap).


def literal_irreducible_closed_sets(space):
    closed = all_closed_sets(space)
    out = []
    for f in closed:
        if f == 0:
            continue
        proper = [c & f for c in closed if c & f != f]
        proper = sorted(set(proper))
        reducible = any(
            c1 | c2 == f for i, c1 in enumerate(proper) for c2 in proper[i:]
        )
        if not reducible:
            out.append(f)
    return tuple(out)


def literal_strong_d(space):
    opens = all_opens(space)
    full = space.full
    bad = None
    directed_count = 0
    for d_mask in range(1, full + 1):
        if not is_directed(space, d_mask):
            continue
        directed_count += 1
        inter = full
        for d in iter_bits(d_mask):
            inter &= space.up[d]
        for x in range(space.n):
            target = inter & space.up[x]
            for u in opens:
                if not is_subset(target, u):
                    continue
                if not any(
                    is_subset(space.up[d] & space.up[x], u)
                    for d in iter_bits(d_mask)
                ):
                    bad = {
                        "directed": _pts(d_mask),
                        "point": x,
                        "open": _pts(u),
                        "intersection": _pts(target),
                    }
                    break
            if bad:
                break
        if bad:
            break
    return PropertyReport(
        name="strong_d",
        holds=bad is None,
        method="exhaustive",
        witness=bad,
        details={"directed_sets": directed_count},
    )


def literal_way_below(space):
    """Reference way-below quantifier over all 2^|opens| nonempty
    subfamilies, for every pair of opens in one pass.

    Returns below, where below[j] is the mask of the i with opens[i]
    way-below opens[j] (indices into all_opens(space)), and the number
    of directed subfamilies scanned."""
    opens = all_opens(space)
    m = len(opens)
    caps.guard(m, caps.cap("owf_opens"), "opens count for literal way-below")
    super_of = []  # super_of[i] = mask of j with opens[j] >= opens[i]
    for i in range(m):
        sup_row = 0
        for j in range(m):
            if is_subset(opens[i], opens[j]):
                sup_row |= 1 << j
        super_of.append(sup_row)
    bound_in = [
        [super_of[i] & super_of[j] for j in range(m)] for i in range(m)
    ]  # family members dominating opens[i] | opens[j]

    # Find the upward-directed subfamilies (the candidate covers).
    # not_wb[i] accumulates every j refuted by a directed cover of
    # opens[j] containing no member above opens[i].
    not_wb = [0] * m
    directed_families = 0
    for fam in range(1, 1 << m):
        idxs = list(iter_bits(fam))
        if not all(
            bound_in[i][j] & fam for a, i in enumerate(idxs) for j in idxs[a:]
        ):
            continue
        directed_families += 1
        union = 0
        for i in idxs:
            union |= opens[i]
        covered = 0  # mask of j with opens[j] <= union
        for j in range(m):
            if is_subset(opens[j], union):
                covered |= 1 << j
        for i in range(m):
            if not (fam & super_of[i]):
                not_wb[i] |= covered
    wb = [~not_wb[i] & ((1 << m) - 1) for i in range(m)]
    below = [0] * m
    for i in range(m):
        for j in iter_bits(wb[i]):
            below[j] |= 1 << i
    return below, directed_families


def literal_owf(space):
    """Quantify over every nonempty subfamily of opens: if it is filtered
    for way-below and its intersection lies in an open U, some member
    must lie in U.

    The literal way-below table comes from literal_way_below, so the
    whole check is two 2^|opens| passes rather than one per pair."""
    below, directed_families = literal_way_below(space)
    opens = all_opens(space)
    m = len(opens)
    sub_of = [  # sub_of[k] = mask of i with opens[i] <= opens[k]
        sum(1 << i for i in range(m) if is_subset(opens[i], opens[k])) for k in range(m)
    ]

    # The way-below-filtered subfamilies (downward: every pair dominates
    # a common member) feed the actual well-filteredness condition.
    bad = None
    filtered_count = 0
    for fam in range(1, 1 << m):
        idxs = list(iter_bits(fam))
        if not all(
            below[i] & below[j] & fam for a, i in enumerate(idxs) for j in idxs[a:]
        ):
            continue
        filtered_count += 1
        inter = space.full
        for i in idxs:
            inter &= opens[i]
        for k in range(m):
            if is_subset(inter, opens[k]) and not (fam & sub_of[k]):
                bad = {
                    "family": [_pts(opens[i]) for i in idxs],
                    "open": _pts(opens[k]),
                    "intersection": _pts(inter),
                }
                break
        if bad:
            break
    return PropertyReport(
        name="open_well_filtered",
        holds=bad is None,
        method="exhaustive",
        witness=bad,
        details={
            "opens_count": m,
            "directed_families": directed_families,
            "filtered_families": filtered_count,
        },
    )


def assert_reduced_matches_literal(sp):
    """Reports compare holds, method, witness and details at once."""
    assert irreducible_closed_sets(sp) == literal_irreducible_closed_sets(sp)
    reducibility = (is_sober, is_co_sober, is_k_bounded_sober)
    reduced = [check(sp) for check in reducibility]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(properties, "irreducible_closed_sets", literal_irreducible_closed_sets)
        assert reduced == [check(sp) for check in reducibility]
    assert is_strong_d(sp) == literal_strong_d(sp)
    if len(all_opens(sp)) <= caps.cap("owf_opens"):
        assert is_open_well_filtered(sp) == literal_owf(sp)


def test_reduced_checkers_match_literal_scans_up_to_5_points():
    for sp in spaces_up_to(5):
        assert_reduced_matches_literal(sp)


def test_strong_d_matches_literal_scan_up_to_6_points():
    with caps.scoped(enum=6):
        spaces = list(spaces_up_to(6))
    assert len(spaces) == 405
    for sp in spaces:
        assert is_strong_d(sp) == literal_strong_d(sp)


@st.composite
def random_posets(draw):
    """A random relation on a shuffled line of at most 8 points, closed
    transitively."""
    n = draw(st.integers(1, 8))
    line = draw(st.permutations(range(n)))
    related = iter(draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                                 max_size=n * (n - 1) // 2)))
    up = [1 << x for x in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if next(related):
                up[line[i]] |= up[line[j]]
    return from_order(n, [(x, y) for x in range(n) for y in iter_bits(up[x]) if x != y])


@settings(derandomize=True, deadline=None)
@given(random_posets())
def test_reduced_checkers_match_literal_scans_on_random_posets(sp):
    assert_reduced_matches_literal(sp)


def top_cone(k):
    return from_order(k, [(i, k - 1) for i in range(k - 1)])


def counting(mp, name):
    """Replace properties.<name> by a wrapper that records each call."""
    calls = []
    real = getattr(properties, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    mp.setattr(properties, name, wrapper)
    return calls


@pytest.mark.parametrize("shape,n,directed", [
    (chain, 8, 255), (top_cone, 8, 135),
    (chain, 16, 2**16 - 1), (top_cone, 16, 2**15 + 15),
    (chain, 24, 2**24 - 1),
], ids=["chain8", "top_cone8", "chain16", "top_cone16", "chain24"])
def test_strong_d_scans_no_opens(monkeypatch, shape, n, directed):
    # one is_directed call per principal ideal; the directed sets are
    # counted, not scanned, so chain(24) costs 24 calls, not 2^24
    subset_calls = counting(monkeypatch, "is_subset")
    opens_calls = counting(monkeypatch, "all_opens")
    directed_calls = counting(monkeypatch, "is_directed")
    with caps.scoped(carrier=max(n, caps.cap("carrier"))):
        rep = is_strong_d(shape(n))
    assert rep.holds and rep.details == {"directed_sets": directed}
    assert (len(subset_calls), len(opens_calls), len(directed_calls)) == (0, 0, n)


def test_strong_d_refuses_an_undirected_principal_ideal():
    # up and down disagree: down[0] claims 1 <= 0, up[1] does not
    broken = FiniteSpace(2, (0b01, 0b10), (0b11, 0b10))
    with pytest.raises(NotAPartialOrder):
        is_strong_d(broken)


def test_owf_structural_tier_scans_no_way_below_pairs(monkeypatch):
    way_below_calls = counting(monkeypatch, "_way_below_in")
    rep = _owf_structural(antichain(6))
    assert rep.holds and rep.details["opens_count"] == 64
    assert way_below_calls == []


@pytest.mark.parametrize("sp,counts", [(chain(11), (12, 4095, 4095)),
                                       (antichain(3), (8, 159, 159))],
                         ids=["chain11", "antichain3"])
def test_owf_family_counts_cost_no_family_scan(monkeypatch, sp, counts):
    # chain(11) has 12 opens, at the owf_opens cap; the counts are the
    # literal tier's, and one is_subset per ordered pair of opens suffices
    subset_calls = counting(monkeypatch, "is_subset")
    rep = is_open_well_filtered(sp)
    keys = ("opens_count", "directed_families", "filtered_families")
    assert rep.holds and rep.method == "exhaustive"
    assert rep.details == dict(zip(keys, counts))
    assert len(subset_calls) <= counts[0] ** 2
