"""Property-checker tests.

The five checkers are exercised on handcrafted spaces, then swept over
every space with up to 4 points (the 7-point sweep is the acceptance
suite's job).  Each reduced checker is compared with the literal scan
it replaced in tests/oracles.py, whose table tests/test_oracles.py
walks; the tests here pin frozen values, tier selection, and what each
reduced tier costs."""

import pytest
from oracles import GALLERY, bottom_cone, literal_owf, literal_way_below, top_cone, walked

from t0kit import caps, properties
from t0kit.enumeration import all_spaces, spaces_up_to
from t0kit.errors import NotAPartialOrder, NotOpen
from t0kit.finite_space import (
    FiniteSpace,
    all_opens,
    antichain,
    chain,
    is_directed,
    sigma2,
    v_poset,
)
from t0kit.properties import (
    CHECKERS,
    PropertyReport,
    _owf_structural,
    is_co_sober,
    is_k_bounded_sober,
    is_open_well_filtered,
    is_sober,
    is_strong_d,
    way_below_opens,
)


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
    assert walked("way_below_opens")


def test_owf_tiers_agree_where_both_run():
    assert walked("is_open_well_filtered, _owf_structural")


def test_reduced_checkers_match_literal_scans_up_to_5_points():
    for name in ("irreducible_closed_sets", "is_sober, is_co_sober, is_k_bounded_sober",
                 "is_strong_d", "is_open_well_filtered, _owf_structural"):
        assert walked(name)


def test_strong_d_matches_literal_scan_up_to_6_points():
    assert len(walked("is_strong_d")) == 405 + len(GALLERY)


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


@pytest.mark.parametrize("shape,saturated", [
    (chain, 17), (antichain, 65536), (top_cone, 32769), (bottom_cone, 32769),
], ids=["chain16", "antichain16", "top_cone16", "bottom_cone16"])
def test_reducibility_reports_at_the_carrier_cap(shape, saturated):
    # the 16-point worst shapes: 16 irreducibles, one per point, out of up
    # to 2^16 closed (or saturated) sets
    sp = shape(16)
    reports = [is_sober(sp), is_co_sober(sp), is_k_bounded_sober(sp)]
    assert all(r.holds and r.witness is None and r.method == "exhaustive" for r in reports)
    assert [r.details for r in reports] == [
        {"irreducible_closed_count": 16},
        {"saturated_count": saturated, "k_irreducible_count": 16},
        {"irreducible_closed_count": 16, "with_existing_sup": 16},
    ]


def test_strong_d_refuses_an_undirected_principal_ideal():
    # up and down disagree: down[0] claims 1 <= 0, up[1] does not
    broken = FiniteSpace(2, (0b01, 0b10), (0b11, 0b10))
    with pytest.raises(NotAPartialOrder):
        is_strong_d(broken)


def test_strong_d_refuses_up_sets_without_a_least_member():
    # every down[m] passes is_directed, but up[2] = {0, 1, 2} is not inside
    # up[0] or up[1], so the up-sets over down[2] have no least member
    broken = FiniteSpace(3, (0b101, 0b110, 0b111), (0b001, 0b010, 0b111))
    assert all(is_directed(broken, d) for d in broken.down)
    with pytest.raises(NotAPartialOrder, match="down-set of point 2 has no least up-set"):
        is_strong_d(broken)


def test_owf_structural_tier_scans_no_way_below_pairs(monkeypatch):
    way_below_calls = counting(monkeypatch, "way_below_opens")
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
