"""Reflection machinery tests.

Key derived facts exercised here: both sobrification routes return a
space homeomorphic to the input (finite spaces are sober), the two
routes agree with each other, identity units pass the bounded universal
property, and the negative-control predicates fail exactly the closure
properties they are designed to fail, with machine-checkable witnesses."""

import hashlib
import inspect
from collections import Counter

import pytest
from oracles import GALLERY, extension_outcome, walked

from t0kit import reflection_lab
from t0kit.b_topology import is_b_closed
from t0kit.constructions import (
    equalizer_maps_for_bclosed,
    find_homeomorphism,
    is_monotone,
    space_map,
)
from t0kit.enumeration import all_spaces, spaces_up_to
from t0kit.errors import BadParams, CapExceeded, EmptyCarrier, MismatchedSpaces
from t0kit.finite_space import (
    all_opens,
    antichain,
    chain,
    from_cover,
    mask_of,
    point,
    sigma2,
    v_poset,
)
from t0kit.properties import CHECKERS
from t0kit.reflection_lab import (
    REGISTRY,
    check_chain_pairs,
    check_closure_properties,
    check_equalizer_theorem,
    check_finite_collapse,
    check_K_conditions,
    check_sobrification_routes,
    check_subspace_reflections,
    construct_reflection,
    is_reflection,
    k_closure,
    sobrify_bclosure,
    sobrify_irr,
)

SOBER = REGISTRY["sober"]


@pytest.mark.parametrize("name", [n for n in CHECKERS if n in REGISTRY])
def test_checker_classes_follow_their_checkers(name):
    for sp in spaces_up_to(4):
        assert REGISTRY[name](sp) == CHECKERS[name](sp).holds, (name, sp)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sobrification_routes_agree_and_fix_finite_spaces(n):
    for sp in all_spaces(n):
        if len(all_opens(sp)) > 12:
            # criterion 5's exemption; up to 4 points only the discrete
            # space (16 opens, a power of 2^15 points) passes the product cap
            with pytest.raises(CapExceeded):
                sobrify_bclosure(sp)
            continue
        irr_route = sobrify_irr(sp)
        bcl_route = sobrify_bclosure(sp)
        assert is_monotone(irr_route.unit)
        assert is_monotone(bcl_route.unit)
        # finite spaces are sober, so both routes give the space back
        assert find_homeomorphism(irr_route.space, sp) is not None
        assert find_homeomorphism(bcl_route.space, sp) is not None
        assert find_homeomorphism(irr_route.space, bcl_route.space) is not None


def test_the_product_cap_refuses_sobrification_from_14_opens():
    # the power has 2^(opens - 1) points: 2^12 at 13 opens equals the cap
    outcomes = Counter()
    for sp in spaces_up_to(5):
        opens = len(all_opens(sp))
        if opens == 13:
            sobrify_bclosure(sp)
            outcomes["13"] += 1
        elif opens > 13:
            with pytest.raises(CapExceeded):
                sobrify_bclosure(sp)
            outcomes["14+"] += 1
    assert outcomes == {"13": 4, "14+": 19}


def test_sobrify_details():
    res = sobrify_irr(v_poset())
    assert res.details["irreducible_closed_count"] == 3
    res2 = sobrify_bclosure(sigma2())
    assert res2.details["power_exponent"] == 2
    assert res2.details["image_size"] == res2.details["b_closure_size"] == 2


# (space.up, unit.table, details values) of sobrify_bclosure, in GALLERY order
GALLERY_SOBRIFICATIONS = [
    ((1,), (0,), (1, 1, 1)),
    ((3, 2), (0, 1), (2, 2, 2)),
    ((1, 2), (1, 0), (3, 2, 2)),
    ((7, 6, 4), (0, 1, 2), (3, 3, 3)),
    ((15, 14, 12, 8), (0, 1, 2, 3), (4, 4, 4)),
    ((1, 2, 4), (2, 1, 0), (7, 3, 3)),
    ((5, 6, 4), (1, 0, 2), (4, 3, 3)),
    ((7, 2, 4), (0, 2, 1), (4, 3, 3)),
    ((15, 10, 12, 8), (0, 2, 1, 3), (5, 4, 4)),
    ((11, 2, 12, 8), (2, 0, 3, 1), (7, 4, 4)),
    ((29, 30, 28, 8, 16), (1, 0, 2, 4, 3), (7, 5, 5)),
]


def test_sobrify_bclosure_v_poset_pinned():
    res = sobrify_bclosure(v_poset())
    assert res.unit.table == (1, 0, 2)
    assert res.details == {"power_exponent": 4, "image_size": 3, "b_closure_size": 3}
    assert res.space.up == (5, 6, 4)
    # both maps into a Sierpinski power, pinned on every GALLERY space: the
    # sobrification above, and the (f, g) tables presenting each b-closed
    # set (122 of them, by digest)
    for sp, (up, table, details) in zip(GALLERY, GALLERY_SOBRIFICATIONS, strict=True):
        res = sobrify_bclosure(sp)
        assert (res.space.up, res.unit.table) == (up, table)
        assert res.details == dict(zip(("power_exponent", "image_size", "b_closure_size"), details))
    tables = [(p.f.table, p.g.table)
              for sp in GALLERY for e in range(sp.full + 1) if is_b_closed(sp, e)
              for p in [equalizer_maps_for_bclosed(sp, e)]]
    assert len(tables) == 122
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == (
        "b366a5d694de0a33541f550ab304b3db9772b7abec5720a06c8928dd7ad3f04b")


def test_k_closure_sober_is_identity_on_carriers():
    z = chain(3)
    for a in range(1, z.full + 1):
        # every subspace is sober, so the least member containing a is a
        assert k_closure(z, a, SOBER) == a
    with pytest.raises(EmptyCarrier):
        k_closure(z, 0, SOBER)


def test_k_closure_refuses_points_outside_the_ambient():
    # the loop only visits carriers inside the ambient, so 0b1001 would
    # come back as the whole carrier 0b111
    with pytest.raises(MismatchedSpaces, match="0x9 has points outside a space of 3 points"):
        k_closure(chain(3), 0b1001, SOBER)


def test_k_closure_grows_to_class_members():
    z = chain(3)
    pred = REGISTRY["at_most_two_points"]
    # {0,1} is already small enough
    assert k_closure(z, 0b011, pred) == 0b011
    # the full chain has no small superspace; empty family convention
    assert k_closure(z, 0b111, pred) == z.full


def test_is_reflection_identity_for_members():
    sp = v_poset()
    res = construct_reflection(sp, SOBER, target_bound=3, test_bound=3)
    assert res.found and res.route == "identity"
    assert res.check is not None and res.check.holds
    assert res.check.verified_objects > 0
    assert find_homeomorphism(res.space, sp) is not None


def test_is_reflection_rejects_wrong_unit():
    # collapsing sigma2 to a point is not a sober reflection: maps into
    # sigma2 itself cannot all factor
    eta = space_map(sigma2(), point(), (0, 0))
    check = is_reflection(eta, SOBER, test_bound=2)
    assert not check.holds
    assert check.verified_objects == 4
    assert check.witness == {"test_object_up": [[0], [0, 1]], "map": [1, 0],
                             "extension_count": 0}


@pytest.mark.parametrize("table, verified, fmap", [((0,), 4, [1]), ((1,), 3, [0])])
def test_is_reflection_rejects_a_unit_with_two_extensions(table, verified, fmap):
    # point -> sigma2 is no sober reflection: the map into sigma2 that
    # misses the image of eta extends along it in two ways
    check = is_reflection(space_map(point(), sigma2(), table), SOBER, test_bound=2)
    assert not check.holds
    assert check.verified_objects == verified
    assert check.witness == {"test_object_up": [[0], [0, 1]], "map": fmap,
                             "extension_count": 2}


@pytest.mark.parametrize("bad", [0, -1])
def test_reflection_bounds_below_one_are_refused(bad):
    # at bound 0 no test object exists, so the check would hold vacuously
    eta = space_map(sigma2(), point(), (0, 0))
    with pytest.raises(BadParams):
        is_reflection(eta, SOBER, test_bound=bad)
    two = REGISTRY["at_most_two_points"]
    with pytest.raises(BadParams):
        construct_reflection(antichain(3), two, target_bound=2, test_bound=bad)
    with pytest.raises(BadParams):
        construct_reflection(antichain(3), two, target_bound=bad, test_bound=2)


@pytest.mark.parametrize("bad", [0, -1])
@pytest.mark.parametrize("sweep", [
    check_K_conditions, check_closure_properties, check_finite_collapse, check_chain_pairs,
    check_equalizer_theorem, check_sobrification_routes, check_subspace_reflections,
])
def test_sweep_bounds_below_one_are_refused(sweep, bad):
    # at bound 0 no space is swept, so every report would hold vacuously;
    # the bound is the last parameter, after the class if there is one
    *before, bound = inspect.signature(sweep).parameters
    with pytest.raises(BadParams, match=f"{bound} must be at least 1"):
        sweep(*[SOBER] * len(before), **{bound: bad})


@pytest.mark.parametrize("bad, error", [
    (2.5, BadParams), (True, BadParams), ("3", BadParams), (257, CapExceeded),
])
@pytest.mark.parametrize("entry", [
    lambda bad: is_reflection(space_map(sigma2(), point(), (0, 0)), SOBER, test_bound=bad),
    lambda bad: construct_reflection(antichain(3), SOBER, target_bound=bad),
    lambda bad: construct_reflection(antichain(3), SOBER, test_bound=bad),
    lambda bad: check_K_conditions(SOBER, n_max=bad),
    lambda bad: check_closure_properties(SOBER, n_max=bad),
    check_finite_collapse, check_chain_pairs, check_equalizer_theorem,
    check_sobrification_routes, check_subspace_reflections,
], ids=["is_reflection", "construct_target", "construct_test", "K_conditions",
        "closure_properties", "finite_collapse", "chain_pairs", "equalizer_theorem",
        "sobrification_routes", "subspace_reflections"])
def test_reflection_lab_bounds_follow_the_one_bound_rule(entry, bad, error):
    # an int of at least 1, not a bool, at most the truncate cap, before any work
    with pytest.raises(error):
        entry(bad)


@pytest.mark.parametrize("entry, name, fault, checked", [
    (check_finite_collapse, "b_space", lambda z: z, 3),
    (check_chain_pairs, "find_homeomorphism", lambda a, b: None, 1),
    (check_chain_pairs, "b_closure", lambda z, a: 0, 1),
    (lambda n: check_equalizer_theorem(n)["forward"], "is_b_closed", lambda *args: False, 1),
    (check_sobrification_routes, "is_homeomorphism", lambda f: False, 1),
    (lambda n: check_subspace_reflections(n)["inclusions"], "k_closure",
     lambda z, a, pred: z.full, 2),
])
def test_acceptance_criteria_report_a_planted_fault(monkeypatch, entry, name, fault, checked):
    # every criterion holds on correct code, so a fault is planted in what
    # its sweep calls; the failing instance is counted
    monkeypatch.setattr(reflection_lab, name, fault)
    rep = entry(2)
    assert not rep.holds and rep.witness
    assert next(iter(rep.details.values())) == checked


def test_is_reflection_matches_the_literal_scan():
    # every unit between spaces of at most 3 points, for every REGISTRY class
    outcomes = {extension_outcome(check) for check in walked("is_reflection")}
    assert outcomes >= {"holds", "none", "several"}


def test_reflection_not_found_reports_bounds():
    # no at-most-two-point space receives the 3-antichain universally
    res = construct_reflection(antichain(3), REGISTRY["at_most_two_points"],
                               target_bound=2, test_bound=2)
    assert not res.found
    assert res.details["target_bound"] == 2


def test_negative_control_at_most_two_fails_productivity():
    reports = check_closure_properties(REGISTRY["at_most_two_points"], n_max=2)
    prod = reports["productive"]
    assert not prod.holds
    assert prod.witness is not None
    assert prod.witness["product_points"] == 4
    # hereditary is fine: subspaces only shrink
    assert reports["b_closed_hereditary"].holds


def test_negative_control_connected_fails_heredity():
    reports = check_closure_properties(REGISTRY["order_connected"], n_max=3)
    assert reports["productive"].holds
    her = reports["b_closed_hereditary"]
    assert not her.holds
    assert her.witness is not None
    # witness subset really is disconnected in the witness space
    sub_pts = her.witness["b_closed_subset"]
    assert len(sub_pts) >= 2
    # member-family intersections stay connected at this bound: the
    # intersection condition only sees families whose members are all in
    # the class, and every such meet of connected subspaces of a 3-point
    # ambient space is connected or empty
    k3 = check_K_conditions(REGISTRY["order_connected"], n_max=3)["K3"]
    assert k3.holds


def test_negative_control_two_plus_fails_intersections():
    pred = REGISTRY["at_least_two_points"]
    k3 = check_K_conditions(pred, n_max=3)["K3"]
    assert not k3.holds
    assert k3.witness is not None
    inter = k3.witness["intersection"]
    assert len(inter) < 2
    fam = k3.witness["family"]
    assert len(fam) >= 2
    assert all(len(member) >= 2 for member in fam)


def _tallies(reports):
    # details as ordered item lists, so key order is pinned too
    return {key: list(r.details.items()) for key, r in reports.items()}


def test_k_conditions_hold_for_full_class():
    reports = check_K_conditions(REGISTRY["all_t0"], n_max=3)
    assert all(r.holds for r in reports.values())
    closure = check_closure_properties(REGISTRY["all_t0"], n_max=3)
    assert all(r.holds for r in closure.values())
    assert all(r.method == "exhaustive<= 3" for r in [*reports.values(), *closure.values()])
    assert _tallies(reports) == {
        "K1": [("spaces_checked", 8)],
        "K2": [("relabelings_checked", 35)],
        "K3": [("intersections_checked", 42), ("empty_intersections_skipped", 7)],
        "K4": [("preimages_checked", 2402), ("empty_preimages_skipped", 630)],
    }
    assert _tallies(closure) == {
        "productive": [("products_checked", 64), ("members", 8)],
        "b_closed_hereditary": [("subspaces_checked", 42)],
        "has_equalizers": [("equalizers_checked", 4696), ("empty_equalizers_skipped", 1946)],
    }


def test_k2_fails_for_a_labelling_dependent_class():
    # "point 0 is minimal" depends on the labels: swapping the 2-chain's
    # points moves point 0 to the top
    k2 = check_K_conditions(lambda sp: sp.down[0] == 1, n_max=3)["K2"]
    assert not k2.holds
    assert k2.witness == {"space_up": [[0], [0, 1]], "relabeling": [1, 0]}
    # the failing relabeling is counted, like every sweep's failing instance
    assert k2.details == {"relabelings_checked": 5}


def test_k_conditions_for_sober_class():
    reports = check_K_conditions(SOBER, n_max=3)
    assert all(r.holds for r in reports.values()), {
        k: r.witness for k, r in reports.items() if not r.holds
    }


def test_main_equivalence_on_registry_samples():
    # bounded agreement of the three criteria columns for every class; the
    # closure columns hold for a reflective class only beside K1, so they
    # are read under it (t1 is productive and hereditary, yet misses K1)
    for name, pred in REGISTRY.items():
        k = check_K_conditions(pred, n_max=3)
        c = check_closure_properties(pred, n_max=3)
        k1 = k["K1"].holds
        col2 = all(r.holds for r in k.values())
        col3 = c["productive"].holds and c["b_closed_hereditary"].holds
        col4 = c["productive"].holds and c["has_equalizers"].holds
        assert col2 == (k1 and col3) == (k1 and col4), (name, k1, col2, col3, col4)


def test_k4_witness_for_two_point_class():
    # preimages can blow past two points: any map from a 3-space hits it
    reports = check_K_conditions(REGISTRY["at_most_two_points"], n_max=3)
    assert not reports["K1"].holds
    assert not reports["K4"].holds
    w = reports["K4"].witness
    assert w is not None and len(w["preimage"]) > 2
    # the failing instance is counted; the sweep stops there
    assert reports["K1"].details == {"spaces_checked": 4}
    assert list(reports["K4"].details.items()) == [
        ("preimages_checked", 368), ("empty_preimages_skipped", 185)]
    closure = check_closure_properties(REGISTRY["at_most_two_points"], n_max=3)
    assert not closure["productive"].holds
    assert list(closure["productive"].details.items()) == [
        ("products_checked", 5), ("members", 3)]
    assert closure["has_equalizers"].holds
    assert list(closure["has_equalizers"].details.items()) == [
        ("equalizers_checked", 40), ("empty_equalizers_skipped", 16)]


def test_subspace_members_feed_k3():
    # regression: N-shaped ambient, connected class, witness extractable
    z = from_cover(4, [(0, 2), (1, 2), (1, 3)])
    rep = check_K_conditions(REGISTRY["order_connected"], n_max=4)["K3"]
    assert not rep.holds
    w = rep.witness
    inter = mask_of(w["intersection"])
    ambient_n = len(w["ambient_up"])
    assert 0 < inter < (1 << ambient_n)
