"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Each criterion prints its verdict directly to the terminal (bypassing
capture) and then asserts, so a full run shows eight lines regardless
of pytest verbosity.  Budgeted criteria also assert their wall-clock
limits."""

import time

from t0kit import caps, reflection_lab
from t0kit.b_topology import b_space, chain_pair_is_b_closed_sigma2, is_b_closed
from t0kit.cli import _corpus_rows
from t0kit.constructions import (
    compose,
    equalizer,
    equalizer_maps_for_bclosed,
    find_homeomorphism,
    is_homeomorphism,
    powerset_scott,
    sierpinski_power,
    space_map,
    subspace,
)
from t0kit.enumeration import canonical_form, continuous_maps_list, spaces_up_to
from t0kit.finite_space import all_opens, is_subset, iter_bits
from t0kit.properties import (
    is_co_sober,
    is_k_bounded_sober,
    is_open_well_filtered,
    is_sober,
    is_strong_d,
)
from t0kit.reflection_lab import (
    REGISTRY,
    check_closure_properties,
    check_K_conditions,
    is_reflection,
    k_closure,
    sobrify_bclosure,
    sobrify_irr,
)

POSET_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045}  # OEIS A000112


def _line(capsys, num: int, ok: bool, desc: str) -> None:
    with capsys.disabled():
        print(f"\n[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_1_finite_collapse(capsys):
    t0 = time.perf_counter()
    counts = {n: 0 for n in POSET_COUNTS}
    failures = []
    total = 0
    with caps.scoped(enum=7):
        spaces = list(spaces_up_to(7))
    for sp in spaces:
        counts[sp.n] += 1
        total += 1
        reports = [
            is_sober(sp), is_co_sober(sp), is_strong_d(sp),
            is_k_bounded_sober(sp), is_open_well_filtered(sp),
        ]
        if not all(r.holds for r in reports):
            failures.append((sp.n, [r.name for r in reports if not r.holds]))
        bx = b_space(sp)
        if any(bx.up[x] != 1 << x for x in range(bx.n)):
            failures.append((sp.n, "b-space not discrete"))
    secs = time.perf_counter() - t0
    ok = counts == POSET_COUNTS and not failures and secs < 60
    _line(capsys, 1, ok,
          f"five properties Hold and the b-space is discrete on all {total} "
          f"spaces with <= 7 points, counts {counts} as frozen ({secs:.1f}s, "
          f"budget 60s)")


def test_criterion_2_chain_pairs(capsys):
    pairs = 0
    exceptions = 0
    for sp in spaces_up_to(5):
        for x1 in range(sp.n):
            for x2 in iter_bits(sp.up[x1]):
                if x2 == x1:
                    continue
                if not chain_pair_is_b_closed_sigma2(sp, x1, x2).holds:
                    exceptions += 1
                pairs += 1
    ok = exceptions == 0 and pairs > 200
    _line(capsys, 2, ok,
          f"every comparable pair gives a b-closed two-point chain subspace "
          f"({pairs} pairs over all spaces <= 5 points, {exceptions} exceptions)")


def test_criterion_3_equalizer_theorem(capsys):
    spaces4 = list(spaces_up_to(4))
    checked = 0
    bad_forward = 0
    for x in spaces4:
        for y in spaces4:
            maps = continuous_maps_list(x, y)
            for i, f in enumerate(maps):
                for g in maps[i:]:
                    if not is_b_closed(x, equalizer(f, g)):
                        bad_forward += 1
                    checked += 1
    realized = 0
    bad_backward = 0
    for x in spaces4:
        for e in range(x.full + 1):
            if not is_b_closed(x, e):
                continue
            pres = equalizer_maps_for_bclosed(x, e)
            if equalizer(pres.f, pres.g) != e:
                bad_backward += 1
            realized += 1
    ok = bad_forward == 0 and bad_backward == 0 and checked > 10**5
    _line(capsys, 3, ok,
          f"equalizers are b-closed ({checked} map pairs over spaces <= 4 "
          f"points, {bad_forward} failures) and every b-closed set is an "
          f"equalizer of characteristic maps ({realized} sets, "
          f"{bad_backward} failures), exact equality")


def test_criterion_4_sierpinski_powers(capsys):
    t0 = time.perf_counter()
    results = []
    for m in range(4):
        power = sierpinski_power(m)
        target = powerset_scott(m)
        results.append(find_homeomorphism(power.space, target) is not None)
    secs = time.perf_counter() - t0
    ok = all(results) and secs < 5
    _line(capsys, 4, ok,
          f"the m-fold two-point-chain power is homeomorphic to the "
          f"inclusion-ordered powerset space for m = 0..3, homeomorphisms "
          f"exhibited ({secs:.2f}s, budget 5s)")


def test_criterion_5_two_route_sobrification(capsys):
    t0 = time.perf_counter()
    done = 0
    failures = 0
    for sp in spaces_up_to(5):
        if len(all_opens(sp)) > 12:
            continue
        r1, r2 = sobrify_irr(sp), sobrify_bclosure(sp)
        if not (is_homeomorphism(r1.unit) and is_homeomorphism(r2.unit)):
            failures += 1
            continue
        inv = [0] * sp.n
        for x in range(sp.n):
            inv[r1.unit.table[x]] = x
        bridge = compose(r2.unit, space_map(r1.space, sp, tuple(inv)))
        if not (is_homeomorphism(bridge)
                and compose(bridge, r1.unit).table == r2.unit.table):
            failures += 1
        done += 1
    secs = time.perf_counter() - t0
    ok = failures == 0 and done >= 50 and secs < 120
    _line(capsys, 5, ok,
          f"both sobrification routes agree up to a homeomorphism that "
          f"commutes with the units, and both units are homeomorphisms, on "
          f"all {done} spaces with at most 12 opens ({secs:.1f}s, budget 120s)")


def test_criterion_6_reflection_universal_property(capsys, monkeypatch):
    sober = REGISTRY["sober"]
    composes = 0

    def counting_compose(g, f):
        nonlocal composes
        composes += 1
        return compose(g, f)

    monkeypatch.setattr(reflection_lab, "compose", counting_compose)
    inclusions = 0
    classes = {}
    closure_ok = True
    for z in spaces_up_to(4):
        for mask in range(1, z.full + 1):
            cl = k_closure(z, mask, sober)
            closure_ok = closure_ok and is_subset(mask, cl) and cl == mask
            sub = subspace(z, mask).space
            inclusions += 1
            classes.setdefault(canonical_form(sub).key, sub)
    reflection_ok = True
    factorizations = 0
    for sp in classes.values():
        eta = space_map(sp, sp, tuple(range(sp.n)))
        chk = is_reflection(eta, sober, test_bound=4)
        reflection_ok = reflection_ok and chk.holds and chk.verified_objects > 0
        factorizations += chk.verified_objects
    ok = (closure_ok and reflection_ok and inclusions == 282
          and composes <= factorizations)
    _line(capsys, 6, ok,
          f"each of the {inclusions} subspace inclusions into its class "
          f"closure is a reflection: every map into a class member with "
          f"<= 4 points factors through it exactly once "
          f"({factorizations} unique factorizations over "
          f"{len(classes)} distinct subspace shapes, {composes} compose calls)")


def test_criterion_7_certificate_corpus(capsys):
    t0 = time.perf_counter()
    rows = _corpus_rows(30)
    secs = time.perf_counter() - t0
    by_name = {r["check"]: r for r in rows}
    claims = [r for r in rows if r["check"].startswith("johnstone")]
    claim1 = next(r for r in claims if "(1)" in r["check"])
    claim4 = next(r for r in claims if "(4)" in r["check"])
    conditions = [
        all(r["match"] for r in rows),
        by_name["cofinite naturals: open well-filtered"]["verdict"] == "Refuted",
        by_name["alexandrov naturals: co-sober"]["verdict"] == "Holds",
        by_name["scott rationals [0,1) u {2}: k-bounded sober"]["verdict"]
        == "Refuted",
        by_name["scott rationals [0,1) u {2}: k-bounded sober"]["report"]
        ["witness"]["F"] == "[0,1)",
        all(
            by_name[f"scott rationals [0,1) u (2-1/{n}, 2+1/{n}): "
                    f"k-bounded sober"]["verdict"] == "Holds"
            for n in range(2, 7)
        ),
        claim1["report"]["details"]["nonempty_samples_refuted"] >= 3,
        claim1["verdict"] in ("Holds", "HoldsUpTo(30)"),
        claim4["verdict"] == "Holds",
        "homeomorphism" in claim4["report"]["witness"],
        secs < 120,
    ]
    ok = all(conditions)
    _line(capsys, 7, ok,
          f"certificate corpus: cofinite-naturals well-filtering Refuted, "
          f"punctured-limit space Refuted with the closed-segment witness, "
          f"open-gap spaces Hold for n=2..6, chain-of-naturals co-sober "
          f"Holds, dcpo way-below triviality Refuted on "
          f"{claim1['report']['details']['nonempty_samples_refuted']} opens "
          f"with cover witnesses, top-row homeomorphism Holds exactly "
          f"({secs:.1f}s, budget 120s)")


def test_criterion_8_negative_controls(capsys):
    closure = check_closure_properties(REGISTRY["at_most_two_points"], n_max=3)
    prod = closure["productive"]
    prod_ok = (
        not prod.holds
        and prod.witness is not None
        and "left_up" in prod.witness
        and prod.witness["product_points"] > 2
    )
    conditions = check_K_conditions(REGISTRY["at_least_two_points"], n_max=3)
    k3 = conditions["K3"]
    k3_ok = (
        not k3.holds
        and k3.witness is not None
        and len(k3.witness["intersection"]) < 2
        and all(len(m) >= 2 for m in k3.witness["family"])
    )
    ok = prod_ok and k3_ok
    _line(capsys, 8, ok,
          "negative controls: the at-most-two-points class fails "
          "productivity with an explicit witness product, and the "
          "at-least-two-points class fails member-intersection stability "
          "with an explicit witness family")
