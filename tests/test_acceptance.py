"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Each criterion prints its verdict directly to the terminal (bypassing
capture) and then asserts, so a full run shows eight lines regardless
of pytest verbosity.  Budgeted criteria also assert their wall-clock
limits.  Criteria 1, 2, 3, 5 and 6 assert on reflection_lab reports."""

import time

from oracles import powerset_scott

from t0kit import caps, reflection_lab
from t0kit.constructions import (
    compose,
    find_homeomorphism,
    sierpinski_power,
)
from t0kit.reflection_lab import (
    REGISTRY,
    check_chain_pairs,
    check_closure_properties,
    check_equalizer_theorem,
    check_finite_collapse,
    check_K_conditions,
    check_sobrification_routes,
    check_subspace_reflections,
)
from t0kit.symbolic.corpus import run_corpus

POSET_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045}  # OEIS A000112


def _line(capsys, num: int, ok: bool, desc: str) -> None:
    with capsys.disabled():
        print(f"\n[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_1_finite_collapse(capsys):
    t0 = time.perf_counter()
    with caps.scoped(enum=7):
        rep = check_finite_collapse(7)
    secs = time.perf_counter() - t0
    counts = rep.details["spaces_by_size"]
    ok = rep.holds and counts == POSET_COUNTS and secs < 60
    _line(capsys, 1, ok,
          f"five properties Hold and the b-space is discrete on all "
          f"{rep.details['spaces_checked']} spaces with <= 7 points, counts "
          f"{counts} as frozen ({secs:.1f}s, budget 60s)")


def test_criterion_2_chain_pairs(capsys):
    rep = check_chain_pairs(5)
    pairs = rep.details["pairs_checked"]
    ok = rep.holds and pairs > 200
    _line(capsys, 2, ok,
          f"every comparable pair gives a b-closed two-point chain subspace "
          f"({pairs} pairs over all spaces <= 5 points, {int(not rep.holds)} exceptions)")


def test_criterion_3_equalizer_theorem(capsys):
    reps = check_equalizer_theorem(4)
    forward, backward = reps["forward"], reps["backward"]
    checked = forward.details["pairs_checked"]
    ok = forward.holds and backward.holds and checked > 10**5
    _line(capsys, 3, ok,
          f"equalizers are b-closed ({checked} map pairs over spaces <= 4 "
          f"points, {int(not forward.holds)} failures) and every b-closed set is an "
          f"equalizer of characteristic maps ({backward.details['sets_checked']} sets, "
          f"{int(not backward.holds)} failures), exact equality")


def test_criterion_4_sierpinski_powers(capsys):
    t0 = time.perf_counter()
    results = []
    for m in range(4):
        power = sierpinski_power(m)
        target = powerset_scott(m)
        results.append(find_homeomorphism(power, target) is not None)
    secs = time.perf_counter() - t0
    ok = all(results) and secs < 5
    _line(capsys, 4, ok,
          f"the m-fold two-point-chain power is homeomorphic to the "
          f"inclusion-ordered powerset space for m = 0..3, homeomorphisms "
          f"exhibited ({secs:.2f}s, budget 5s)")


def test_criterion_5_two_route_sobrification(capsys):
    t0 = time.perf_counter()
    rep = check_sobrification_routes(5)
    secs = time.perf_counter() - t0
    done = rep.details["spaces_checked"]
    ok = rep.holds and done >= 50 and secs < 120
    _line(capsys, 5, ok,
          f"both sobrification routes agree up to a homeomorphism that "
          f"commutes with the units, and both units are homeomorphisms, on "
          f"all {done} spaces with at most 12 opens ({secs:.1f}s, budget 120s)")


def test_criterion_6_reflection_universal_property(capsys, monkeypatch):
    composes = 0

    def counting_compose(g, f):
        nonlocal composes
        composes += 1
        return compose(g, f)

    monkeypatch.setattr(reflection_lab, "compose", counting_compose)
    reps = check_subspace_reflections(4)
    included, reflected = reps["inclusions"], reps["reflections"]
    inclusions = included.details["inclusions_checked"]
    factorizations = reflected.details["factorizations"]
    ok = (included.holds and reflected.holds and inclusions == 282
          and composes <= factorizations)
    _line(capsys, 6, ok,
          f"each of the {inclusions} subspace inclusions into its class "
          f"closure is a reflection: every map into a class member with "
          f"<= 4 points factors through it exactly once "
          f"({factorizations} unique factorizations over "
          f"{reflected.details['shapes_checked']} distinct subspace shapes, "
          f"{composes} compose calls)")


def test_criterion_7_certificate_corpus(capsys):
    t0 = time.perf_counter()
    rows = run_corpus(30)
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
