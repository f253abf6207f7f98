"""Reflections of finite T0 spaces into property-defined subclasses.

A class of spaces is given as a decidable predicate.  The module offers
two sobrification routes (irreducible-closed-sets and b-closure of the
canonical image), a k-closure operator inside an ambient space, bounded
checks of the Keimel-Lawson conditions K1-K4 and of the closure
properties (productive, b-closed-hereditary, has equalizers), and a
bounded universal-property verifier.  All quantifiers over "all spaces"
are bounded by an explicit carrier size recorded in the result.

Acceptance criteria 1, 2, 3, 5 and 6 are check_finite_collapse,
check_chain_pairs, check_equalizer_theorem, check_sobrification_routes
and check_subspace_reflections, reported by the same sweep as K1-K4.

Within the finite testbed every space is sober, so K1 bounded at n says
exactly "K contains every space with at most n points"; classes excluding
some finite space fail it, which is the mechanism behind the negative
controls."""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Any, Callable, Iterator

from . import caps
from .b_topology import b_closure, b_space, is_b_closed
from .constructions import (
    SpaceMap,
    canonical_embedding,
    compose,
    equalizer,
    equalizer_maps_for_bclosed,
    find_homeomorphism,
    identity,
    is_homeomorphism,
    preimage,
    product,
    sierpinski_power,
    space_map,
    subspace,
)
from .enumeration import canonical_form, continuous_maps_list, relabel_space, spaces_up_to
from .errors import EmptyCarrier
from .finite_space import (
    FiniteSpace,
    PointSet,
    all_opens,
    check_inside,
    from_order,
    irreducible_closed_sets,
    is_subset,
    iter_bits,
    mask_of,
    points_of,
    sigma2,
)
from .properties import CHECKERS, PropertyReport
from .values import Value


ClassPredicate = Callable[[FiniteSpace], bool]  # a class of spaces, as its membership test


def _order_connected(space: FiniteSpace) -> bool:
    """Connected comparability graph (zigzag connectedness)."""
    reach = 1
    frontier = [0]
    while frontier:
        x = frontier.pop()
        nbrs = space.up[x] | space.down[x]
        new = nbrs & ~reach
        reach |= new
        frontier.extend(iter_bits(new))
    return reach == space.full


# One class per checker but t0 (all_t0 below is that class), then the
# negative controls.  Membership looks the checker up at call time.
REGISTRY: dict[str, ClassPredicate] = {
    **{name: lambda sp, name=name: CHECKERS[name](sp).holds
       for name in CHECKERS if name != "t0"},
    "all_t0": lambda sp: True,
    "at_most_two_points": lambda sp: sp.n <= 2,  # not productive
    "at_least_two_points": lambda sp: sp.n >= 2,  # not intersection-stable
    "order_connected": _order_connected,  # not hereditary
}


class SobrificationResult(Value):
    __slots__ = _fields = ("space", "unit", "route", "details")

    def __init__(self, space: FiniteSpace, unit: SpaceMap, route: str,
                 details: dict[str, Any] | None = None):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "route", route)
        object.__setattr__(self, "details", {} if details is None else details)


def sobrify_irr(space: FiniteSpace) -> SobrificationResult:
    """Point the result at the irreducible closed sets, ordered by
    inclusion: for F not inside G, the complement of G is an open that
    meets F and misses G, so the specialization order of Irr(X) is
    inclusion (Goubault-Larrecq, Non-Hausdorff Topology and Domain
    Theory, 8.2).  The unit sends x to the closure of x."""
    irr = irreducible_closed_sets(space)
    index = {f: i for i, f in enumerate(irr)}
    result = from_order(len(irr), [
        (i, j) for i, f in enumerate(irr) for j, g in enumerate(irr) if is_subset(f, g)
    ])
    unit = space_map(space, result, tuple(index[space.down[x]] for x in range(space.n)))
    return SobrificationResult(
        space=result,
        unit=unit,
        route="irreducible-closed-sets",
        details={"irreducible_closed_count": len(irr)},
    )


def sobrify_bclosure(space: FiniteSpace) -> SobrificationResult:
    """Embed canonically into the Sierpinski power over the nonempty
    opens, take the b-closure of the image, and corestrict.  The
    embedding's codes are its image points; the unit's monotonicity
    check into the subspace covers the embedding's."""
    embedding = canonical_embedding(space)
    codes = embedding.bitcodes
    power = sierpinski_power(len(embedding.opens))
    image = mask_of(codes)
    closed = b_closure(power, image)
    sub = subspace(power, closed)
    pos = {p: i for i, p in enumerate(sub.points)}
    unit = space_map(space, sub.space, tuple(pos[c] for c in codes))
    return SobrificationResult(
        space=sub.space,
        unit=unit,
        route="b-closure-of-canonical-image",
        details={
            "power_exponent": len(embedding.opens),
            "image_size": image.bit_count(),
            "b_closure_size": closed.bit_count(),
        },
    )


def k_closure(ambient: FiniteSpace, a: PointSet, predicate: ClassPredicate) -> PointSet:
    """Intersection of all carriers B with a <= B whose subspace lies in
    the class.  When no such carrier exists the intersection over the
    empty family is the whole ambient carrier.  When a itself lies in
    the class the answer is a after one membership call (a set lemma,
    not the property decided); the scan of every carrier is its oracle
    in tests/oracles.py."""
    if a == 0:
        raise EmptyCarrier("k-closure of the empty set is not defined here")
    check_inside(ambient, a)
    if predicate(subspace(ambient, a).space):
        return a  # a is in the family, and every member contains a
    out = ambient.full
    for b in range(ambient.full + 1):
        if b != a and is_subset(a, b) and predicate(subspace(ambient, b).space):
            out &= b
    return out


def _ups(space: FiniteSpace) -> list[list[int]]:
    """The space's point saturations, the form witnesses record it in."""
    return [list(points_of(u)) for u in space.up]


class ReflectionCheck(Value):
    __slots__ = _fields = ("holds", "verified_objects", "test_bound", "witness")

    def __init__(self, holds: bool, verified_objects: int, test_bound: int,
                 witness: dict[str, Any] | None = None):
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "verified_objects", verified_objects)
        object.__setattr__(self, "test_bound", test_bound)
        object.__setattr__(self, "witness", witness)


def is_reflection(eta: SpaceMap, predicate: ClassPredicate, test_bound: int = 4) -> ReflectionCheck:
    """Bounded universal property: the codomain is in the class and every
    map from the domain into a class member on at most test_bound points
    factors through eta exactly once."""
    caps.check_bound(test_bound, "test_bound")
    x, y = eta.dom, eta.cod
    if not predicate(y):
        return ReflectionCheck(False, 0, test_bound,
                               {"reason": "target is not in the class"})
    verified = 0
    for z in spaces_up_to(test_bound):
        if not predicate(z):
            continue
        # f has one extension per g with g . eta == f: count g by that table
        induced = Counter(compose(g, eta).table for g in continuous_maps_list(y, z))
        for f in continuous_maps_list(x, z):
            count = induced[f.table]
            if count != 1:
                return ReflectionCheck(
                    False,
                    verified,
                    test_bound,
                    {
                        "test_object_up": _ups(z),
                        "map": list(f.table),
                        "extension_count": count,
                    },
                )
            verified += 1
    return ReflectionCheck(True, verified, test_bound)


class ReflectionResult(Value):
    __slots__ = _fields = ("found", "space", "unit", "route", "check", "details")

    def __init__(self, found: bool, space: FiniteSpace | None, unit: SpaceMap | None, route: str,
                 check: ReflectionCheck | None, details: dict[str, Any] | None = None):
        object.__setattr__(self, "found", found)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "route", route)
        object.__setattr__(self, "check", check)
        object.__setattr__(self, "details", {} if details is None else details)


def construct_reflection(
    space: FiniteSpace,
    predicate: ClassPredicate,
    target_bound: int = 4,
    test_bound: int = 4,
) -> ReflectionResult:
    """Find the reflection of one space into a class, verified against
    all class members with at most test_bound points.

    Candidates in order: the identity (when the space is already a
    member), then every map into every class member with at most
    target_bound points.  The first candidate passing the bounded
    universal property wins.  The irreducible-closed-sets sobrification
    is no candidate: on finite input its unit is a homeomorphism, so for
    a class closed under relabelling (K2) its codomain is a member
    exactly when the space is, and then the identity has already won."""
    caps.check_bound(target_bound, "target_bound")
    caps.check_bound(test_bound, "test_bound")

    def finish(eta: SpaceMap, route: str) -> ReflectionResult | None:
        check = is_reflection(eta, predicate, test_bound)
        if not check.holds:
            return None
        return ReflectionResult(
            found=True,
            space=eta.cod,
            unit=eta,
            route=route,
            check=check,
        )

    if predicate(space):
        got = finish(identity(space), "identity")
        if got is not None:
            return got
    for y in spaces_up_to(target_bound):
        if not predicate(y):
            continue
        for eta in continuous_maps_list(space, y):
            got = finish(eta, "bounded-search")
            if got is not None:
                return got
    return ReflectionResult(
        found=False,
        space=None,
        unit=None,
        route="bounded-search",
        check=None,
        details={"target_bound": target_bound, "test_bound": test_bound},
    )


def _meet_closure(carriers: list[PointSet]) -> dict[PointSet, tuple[PointSet, ...]]:
    """All intersections of subfamilies, each tagged with a generating
    family (for witnesses).  Output-sensitive pairwise closure."""
    gen: dict[PointSet, tuple[PointSet, ...]] = {c: (c,) for c in carriers}
    frontier = list(carriers)
    while frontier:
        b = frontier.pop()
        for c in carriers:
            m = b & c
            if m not in gen:
                gen[m] = tuple(sorted(set(gen[b] + (c,))))
                frontier.append(m)
    return gen


def _member_carriers(space: FiniteSpace, predicate: ClassPredicate) -> list[PointSet]:
    """Nonempty carriers whose subspace lies in the class."""
    return [b for b in range(1, space.full + 1) if predicate(subspace(space, b).space)]


EXEMPT = object()  # sweep item for an empty intersection, preimage or equalizer


def _parallel_pairs(spaces: list[FiniteSpace], ordered: bool) -> Iterator[tuple]:
    """Each parallel pair of maps f, g: a -> b between the spaces, as
    (a, b, f, g, equalizer); with g from f on in the map stream unless
    ordered.  has_equalizers and criterion 3 both read it."""
    for a in spaces:
        for b in spaces:
            maps = continuous_maps_list(a, b)
            for i, f in enumerate(maps):
                for g in maps if ordered else maps[i:]:
                    yield a, b, f, g, equalizer(f, g)


def _pair_witness(a: FiniteSpace, b: FiniteSpace, f: SpaceMap, g: SpaceMap,
                  e: PointSet) -> dict[str, Any]:
    return {"dom_up": _ups(a), "cod_up": _ups(b), "f": list(f.table),
            "g": list(g.table), "equalizer": list(points_of(e))}


def _subspace_item(predicate: ClassPredicate, space: FiniteSpace, carrier: PointSet,
                   witness: Callable[[], dict[str, Any]]) -> Any:
    """Sweep item for the subspace of space on carrier: EXEMPT when the
    carrier is empty, None when the subspace is a member, else witness()."""
    if carrier == 0:
        return EXEMPT
    return None if predicate(subspace(space, carrier).space) else witness()


def _sweep(name: str, n_max: int, cases: Iterator[Any], counted: str,
           exempt: str | None = None, **extra: Any) -> PropertyReport:
    """Run a stream of instances up to its first failure.  Each item is
    None (the instance holds), EXEMPT (tallied under exempt) or the
    witness of a failure; every non-exempt item up to and including the
    failure is tallied under counted."""
    bad = None
    checked = skipped = 0
    for item in cases:
        if item is EXEMPT:
            skipped += 1
            continue
        checked += 1
        if item is not None:
            bad = item
            break
    details = {counted: checked}
    if exempt is not None:
        details[exempt] = skipped
    details.update(extra)
    return PropertyReport(name, bad is None, f"exhaustive<= {n_max}", bad, details)


def check_K_conditions(predicate: ClassPredicate, n_max: int = 3) -> dict[str, PropertyReport]:
    """Bounded Keimel-Lawson conditions.

    K1: every space (all are sober here) up to n_max is a member.
    K2: membership is relabeling-invariant.
    K3: intersections of member subspaces of a member-independent ambient
        stay members (empty intersections exempt, counted).
    K4: preimages of member subspaces under continuous maps are members
        (empty preimages exempt, counted)."""
    caps.check_bound(n_max, "n_max")
    spaces = list(spaces_up_to(n_max))
    carriers = [_member_carriers(z, predicate) for z in spaces]

    def k1():
        for z in spaces:
            yield None if predicate(z) else {"sober_space_up": _ups(z)}

    def k2():
        for z in spaces:
            base = predicate(z)
            for perm in itertools.permutations(range(z.n)):
                if predicate(relabel_space(z, perm)) == base:
                    yield None
                else:
                    yield {"space_up": _ups(z), "relabeling": list(perm)}

    def k3():
        for z, members in zip(spaces, carriers):
            for inter, family in _meet_closure(members).items():
                yield _subspace_item(predicate, z, inter, lambda: {
                    "ambient_up": _ups(z),
                    "family": [list(points_of(c)) for c in family],
                    "intersection": list(points_of(inter)),
                })

    def k4():
        for zx in spaces:
            for zy, members in zip(spaces, carriers):
                for f in continuous_maps_list(zx, zy):
                    for b in members:
                        pre = preimage(f, b)
                        yield _subspace_item(predicate, zx, pre, lambda: {
                            "dom_up": _ups(zx),
                            "cod_up": _ups(zy),
                            "map": list(f.table),
                            "member_subspace": list(points_of(b)),
                            "preimage": list(points_of(pre)),
                        })

    return {
        "K1": _sweep("K1_contains_all_sober", n_max, k1(), "spaces_checked"),
        "K2": _sweep("K2_homeomorphism_invariant", n_max, k2(), "relabelings_checked"),
        "K3": _sweep("K3_member_subspace_intersections", n_max, k3(),
                     "intersections_checked", "empty_intersections_skipped"),
        "K4": _sweep("K4_preimages_of_member_subspaces", n_max, k4(),
                     "preimages_checked", "empty_preimages_skipped"),
    }


def check_closure_properties(predicate: ClassPredicate, n_max: int = 3) -> dict[str, PropertyReport]:
    """Bounded closure properties from the reflectivity criterion:
    productive (binary products), b-closed-hereditary, has equalizers
    (the subspace equalizer of member-valued parallel pairs is a member;
    empty equalizers exempt, counted)."""
    caps.check_bound(n_max, "n_max")
    members = [z for z in spaces_up_to(n_max) if predicate(z)]

    def productive():
        for a in members:
            for b in members:
                prod = product([a, b])
                if predicate(prod.space):
                    yield None
                else:
                    yield {"left_up": _ups(a), "right_up": _ups(b),
                           "product_points": prod.space.n}

    def hereditary():
        for z in members:
            for b in range(1, z.full + 1):
                if is_b_closed(z, b):
                    yield _subspace_item(predicate, z, b, lambda: {
                        "space_up": _ups(z), "b_closed_subset": list(points_of(b)),
                    })

    def equalizers():
        for a, b, f, g, e in _parallel_pairs(members, ordered=True):
            yield _subspace_item(predicate, a, e, lambda: _pair_witness(a, b, f, g, e))

    return {
        "productive": _sweep("productive", n_max, productive(), "products_checked",
                             members=len(members)),
        "b_closed_hereditary": _sweep("b_closed_hereditary", n_max, hereditary(),
                                      "subspaces_checked"),
        "has_equalizers": _sweep("has_equalizers", n_max, equalizers(),
                                 "equalizers_checked", "empty_equalizers_skipped"),
    }


# Acceptance criteria 1, 2, 3, 5 and 6, each swept over the spaces with
# at most its bound's points.

_B_CLOSURE_IS_IDENTITY = "b-closure is the identity: up[z] & down[z] = {z} by antisymmetry"


def check_finite_collapse(n_max: int = 6) -> PropertyReport:
    """Criterion 1: the five sobriety-like checkers hold and the b-space is
    discrete; details also count the spaces by size.  An n_max above the
    enum cap needs caps.scoped(enum=n_max)."""
    caps.check_bound(n_max, "n_max")
    spaces = list(spaces_up_to(n_max))
    names = ("sober", "co_sober", "strong_d", "k_bounded_sober", "open_well_filtered")

    def cases():
        for z in spaces:
            failing = [name for name in names if not CHECKERS[name](z).holds]
            discrete = b_space(z).up == tuple(1 << x for x in range(z.n))
            yield None if discrete and not failing else {
                "space_up": _ups(z), "failing": failing, "b_space_discrete": discrete}

    return _sweep("finite_collapse", n_max, cases(), "spaces_checked",
                  spaces_by_size=dict(Counter(z.n for z in spaces)))


def check_chain_pairs(n_max: int = 5) -> PropertyReport:
    """Criterion 2: each {x1 < x2} is b-closed and its subspace is sigma2.
    It cannot fail; details say why."""
    caps.check_bound(n_max, "n_max")

    def cases():
        for z in spaces_up_to(n_max):
            for x1 in range(z.n):
                for x2 in iter_bits(z.up[x1] & ~(1 << x1)):
                    pair = 1 << x1 | 1 << x2
                    ok = (b_closure(z, pair) == pair
                          and find_homeomorphism(subspace(z, pair).space, sigma2()) is not None)
                    yield None if ok else {"space_up": _ups(z), "pair": [x1, x2]}

    return _sweep("chain_pairs_b_closed", n_max, cases(), "pairs_checked",
                  vacuous_by=_B_CLOSURE_IS_IDENTITY + "; a two-point chain is sigma2")


def check_equalizer_theorem(n_max: int = 4) -> dict[str, PropertyReport]:
    """Criterion 3.  forward: the equalizer of each unordered parallel pair
    is b-closed; it cannot fail, and details say why.  backward: each
    b-closed set is the equalizer of its equalizer_maps_for_bclosed pair."""
    caps.check_bound(n_max, "n_max")
    spaces = list(spaces_up_to(n_max))

    def forward():
        for a, b, f, g, e in _parallel_pairs(spaces, ordered=False):
            yield None if is_b_closed(a, e) else _pair_witness(a, b, f, g, e)

    def backward():
        for z in spaces:
            for e in range(z.full + 1):
                if is_b_closed(z, e):
                    pres = equalizer_maps_for_bclosed(z, e)
                    ok = equalizer(pres.f, pres.g) == e
                    yield None if ok else {"space_up": _ups(z), "b_closed": list(points_of(e))}

    return {"forward": _sweep("equalizers_are_b_closed", n_max, forward(), "pairs_checked",
                              vacuous_by=_B_CLOSURE_IS_IDENTITY),
            "backward": _sweep("b_closed_sets_are_equalizers", n_max, backward(),
                               "sets_checked")}


def check_sobrification_routes(n_max: int = 5) -> PropertyReport:
    """Criterion 5: both units are homeomorphisms, and so is the bridge
    between the two results, which commutes with them.  Spaces with more
    than 12 opens are exempt.  12 is the criterion's own bound, kept so
    that the pinned tally (64 spaces at n_max=5) does not move: the
    b-closure route's power has 2^(opens - 1) points, which the default
    product cap admits up to 13 opens and refuses from 14."""
    caps.check_bound(n_max, "n_max")

    def cases():
        for z in spaces_up_to(n_max):
            if len(all_opens(z)) > 12:
                yield EXEMPT
                continue
            irr, bcl = sobrify_irr(z), sobrify_bclosure(z)
            ok = is_homeomorphism(irr.unit) and is_homeomorphism(bcl.unit)
            if ok:
                inverse = sorted(range(z.n), key=irr.unit.table.__getitem__)
                bridge = compose(bcl.unit, space_map(irr.space, z, inverse))
                ok = (is_homeomorphism(bridge)
                      and compose(bridge, irr.unit).table == bcl.unit.table)
            yield None if ok else {"space_up": _ups(z)}

    return _sweep("sobrification_routes_agree", n_max, cases(), "spaces_checked",
                  "spaces_over_12_opens_skipped")


def check_subspace_reflections(test_bound: int = 4) -> dict[str, PropertyReport]:
    """Criterion 6 for the sober class.  inclusions: each nonempty subset
    is its own k-closure.  reflections: the identity of each subspace shape
    met there (first seen first) passes is_reflection at test_bound."""
    caps.check_bound(test_bound, "test_bound")
    sober = REGISTRY["sober"]
    shapes: dict[Any, FiniteSpace] = {}

    def inclusions():
        for z in spaces_up_to(test_bound):
            for a in range(1, z.full + 1):
                sub = subspace(z, a).space
                shapes.setdefault(canonical_form(sub).key, sub)
                cl = k_closure(z, a, sober)
                yield None if cl == a else {"ambient_up": _ups(z), "subset": list(points_of(a)),
                                            "k_closure": list(points_of(cl))}

    included = _sweep("subspace_inclusions_k_closed", test_bound, inclusions(),
                      "inclusions_checked")
    checks = [(sp, is_reflection(identity(sp), sober, test_bound)) for sp in shapes.values()]
    cases = (None if c.holds and c.verified_objects else {"shape_up": _ups(sp), **(c.witness or {})}
             for sp, c in checks)
    return {"inclusions": included,
            "reflections": _sweep("subspace_reflections", test_bound, cases, "shapes_checked",
                                  factorizations=sum(c.verified_objects for _, c in checks))}
