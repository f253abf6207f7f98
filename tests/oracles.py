"""Every fast path of t0kit beside the literal quantifier it replaced.

ROWS holds one Row per fast path.  A row names the fast routine, its
literal oracle, the order lemma the fast side rests on, the `method`
string its reports carry, and the inputs it is walked on.  The oracles
are written from the definitions, never from the lemmas, so that the two
sides can only agree by being right; this is differential testing in
McKeeman's sense ("Differential Testing for Software", Digital
Technical Journal 10(1), 1998).

tests/test_oracles.py walks every row two ways: exhaustively over its
seeds (by default every space of at most 5 points plus GALLERY), and
over random_posets.  A new reduced tier is one more row here and needs
no new test function.

The shared test helpers GALLERY (with lambda_poset), random_posets,
top_cone, bottom_cone and product_index live here too, so that each is
defined once, as do the test-only builders powerset_scott and
all_closed_sets.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

import pytest
from hypothesis import strategies as st

from t0kit import caps, properties
from t0kit.b_topology import b_basic_opens, b_closure, b_space, is_b_closed
from t0kit.constructions import (
    ProductResult,
    SpaceMap,
    closed_pair_representation,
    compose,
    equalizer,
    identity,
    is_monotone,
    preimage,
    product,
    sierpinski_power,
    space_map,
    subspace,
)
from t0kit.enumeration import all_continuous_maps, continuous_maps_list, spaces_up_to
from t0kit.errors import MismatchedSpaces
from t0kit.finite_space import (
    FiniteSpace,
    all_opens,
    antichain,
    chain,
    closure,
    from_cover,
    from_opens,
    from_order,
    interior,
    irreducible_closed_sets,
    is_directed,
    is_subset,
    iter_bits,
    mask_of,
    point,
    points_of,
    saturate,
    sigma2,
    v_poset,
)
from t0kit.properties import (
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
from t0kit.reflection_lab import (
    REGISTRY,
    ReflectionCheck,
    SobrificationResult,
    is_reflection,
    k_closure,
    sobrify_irr,
)

# Shared helpers.


def lambda_poset() -> FiniteSpace:
    """One bottom 0 under two maximal points 1, 2."""
    return from_order(3, [(0, 1), (0, 2)])


GALLERY = [
    point(),
    sigma2(),
    antichain(2),
    chain(3),
    chain(4),
    antichain(3),
    v_poset(),
    lambda_poset(),
    from_cover(4, [(0, 1), (0, 2), (1, 3), (2, 3)]),  # diamond
    from_cover(4, [(0, 2), (1, 2), (1, 3)]),  # N-shape
    from_cover(5, [(0, 2), (1, 2), (2, 3), (2, 4)]),  # bow tie
]


# Points 0 and 1 share their up and down masks: no partial order, so
# is_b_closed cannot take its discrete branch on it.
NOT_AN_ORDER = FiniteSpace(3, (3, 3, 4), (3, 3, 4))


def space_id(space: FiniteSpace) -> str:
    return f"n{space.n}-{hash(space) & 0xffff:04x}"


def top_cone(k: int) -> FiniteSpace:
    return from_order(k, [(i, k - 1) for i in range(k - 1)])


def bottom_cone(k: int) -> FiniteSpace:
    return from_order(k, [(0, i) for i in range(1, k)])


def product_index(prod: ProductResult, coords: tuple[int, ...]) -> int:
    """The point of prod with the given coordinates, first coordinate
    most significant; the inverse of prod.coords."""
    if len(coords) != len(prod.factors):
        raise MismatchedSpaces("coordinate arity mismatch")
    idx = 0
    for c, s in zip(coords, prod.factors):
        if not 0 <= c < s.n:
            raise MismatchedSpaces(f"coordinate {c} outside a factor of {s.n} points")
        idx = idx * s.n + c
    return idx


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


# Literal oracles.  Each quantifies over the sets its definition names.


def literal_opens(space: FiniteSpace) -> tuple[int, ...]:
    """Every subset of the carrier that is open, in increasing order."""
    return tuple(a for a in range(space.full + 1) if space.is_open(a))


def all_closed_sets(space: FiniteSpace) -> tuple[int, ...]:
    """The complements of the opens."""
    full = space.full
    return tuple(sorted(full & ~u for u in all_opens(space)))


def powerset_scott(m: int) -> FiniteSpace:
    """The powerset of an m-element set under inclusion, as a space.

    Points are subset bitmasks; up-masks (supersets) and down-masks
    (subsets) are filled in by the subset-sum sweep, one bit at a time.
    """
    caps.guard(1 << m, caps.cap("product"), "powerset carrier size")
    size = 1 << m
    up = [1 << s for s in range(size)]
    down = [1 << s for s in range(size)]
    for j in range(m):
        for s in range(size):
            if not (s >> j) & 1:
                up[s] |= up[s | (1 << j)]
            else:
                down[s] |= down[s ^ (1 << j)]
    return FiniteSpace(size, tuple(up), tuple(down))


def literal_irreducible_closed_sets(space: FiniteSpace) -> tuple[int, ...]:
    """Nonempty closed sets that are no union of two proper closed subsets."""
    closed = all_closed_sets(space)
    out = []
    for f in closed:
        if f == 0:
            continue
        proper = sorted({c & f for c in closed if c & f != f})
        if not any(c1 | c2 == f for i, c1 in enumerate(proper) for c2 in proper[i:]):
            out.append(f)
    return tuple(out)


def literal_strong_d(space: FiniteSpace) -> PropertyReport:
    """Every directed subset D, every point x and every open U."""
    opens = all_opens(space)
    full = space.full
    bad = None
    directed_count = 0
    for d_mask in range(1, full + 1):
        if not is_directed(space, d_mask):
            continue
        directed_count += 1
        ups = [space.up[d] for d in iter_bits(d_mask)]
        inter = full
        for up in ups:
            inter &= up
        for x in range(space.n):
            target = inter & space.up[x]
            for u in opens:
                if target & ~u == 0 and not any(up & space.up[x] & ~u == 0 for up in ups):
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


@functools.cache
def families(m: int) -> list[list[int]]:
    """families(m)[fam] lists the indices in the mask fam, ascending."""
    out = [[]]
    for fam in range(1, 1 << m):
        low = fam & -fam
        out.append([low.bit_length() - 1, *out[fam ^ low]])
    return out


def literal_way_below(space: FiniteSpace) -> tuple[tuple[int, ...], int]:
    """Reference way-below quantifier over all 2^|opens| nonempty
    subfamilies, for every pair of opens in one pass.

    Returns below, where below[j] is the mask of the i with opens[i]
    way-below opens[j] (indices into all_opens(space)), and the number
    of directed subfamilies scanned.  The way-below and the OWF rows
    both need it, so it is computed once per space."""
    caps.guard(len(all_opens(space)), caps.cap("owf_opens"),
               "opens count for literal way-below")
    return _literal_way_below(space)


@functools.lru_cache(maxsize=None)
def _literal_way_below(space: FiniteSpace) -> tuple[tuple[int, ...], int]:
    opens = all_opens(space)
    m = len(opens)
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
    members = families(m)
    for fam in range(1, 1 << m):
        idxs = members[fam]
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
            if opens[j] & ~union == 0:
                covered |= 1 << j
        for i in range(m):
            if not (fam & super_of[i]):
                not_wb[i] |= covered
    wb = [~not_wb[i] & ((1 << m) - 1) for i in range(m)]
    below = [0] * m
    for i in range(m):
        for j in iter_bits(wb[i]):
            below[j] |= 1 << i
    return tuple(below), directed_families


def literal_owf(space: FiniteSpace) -> PropertyReport:
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
    members = families(m)
    for fam in range(1, 1 << m):
        idxs = members[fam]
        if not all(
            below[i] & below[j] & fam for a, i in enumerate(idxs) for j in idxs[a:]
        ):
            continue
        filtered_count += 1
        inter = space.full
        for i in idxs:
            inter &= opens[i]
        for k in range(m):
            if inter & ~opens[k] == 0 and not (fam & sub_of[k]):
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


def b_closure_literal(space: FiniteSpace) -> tuple[int, ...]:
    """The b-closure of every subset, quantifying over every basic set:
    y is in the closure of A iff every basic set holding y meets A."""
    base = b_basic_opens(space)
    out = []
    for a in range(space.full + 1):
        closed = 0
        for y in range(space.n):
            if all(b & a for b in base if b >> y & 1):
                closed |= 1 << y
        out.append(closed)
    return tuple(out)


def is_b_closed_literal(space: FiniteSpace) -> tuple[bool, ...]:
    """For every mask from -1 to 2 * full + 1: a set of points that
    b_closure_literal maps to itself."""
    closures = b_closure_literal(space)
    return tuple(0 <= a <= space.full and closures[a] == a
                 for a in range(-1, 2 * space.full + 2))


def b_space_literal(space: FiniteSpace) -> FiniteSpace:
    """The topology generated by the basic b-open sets."""
    return from_opens(space.n, b_basic_opens(space))


def sobrify_irr_literal(space: FiniteSpace) -> SobrificationResult:
    """Points are the irreducible closed sets; the opens are the sets of
    irreducibles meeting an open of space.  That family must already be
    a topology, with nothing left for from_opens to complete."""
    irr = literal_irreducible_closed_sets(space)
    index = {f: i for i, f in enumerate(irr)}
    lifted = [sum(1 << i for i, f in enumerate(irr) if f & u) for u in all_opens(space)]
    result = from_opens(len(irr), lifted)
    assert set(all_opens(result)) == set(lifted) | {0, result.full}, "not a topology"
    unit = space_map(space, result, tuple(index[space.down[x]] for x in range(space.n)))
    return SobrificationResult(result, unit, "irreducible-closed-sets",
                               {"irreducible_closed_count": len(irr)})


def literal_topology(space: FiniteSpace):
    """closure, saturation and interior of every subset from the opens
    and closed sets filtered out of all 2^n subsets, then those two
    families."""
    subsets = range(space.full + 1)
    opens = [u for u in subsets if space.is_open(u)]
    closed = [c for c in subsets if space.is_open(space.full & ~c)]
    operators = []
    for a in subsets:
        cl = sat = space.full
        inside = 0
        for c in closed:
            if is_subset(a, c):
                cl &= c
        for u in opens:
            if is_subset(a, u):
                sat &= u
            if is_subset(u, a):
                inside |= u
        operators.append((cl, sat, inside))
    return tuple(operators), frozenset(opens), frozenset(closed)


def equalizer_pointwise(f: SpaceMap, g: SpaceMap) -> int:
    """The points whose images agree, read off the two tables."""
    return mask_of(x for x in range(f.dom.n) if f.table[x] == g.table[x])


def is_preimage_continuous(f: SpaceMap) -> bool:
    """Literal continuity: preimages of opens are open."""
    return all(f.dom.is_open(preimage(f, u)) for u in all_opens(f.cod))


def literal_continuous_maps(dom: FiniteSpace, cod: FiniteSpace) -> tuple[SpaceMap, ...]:
    """Every table dom -> cod whose preimages of opens are open, sorted
    by its images read along dom's points ordered by the size of their
    down-sets, ties by label: the order all_continuous_maps documents."""
    order = sorted(range(dom.n), key=lambda x: dom.down[x].bit_count())
    tables = itertools.product(range(cod.n), repeat=dom.n)
    continuous = [f for f in (SpaceMap(dom, cod, t) for t in tables)
                  if is_preimage_continuous(f)]
    return tuple(sorted(continuous, key=lambda f: [f.table[x] for x in order]))


def literal_product(factors: list[FiniteSpace]):
    """Point indices, coordinates, up and down masks from the
    componentwise order on the grid of coordinate tuples, first
    coordinate most significant."""
    grid = list(itertools.product(*(range(s.n) for s in factors)))

    def leq(xs, ys):
        return all(s.leq(x, y) for s, x, y in zip(factors, xs, ys))

    up = tuple(sum(1 << j for j, ys in enumerate(grid) if leq(xs, ys)) for xs in grid)
    down = tuple(sum(1 << j for j, ys in enumerate(grid) if leq(ys, xs)) for xs in grid)
    return tuple(range(len(grid))), tuple(grid), up, down


def closed_pair_meets_literal(space: FiniteSpace) -> tuple[tuple[int, bool], ...]:
    """For every subset E, the intersection of U | ~V over every pair of
    opens (U, V) with E <= U | ~V, and True: each such pair is admissible."""
    opens = all_opens(space)
    sides = [u | (space.full & ~v) for u in opens for v in opens]
    out = []
    for e in range(space.full + 1):
        meet = space.full
        for s in sides:
            if is_subset(e, s):
                meet &= s
        out.append((meet, True))
    return tuple(out)


def is_reflection_by_scan(eta: SpaceMap, predicate, test_bound: int) -> ReflectionCheck:
    """The literal check: compose every extension g with eta for every f."""
    x, y = eta.dom, eta.cod
    if not predicate(y):
        return ReflectionCheck(False, 0, test_bound,
                               {"reason": "target is not in the class"})
    verified = 0
    for z in spaces_up_to(test_bound):
        if not predicate(z):
            continue
        extensions = continuous_maps_list(y, z)
        for f in continuous_maps_list(x, z):
            matching = [g for g in extensions if compose(g, eta).table == f.table]
            if len(matching) != 1:
                return ReflectionCheck(
                    False,
                    verified,
                    test_bound,
                    {
                        "test_object_up": [list(points_of(u)) for u in z.up],
                        "map": list(f.table),
                        "extension_count": len(matching),
                    },
                )
            verified += 1
    return ReflectionCheck(True, verified, test_bound)


def k_closure_by_scan(ambient: FiniteSpace, a: int, predicate) -> int:
    """Intersect every nonempty carrier B with a <= B whose subspace is a
    member; the whole carrier when there is none."""
    out = ambient.full
    for b in range(1, ambient.full + 1):
        if is_subset(a, b) and predicate(subspace(ambient, b).space):
            out &= b
    return out


# The fast sides, shaped like their oracles' outputs.


def reducibility_reports(space: FiniteSpace) -> tuple[PropertyReport, ...]:
    return tuple(check(space) for check in (is_sober, is_co_sober, is_k_bounded_sober))


def reducibility_reports_literal(space: FiniteSpace) -> tuple[PropertyReport, ...]:
    """The same checkers with the pairwise reducibility scan patched in."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(properties, "irreducible_closed_sets", literal_irreducible_closed_sets)
        return reducibility_reports(space)


def way_below_table(space: FiniteSpace) -> tuple[int, ...]:
    opens = all_opens(space)
    return tuple(
        sum(1 << i for i, u in enumerate(opens) if way_below_opens(space, u, v))
        for v in opens
    )


def owf_tiers(space: FiniteSpace) -> tuple[PropertyReport, bool]:
    """The counted tier's report and the structural tier's verdict."""
    return is_open_well_filtered(space), _owf_structural(space).holds


def owf_tiers_literal(space: FiniteSpace) -> tuple[PropertyReport, bool]:
    report = literal_owf(space)
    return report, report.holds


def closed_pair_meets(space: FiniteSpace) -> tuple[tuple[int, bool], ...]:
    """For every subset E, the intersection of U | ~V over the pairs
    closed_pair_representation gives, and whether each of them is a pair
    of opens with E <= U | ~V."""
    out = []
    for e in range(space.full + 1):
        meet = space.full
        admissible = True
        for u, v in closed_pair_representation(space, e):
            side = u | (space.full & ~v)
            meet &= side
            admissible &= space.is_open(u) and space.is_open(v) and is_subset(e, side)
        out.append((meet, admissible))
    return tuple(out)


def b_closed_masks(space: FiniteSpace) -> tuple[bool, ...]:
    return tuple(is_b_closed(space, a) for a in range(-1, 2 * space.full + 2))


def topology(space: FiniteSpace):
    return (
        tuple(
            (closure(space, a), saturate(space, a), interior(space, a))
            for a in range(space.full + 1)
        ),
        frozenset(all_opens(space)),
        frozenset(all_closed_sets(space)),
    )


def product_tables(factors: list[FiniteSpace]):
    prod = product(factors)
    grid = itertools.product(*(range(s.n) for s in factors))
    return (
        tuple(product_index(prod, xs) for xs in grid),
        tuple(prod.coords(i) for i in range(prod.space.n)),
        prod.space.up,
        prod.space.down,
    )


# The table.


def small_spaces(n: int = 5) -> list[FiniteSpace]:
    """Every space of at most n points, then GALLERY."""
    with caps.scoped(enum=n):
        return [*spaces_up_to(n), *GALLERY]


def whole(space: FiniteSpace) -> list[tuple]:
    return [(space,)]


def within_owf_cap(space: FiniteSpace) -> list[tuple]:
    """The literal family scans run only up to owf_opens opens."""
    return [(space,)] if len(all_opens(space)) <= caps.cap("owf_opens") else []


def within_12_opens(space: FiniteSpace) -> list[tuple]:
    """The open-pair oracle is quadratic in the opens and runs once per
    subset, so random posets stop at 12 opens."""
    return [(space,)] if len(all_opens(space)) <= 12 else []


CODOMAINS = (sigma2(), chain(3), v_poset(), antichain(2))


def every_table(space: FiniteSpace) -> list[tuple]:
    """Every function, continuous or not, into each of CODOMAINS; the
    tables number at most 3^4 per codomain, so domains stop at 4 points."""
    if space.n > 4:
        return []
    return [
        (SpaceMap(space, cod, table),)
        for cod in CODOMAINS
        for table in itertools.product(range(cod.n), repeat=space.n)
    ]


def table_pairs(space: FiniteSpace) -> list[tuple]:
    """Every pair of functions, continuous or not, from a space of at most
    3 points into one of CODOMAINS; each map is shared by all its pairs,
    so its fiber code is built by its first pair and read by the rest."""
    if space.n > 3:
        return []
    pairs = []
    for cod in CODOMAINS:
        maps = [SpaceMap(space, cod, t) for t in itertools.product(range(cod.n), repeat=space.n)]
        pairs += itertools.product(maps, repeat=2)
    return pairs


def map_ends(space: FiniteSpace) -> list[tuple]:
    """The space as domain and as codomain beside each of CODOMAINS; the
    oracle filters every table, so both ends stop at 4 points."""
    if space.n > 4:
        return []
    return [(space, cod) for cod in CODOMAINS] + [(cod, space) for cod in CODOMAINS]


def factor_lists(space: FiniteSpace) -> list[tuple]:
    """The space alone, beside sigma2, beside two fixed factors, and as a
    power, for products of at most 24 points (the oracle is quadratic)."""
    lists = [[space], [sigma2(), space], [space, antichain(2), chain(3)],
             [space] * (4 if space.n <= 2 else 2)]
    return [(fs,) for fs in lists if math.prod(s.n for s in fs) <= 24]


def power_exponent(space: FiniteSpace) -> list[tuple]:
    """An n-point seed walks the power on n - 1 coordinates, so the
    chains of 1 to 13 points give the exponents 0 to 12: 2^12 points is
    the default product cap."""
    return [(space.n - 1,)]


def units(space: FiniteSpace) -> list[tuple]:
    """Every map from the space into a space of at most 3 points, as a
    unit for every REGISTRY class, tested on objects of at most 3 points."""
    if space.n > 3:
        return []
    return [
        (eta, predicate, 3)
        for y in spaces_up_to(3)
        for eta in continuous_maps_list(space, y)
        for predicate in REGISTRY.values()
    ]


def identity_units(space: FiniteSpace) -> list[tuple]:
    """The identity of a space of at most 3 points, as a unit for every
    REGISTRY class, tested on objects of at most 2 points."""
    if space.n > 3:
        return []
    return [(identity(space), predicate, 2) for predicate in REGISTRY.values()]


def subsets_and_classes(space: FiniteSpace) -> list[tuple]:
    """Every nonempty subset of a space of at most 3 points, for every
    REGISTRY class."""
    if space.n > 3:
        return []
    return [(space, a, predicate)
            for a in range(1, space.full + 1) for predicate in REGISTRY.values()]


def extension_outcome(check: ReflectionCheck) -> str:
    count = (check.witness or {}).get("extension_count")
    if check.holds:
        return "holds"
    return {None: "no target", 0: "none"}.get(count, "several")


@dataclass(frozen=True)
class Row:
    name: str  # the fast routine(s)
    fast: Callable[..., Any]
    oracle: Callable[..., Any]
    lemma: str
    method: str | None  # what the fast side's reports say in `method`
    cases: Callable[[FiniteSpace], list[tuple]]  # argument tuples from one space
    seeds: Callable[[], Iterable[FiniteSpace]] = small_spaces
    # the random side's argument tuples from one poset, if not cases
    random_cases: Callable[[FiniteSpace], list[tuple]] | None = None
    # the outcomes the exhaustive walk must reach, by the given labelling
    outcomes: tuple[Callable[[Any], str], frozenset[str]] | None = None

    def inputs(self) -> Iterator[tuple]:
        for space in self.seeds():
            yield from self.cases(space)

    def sample(self, space: FiniteSpace) -> list[tuple]:
        return (self.random_cases or self.cases)(space)


ROWS = [
    Row("all_opens", all_opens, literal_opens,
        "every up-set is a union of the minimal neighbourhoods up[x], so "
        "closing {} under s | up[x] reaches each open", None, whole),
    Row("irreducible_closed_sets", irreducible_closed_sets,
        literal_irreducible_closed_sets,
        "a nonempty closed set of a finite poset is irreducible iff it has "
        "exactly one maximal point", None, whole,
        seeds=lambda: [*small_spaces(), chain(11), antichain(8), top_cone(8),
                       bottom_cone(8)]),
    Row("is_sober, is_co_sober, is_k_bounded_sober", reducibility_reports,
        reducibility_reports_literal,
        "as irreducible_closed_sets; co-sobriety runs it on the order dual",
        "exhaustive", whole),
    Row("is_strong_d", is_strong_d, literal_strong_d,
        "a finite directed set has a greatest element m, so only the n "
        "principal ideals down[m] are tested", "exhaustive", whole,
        seeds=lambda: small_spaces(6)),
    Row("way_below_opens", way_below_table, lambda sp: literal_way_below(sp)[0],
        "a finite directed cover has a greatest member, so only single-open "
        "covers count", None, within_owf_cap),
    Row("is_open_well_filtered, _owf_structural", owf_tiers, owf_tiers_literal,
        "counted tier: a finite family is directed iff it has a greatest "
        "member and filtered iff it has a least one; structural tier: "
        "way-below on finite opens is inclusion, and a finite filtered family "
        "contains its least member", "exhaustive", within_owf_cap),
    Row("b_closure", lambda sp: tuple(b_closure(sp, a) for a in range(sp.full + 1)),
        b_closure_literal,
        "every basic b-open set holding y contains up[y] & down[y], itself "
        "basic; so y is in the closure of A iff y is in up[z] & down[z] for "
        "some z in A", None, whole),
    Row("is_b_closed", b_closed_masks, is_b_closed_literal,
        "as b_closure; when up[z] & down[z] = {z} for every z the b-closure "
        "of A is A cut to the carrier", None, whole,
        seeds=lambda: [*small_spaces(), NOT_AN_ORDER]),
    Row("b_space", b_space, b_space_literal,
        "the least b-open set around x is up[x] & down[x], so bX is ordered "
        "by membership in it", None, whole),
    Row("closed_pair_representation", closed_pair_meets, closed_pair_meets_literal,
        "the least b-open set around y is up[y] & down[y], so for y outside "
        "a b-closed E the open pair (X - down[y], up[y]) has U | ~V = X minus "
        "that set, which holds E and misses y", None, whole,
        random_cases=within_12_opens),
    Row("sobrify_irr", sobrify_irr, sobrify_irr_literal,
        "Irr(X) is ordered by inclusion: for F not inside G, the complement "
        "of G is an open meeting F and missing G", None, whole),
    Row("closure, saturate, interior", topology, literal_topology,
        "the opens are the up-sets: closure is the down-closure, saturation "
        "the up-closure", None, whole),
    Row("is_monotone", is_monotone, is_preimage_continuous,
        "a map of finite spaces is continuous iff it is monotone for the "
        "specialization orders", None, every_table),
    Row("equalizer", equalizer, equalizer_pointwise,
        "bit x of block v of a fiber code is set iff f(x) = v; blocks are "
        "n + 1 bits wide, so the AND of two codes modulo 2^(n+1) - 1 is the "
        "OR of its blocks", None, table_pairs),
    Row("all_continuous_maps", lambda dom, cod: tuple(all_continuous_maps(dom, cod)),
        literal_continuous_maps,
        "continuity is monotonicity, so each point's image is chosen above "
        "the images of the points below it, along a linear extension, "
        "smallest image first", None, map_ends),
    Row("product", product_tables, literal_product,
        "the product order is componentwise, so up[(c, a)] is up[a] shifted "
        "to slot d * n for each d in up[c] and ORed over those slots", None,
        factor_lists),
    Row("sierpinski_power", sierpinski_power, powerset_scott,
        "the power of sigma2 is the powerset under inclusion", None,
        power_exponent, seeds=lambda: (chain(k) for k in range(1, 14))),
    Row("is_reflection", is_reflection, is_reflection_by_scan,
        "f has one extension per g with g . eta == f, so the extensions are "
        "counted by the table of g . eta", None, units,
        seeds=lambda: spaces_up_to(3), random_cases=identity_units,
        outcomes=(extension_outcome, frozenset({"holds", "none", "several"}))),
    Row("k_closure", k_closure, k_closure_by_scan,
        "a is in the family when its subspace is a member, and every member "
        "contains a, so the intersection is a", None, subsets_and_classes),
]

BY_NAME = {row.name: row for row in ROWS}


def walk(row: Row, inputs: Iterable[tuple]) -> list[Any]:
    """Assert the fast side equals the oracle on every input; returns
    the fast values."""
    values = []
    for args in inputs:
        got = row.fast(*args)
        assert got == row.oracle(*args), (row.name, args)
        for report in got if isinstance(got, tuple) else (got,):
            if isinstance(report, PropertyReport):
                assert report.method == row.method, (row.name, report)
        values.append(got)
    return values


@functools.cache
def walked(name: str) -> tuple[Any, ...]:
    """The fast values of the row named name over all its inputs.  The
    walk runs once per session: the table walk and the agreement tests
    named after the inputs they cover both read it."""
    row = BY_NAME[name]
    return tuple(walk(row, row.inputs()))


def off_by_one(value: Any) -> Any:
    """A copy of a fast value with one small fault planted: a negated
    verdict, a flipped low bit, or the first entry of a sequence changed
    that way.  A value type is built again through its constructor with
    its `holds` field, or else its first field, changed that way."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value ^ 1
    if isinstance(value, (tuple, list)):
        return type(value)([off_by_one(value[0]), *value[1:]])
    fields = type(value)._fields
    args = [getattr(value, name) for name in fields]
    k = fields.index("holds") if "holds" in fields else 0
    args[k] = off_by_one(args[k])
    return type(value)(*args)
