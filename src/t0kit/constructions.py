"""Maps, subspaces, products, Sierpinski powers, equalizers.

Maps between finite spaces are continuous iff they are monotone for the
specialization orders, and that is how they are checked at construction.
The preimage-of-opens characterization is is_monotone's oracle in
tests/oracles.py, beside the oracles of product and sierpinski_power and
the pointwise table comparison that checks equalizer.

A point of the Sierpinski power (Sigma2)^m is its code: coordinate k is
bit m-1-k, as the product indexes the first coordinate most
significant.  _codes is the one place that writes codes in that order.
"""

from __future__ import annotations

from operator import or_
from typing import Sequence

from . import caps
from .b_topology import b_closure
from .errors import (
    EmptyCarrier,
    MismatchedSpaces,
    NotBClosed,
    NotContinuous,
)
from .finite_space import (
    FiniteSpace,
    PointSet,
    all_opens,
    check_inside,
    iter_bits,
    points_of,
    sigma2,
)
from .values import Value


class SpaceMap(Value):
    """A map between finite spaces as its table.  The fibers slot holds
    the fiber code of _fibers, 0 until equalizer first reads it, and is
    not one of _fields."""

    _fields = ("dom", "cod", "table")
    __slots__ = (*_fields, "fibers")

    def __init__(self, dom: FiniteSpace, cod: FiniteSpace, table: tuple[int, ...]):
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "fibers", 0)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.dom, self.cod, self.table) == (other.dom, other.cod, other.table)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, self.table))


def _check_table(dom: FiniteSpace, cod: FiniteSpace, table: tuple[int, ...]) -> None:
    if len(table) != dom.n or any(not 0 <= v < cod.n for v in table):
        raise MismatchedSpaces(f"table of length {len(table)} does not map {dom.n} points into {cod.n}")


def space_map(dom: FiniteSpace, cod: FiniteSpace, table: Sequence[int]) -> SpaceMap:
    """Build a continuous map; raises NotContinuous on a monotonicity break."""
    table = tuple(table)
    _check_table(dom, cod, table)
    f = SpaceMap(dom, cod, table)
    bad = monotonicity_break(f)
    if bad is not None:
        x, y = bad
        raise NotContinuous(f"{x} <= {y} but f({x}) = {table[x]} is not below f({y}) = {table[y]}")
    return f


def monotonicity_break(f: SpaceMap) -> tuple[int, int] | None:
    for x in range(f.dom.n):
        for y in iter_bits(f.dom.up[x]):
            if not f.cod.leq(f.table[x], f.table[y]):
                return (x, y)
    return None


def is_monotone(f: SpaceMap) -> bool:
    return monotonicity_break(f) is None


def preimage(f: SpaceMap, b: PointSet) -> PointSet:
    check_inside(f.cod, b)
    m = 0
    for x in range(f.dom.n):
        if (b >> f.table[x]) & 1:
            m |= 1 << x
    return m


def identity(space: FiniteSpace) -> SpaceMap:
    return SpaceMap(space, space, tuple(range(space.n)))


def compose(g: SpaceMap, f: SpaceMap) -> SpaceMap:
    """g after f."""
    # identity first, as in equalizer: a FiniteSpace == compares whole tuples
    if f.cod is not g.dom and f.cod != g.dom:
        raise MismatchedSpaces("compose: codomain of the first map is not the domain of the second")
    return SpaceMap(f.dom, g.cod, tuple(g.table[v] for v in f.table))


class SubspaceResult(Value):
    __slots__ = _fields = ("space", "points")

    def __init__(self, space: FiniteSpace, points: tuple[int, ...]):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "points", points)  # points[i] = ambient index of point i


def subspace(space: FiniteSpace, carrier: PointSet) -> SubspaceResult:
    """Subspace on a nonempty point set; points gives the inclusion.

    The trace topology of an Alexandrov space restricts the order, so the
    new up/down masks are the old ones intersected with the carrier."""
    if carrier == 0:
        raise EmptyCarrier("subspace carrier is empty")
    if carrier & ~space.full:
        raise MismatchedSpaces(f"carrier {carrier:#x} has points outside a space of {space.n} points")
    pts = points_of(carrier)
    pos = {p: i for i, p in enumerate(pts)}

    def compress(mask: PointSet) -> PointSet:
        m = 0
        for q in iter_bits(mask & carrier):
            m |= 1 << pos[q]
        return m

    up = tuple(compress(space.up[p]) for p in pts)
    down = tuple(compress(space.down[p]) for p in pts)
    return SubspaceResult(FiniteSpace(len(pts), up, down), pts)


class ProductResult(Value):
    __slots__ = _fields = ("space", "factors")

    def __init__(self, space: FiniteSpace, factors: tuple[FiniteSpace, ...]):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "factors", factors)

    def coords(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.space.n:
            raise MismatchedSpaces(f"index {index} outside a product of {self.space.n} points")
        out = []
        for s in reversed(self.factors):
            index, c = divmod(index, s.n)
            out.append(c)
        return tuple(reversed(out))


def product(factors: Sequence[FiniteSpace]) -> ProductResult:
    """Finite product; the empty product is the one-point space.

    Points are tuples indexed with the first coordinate most significant.
    The factors are folded in from the last, each new factor S becoming
    the top coordinate over the n points built so far: (c, a) is c * n + a.
    The order is componentwise, so up[(c, a)] is up[a] planted at slot
    d * n for each d in up_S[c], and down likewise (see _plant).
    Every fold step's size is checked against the product cap before the
    first mask is built.
    """
    limit = caps.cap("product")
    n = 1
    for s in reversed(factors):
        caps.guard(n * s.n, limit, "product carrier size")
        n *= s.n
    n = 1
    up = [1]
    down = [1]
    for s in reversed(factors):
        up = _plant(up, s.up, n)
        down = _plant(down, s.down, n)
        n *= s.n
    return ProductResult(FiniteSpace(n, tuple(up), tuple(down)), tuple(factors))


def _plant(masks: list[PointSet], factor_masks: Sequence[PointSet], n: int) -> list[PointSet]:
    """The masks over the n points built so far, under one new top
    coordinate: for each factor mask in turn, the block of the n masks
    shifted to slot d * n and ORed over the bits d of the factor mask.
    Slot d's shifted column is built once and shared by every factor mask
    with bit d."""
    slots = [masks, *([m << k for m in masks] for k in range(n, n * len(factor_masks), n))]
    out = []
    for fm in factor_masks:
        d = fm.bit_length() - 1
        block = slots[d]
        fm ^= 1 << d
        while fm:
            d = fm.bit_length() - 1
            block = map(or_, block, slots[d])
            fm ^= 1 << d
        out += block
    return out


def sierpinski_power(m: int) -> FiniteSpace:
    return product([sigma2()] * m).space


def _codes(n: int, sets: Sequence[PointSet]) -> tuple[int, ...]:
    """Per-point codes over a list of m sets: bit m-1-k of codes[x] is
    set iff x lies in sets[k], so codes[x] is the index of the point of
    sierpinski_power(m) whose coordinate k is x's membership in sets[k]."""
    codes = [0] * n
    top = len(sets) - 1
    for k, s in enumerate(sets):
        for x in iter_bits(s):
            codes[x] |= 1 << (top - k)
    return tuple(codes)


class CanonicalEmbedding(Value):
    """The point-separating map x -> (chi_U(x))_U into a Sierpinski power.

    opens fixes the coordinate order, and bitcodes[x] is the image of x
    as a point of sierpinski_power(len(opens)): bit m-1-k is set iff x
    lies in opens[k] (see _codes).  The power is not built here; its
    carrier is 2^|opens|, behind the product cap."""

    __slots__ = _fields = ("opens", "bitcodes")

    def __init__(self, opens: tuple[PointSet, ...], bitcodes: tuple[int, ...]):
        object.__setattr__(self, "opens", opens)
        object.__setattr__(self, "bitcodes", bitcodes)


def canonical_embedding(space: FiniteSpace) -> CanonicalEmbedding:
    opens = tuple(u for u in all_opens(space) if u != 0)
    return CanonicalEmbedding(opens, _codes(space.n, opens))


def _fibers(f: SpaceMap) -> int:
    """The fiber code of f, stored on f: in blocks of n + 1 bits, one per
    point v of the codomain, bit x of block v is set iff f(x) = v."""
    _check_table(f.dom, f.cod, f.table)
    width = f.dom.n + 1
    code = 0
    for x, v in enumerate(f.table):
        code |= 1 << (v * width + x)
    object.__setattr__(f, "fibers", code)
    return code


def equalizer(f: SpaceMap, g: SpaceMap) -> PointSet:
    """The points where f and g agree, from their fiber codes.

    The AND of the codes keeps, in block v, the points that both maps
    send to v.  Since 2^(n+1) is 1 modulo 2^(n+1) - 1, the residue of
    the AND is the residue of the sum of its blocks.  Each point lies in
    one block only, so that sum is the OR of the blocks, the agreement
    set, which is below 2^n and so its own residue.  The codes are built
    on first use, so compose and the map streams never pay for them."""
    # identity first: a FiniteSpace == compares whole tuples
    dom = f.dom
    if (dom is not g.dom and dom != g.dom) or (f.cod is not g.cod and f.cod != g.cod):
        raise MismatchedSpaces("equalizer needs a parallel pair")
    return ((f.fibers or _fibers(f)) & (g.fibers or _fibers(g))) % ((2 << dom.n) - 1)


def closed_pair_representation(space: FiniteSpace, e: PointSet) -> tuple[tuple[PointSet, PointSet], ...]:
    """Open pairs (U, V) with E <= U | ~V whose intersection of U | ~V
    equals E; they exist exactly when E is b-closed.  One pair per point
    y outside E, in point order: U = X - down[y] and V = up[y], so that
    U | ~V is X minus up[y] & down[y].  By the lemma in b_topology that
    set is the least b-open set around y, so it misses a b-closed E."""
    check_inside(space, e)
    if b_closure(space, e) != e:
        raise NotBClosed(f"{points_of(e)} is not b-closed")
    full = space.full
    return tuple((full & ~space.down[y], space.up[y]) for y in iter_bits(full & ~e))


class EqualizerPresentation(Value):
    __slots__ = _fields = ("f", "g", "pairs")

    def __init__(self, f: SpaceMap, g: SpaceMap, pairs: tuple[tuple[PointSet, PointSet], ...]):
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "pairs", pairs)


def equalizer_maps_for_bclosed(space: FiniteSpace, e: PointSet) -> EqualizerPresentation:
    """Present a b-closed set E as the equalizer of two maps into one
    Sierpinski power: coordinate k compares membership in U_k against
    membership in U_k | V_k, which agree exactly on U_k | ~V_k."""
    pairs = closed_pair_representation(space, e)
    power = sierpinski_power(len(pairs))
    f = space_map(space, power, _codes(space.n, [u for u, _ in pairs]))
    g = space_map(space, power, _codes(space.n, [u | v for u, v in pairs]))
    return EqualizerPresentation(f, g, pairs)


def is_homeomorphism(f: SpaceMap) -> bool:
    if f.dom.n != f.cod.n or len(set(f.table)) != f.dom.n:
        return False
    if not is_monotone(f):
        return False
    inv = [0] * f.cod.n
    for x, v in enumerate(f.table):
        inv[v] = x
    return is_monotone(SpaceMap(f.cod, f.dom, tuple(inv)))


def find_homeomorphism(a: FiniteSpace, b: FiniteSpace) -> SpaceMap | None:
    """Backtracking order-isomorphism search with degree-signature pruning.

    Independent of the canonical-form machinery on purpose: the two are
    validated against each other."""
    if a.n != b.n:
        return None

    def sig(space: FiniteSpace, x: int) -> tuple[int, int]:
        return (space.up[x].bit_count(), space.down[x].bit_count())

    sigs_a = [sig(a, x) for x in range(a.n)]
    sigs_b = [sig(b, y) for y in range(b.n)]
    if sorted(sigs_a) != sorted(sigs_b):
        return None
    order = sorted(range(a.n), key=lambda x: (sigs_a.count(sigs_a[x]), sigs_a[x]))
    assign: dict[int, int] = {}
    used = [False] * b.n

    def extend(i: int) -> bool:
        if i == a.n:
            return True
        x = order[i]
        for y in range(b.n):
            if used[y] or sigs_b[y] != sigs_a[x]:
                continue
            ok = True
            for x2, y2 in assign.items():
                if a.leq(x, x2) != b.leq(y, y2) or a.leq(x2, x) != b.leq(y2, y):
                    ok = False
                    break
            if ok:
                assign[x] = y
                used[y] = True
                if extend(i + 1):
                    return True
                del assign[x]
                used[y] = False
        return False

    if not extend(0):
        return None
    return SpaceMap(a, b, tuple(assign[x] for x in range(a.n)))

