"""Finite T0 spaces as bitmask-backed order structures.

A finite topological space is determined by its specialization preorder
(x <= y iff x lies in the closure of {y}); T0 means the preorder is a
partial order, and the opens are exactly the up-sets.  A space is stored
as two tuples of bitmask ints: up[x] is the minimal open neighborhood of
x (the points above x) and down[x] is the closure of {x}.

Point sets everywhere are ints with bit i standing for point i.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from . import caps
from .errors import (
    CapExceeded,
    EmptyCarrier,
    MismatchedSpaces,
    NotAPartialOrder,
    NotATopology,
    NotT0,
)

PointSet = int


def mask_of(points: Iterable[int]) -> PointSet:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def points_of(mask: PointSet) -> tuple[int, ...]:
    return tuple(iter_bits(mask))


def iter_bits(mask: PointSet) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_subset(a: PointSet, b: PointSet) -> bool:
    return a & ~b == 0


@dataclass(frozen=True, slots=True)
class FiniteSpace:
    """Immutable, hashable; besides the order queries below, all
    operations are module functions.  The b_discrete slot is filled by
    b_topology.is_b_closed and kept out of ==, hash and repr."""

    n: int
    up: tuple[PointSet, ...]
    down: tuple[PointSet, ...]
    # None until is_b_closed first asks
    b_discrete: bool | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def full(self) -> PointSet:
        return (1 << self.n) - 1

    def leq(self, x: int, y: int) -> bool:
        """Specialization order: x in cl({y})."""
        return (self.up[x] >> y) & 1 == 1

    def is_open(self, a: PointSet) -> bool:
        """An up-set inside the carrier; a mask with other bits is not
        open."""
        return not a & ~self.full and all(is_subset(self.up[x], a) for x in iter_bits(a))


def check_inside(space: FiniteSpace, a: PointSet) -> None:
    """Refuse a point set with a bit at or above space.n: it names a
    point the space does not have."""
    if a & ~space.full:
        raise MismatchedSpaces(f"point set {a:#x} has points outside a space of {space.n} points")


def _check_carrier(n: int) -> None:
    if n <= 0:
        raise EmptyCarrier("carrier must be nonempty")
    caps.guard(n, caps.cap("carrier"), "carrier size")


def from_order(n: int, pairs: Iterable[tuple[int, int]]) -> FiniteSpace:
    """Space whose opens are the up-sets of the given partial order.

    pairs lists x <= y facts; reflexive pairs are implied.  Antisymmetry
    and transitivity are checked, not repaired.
    """
    _check_carrier(n)
    up = [1 << x for x in range(n)]
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise NotAPartialOrder(f"pair ({x}, {y}) out of range for carrier {n}")
        up[x] |= 1 << y
    for x in range(n):
        for y in iter_bits(up[x]):
            if y != x and (up[y] >> x) & 1:
                raise NotAPartialOrder(f"antisymmetry fails: {x} <= {y} and {y} <= {x}")
            if not is_subset(up[y], up[x]):
                z = next(iter_bits(up[y] & ~up[x]))
                raise NotAPartialOrder(
                    f"transitivity fails: {x} <= {y} <= {z} but not {x} <= {z}"
                )
    down = _transpose(n, up)
    return FiniteSpace(n, tuple(up), tuple(down))


def from_cover(n: int, pairs: Iterable[tuple[int, int]]) -> FiniteSpace:
    """Like from_order but takes the reflexive-transitive closure of the
    given pairs first; antisymmetry (no cycles) is still checked."""
    _check_carrier(n)
    up = [1 << x for x in range(n)]
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise NotAPartialOrder(f"pair ({x}, {y}) out of range for carrier {n}")
        up[x] |= 1 << y
    changed = True
    while changed:
        changed = False
        for x in range(n):
            m = up[x]
            for y in iter_bits(m):
                m |= up[y]
            if m != up[x]:
                up[x] = m
                changed = True
    return from_order(n, [(x, y) for x in range(n) for y in iter_bits(up[x])])


def _transpose(n: int, up: list[PointSet]) -> list[PointSet]:
    down = [0] * n
    for x in range(n):
        for y in iter_bits(up[x]):
            down[y] |= 1 << x
    return down


def from_opens(n: int, opens: Iterable[PointSet]) -> FiniteSpace:
    """Space generated by the given open sets: the path of the `open`
    lines of a .space file.

    The topology is the closure of the input under finite unions and
    intersections, plus the empty and full sets.  Raises NotATopology for
    an open outside the carrier and NotT0 when two points cannot be
    separated.
    """
    _check_carrier(n)
    full = (1 << n) - 1
    opens = list(opens)
    for u in opens:
        if not 0 <= u <= full:
            raise NotATopology(f"open {u:#x} is not a subset of the carrier")
    up = [full] * n
    for u in opens:
        for x in iter_bits(u):
            up[x] &= u
    seen: dict[PointSet, int] = {}
    for x in range(n):
        if up[x] in seen:
            raise NotT0(f"points {seen[up[x]]} and {x} share every open set")
        seen[up[x]] = x
    down = _transpose(n, up)
    return FiniteSpace(n, tuple(up), tuple(down))


def all_opens(space: FiniteSpace) -> tuple[PointSet, ...]:
    """All open sets, i.e. all up-sets, enumerated output-sensitively.

    Every up-set is a union of minimal neighborhoods, so closing {0}
    under s -> s | up[x] reaches each open once.  Cost is O(|opens| * n)
    set operations, never 2^n, but the count itself can be 2^n: guarded.
    The limit is in the cache key, so no cached result outlives its cap.
    The scan is a plain loop: each popped set is or-ed with every up[x],
    in point order, from the tuple bound once.
    """
    return _all_opens(space, 1 << min(space.n, caps.cap("carrier")))


@functools.lru_cache(maxsize=2048)
def _all_opens(space: FiniteSpace, limit: int) -> tuple[PointSet, ...]:
    ups = space.up
    found = {0}
    frontier = [0]
    while frontier:
        s = frontier.pop()
        for u in ups:
            t = s | u
            if t not in found:
                found.add(t)
                frontier.append(t)
                if len(found) > limit:
                    raise CapExceeded(f"open-set count exceeds {limit}")
    return tuple(sorted(found))


all_opens.cache_clear = _all_opens.cache_clear
all_opens.cache_info = _all_opens.cache_info


def dual(space: FiniteSpace) -> FiniteSpace:
    """The order dual: its opens are the down-sets (the closed sets) of
    space, and its closed sets are the up-sets (the saturated sets)."""
    return FiniteSpace(space.n, space.down, space.up)


def closure(space: FiniteSpace, a: PointSet) -> PointSet:
    """Smallest closed superset; closed sets are down-sets."""
    check_inside(space, a)
    m = 0
    for x in iter_bits(a):
        m |= space.down[x]
    return m


def saturate(space: FiniteSpace, a: PointSet) -> PointSet:
    """Intersection of all opens containing a; equals the up-closure."""
    check_inside(space, a)
    m = 0
    for x in iter_bits(a):
        m |= space.up[x]
    return m


def interior(space: FiniteSpace, a: PointSet) -> PointSet:
    check_inside(space, a)
    m = 0
    for x in iter_bits(a):
        if is_subset(space.up[x], a):
            m |= 1 << x
    return m


def is_directed(space: FiniteSpace, d: PointSet) -> bool:
    """Nonempty, and every pair has an upper bound inside d."""
    if d == 0:
        return False
    check_inside(space, d)
    pts = points_of(d)
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            if space.up[x] & space.up[y] & d == 0:
                return False
    return True


def irreducible_closed_sets(space: FiniteSpace) -> tuple[PointSet, ...]:
    """Nonempty closed sets not covered by two closed proper subsets.

    Order lemma (Goubault-Larrecq, Non-Hausdorff Topology and Domain
    Theory, ch. 8): a nonempty closed set F of a finite poset is
    irreducible iff it has exactly one maximal point.  With one maximal
    point x, F is the closure of x, and any closed cover of F has a
    member holding x, hence all of F.  With maximal points x != y, the
    closure of x and the closure of the other maximal points are two
    proper closed subsets covering F.  The empty set has no maximal point.
    The closed sets are the down-sets, so the opens of the dual.
    Each closed set's bits are walked low bit first (low = rest & -rest),
    counting the points x with up[x] & F == {x} and stopping at the second.
    """
    up = space.up
    out = []
    for f in all_opens(dual(space)):
        maximal = 0
        rest = f
        while rest:
            low = rest & -rest
            if up[low.bit_length() - 1] & f == low:
                maximal += 1
                if maximal == 2:
                    break
            rest ^= low
        if maximal == 1:
            out.append(f)
    return tuple(out)


# Canonical small spaces.  These come up constantly in tests and in the
# constructions, so they get names.


def sigma2() -> FiniteSpace:
    """Sierpinski space: 0 < 1, opens {}, {1}, {0,1}."""
    return from_order(2, [(0, 1)])


def chain(k: int) -> FiniteSpace:
    return from_order(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def antichain(k: int) -> FiniteSpace:
    return from_order(k, [])


def point() -> FiniteSpace:
    return from_order(1, [])


def v_poset() -> FiniteSpace:
    """Two minimal points 0, 1 under a single top 2."""
    return from_order(3, [(0, 2), (1, 2)])
