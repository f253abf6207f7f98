"""Exhaustive enumeration of finite T0 spaces and continuous maps.

Spaces are generated up to homeomorphism by adding a new maximal point
over every down-set of every smaller space, then deduplicating by a
canonical form (color refinement followed by a minimal relation matrix
over the refinement-consistent relabelings).  The labeled-relation
pipeline in the tests counts the same classes a second, independent way.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from . import caps
from .constructions import SpaceMap
from .errors import CapExceeded, EmptyCarrier, MismatchedSpaces
from .finite_space import FiniteSpace, PointSet, all_opens, dual, iter_bits


@dataclass(frozen=True)
class CanonicalForm:
    """key is the lexicographically least up-mask tuple over admissible
    relabelings; relabel witnesses it (relabel[old] = new)."""

    n: int
    key: tuple[PointSet, ...]
    relabel: tuple[int, ...]


def permute_mask(mask: PointSet, relabel: tuple[int, ...]) -> PointSet:
    out = 0
    for y in iter_bits(mask):
        out |= 1 << relabel[y]
    return out


def relabel_space(space: FiniteSpace, relabel: tuple[int, ...]) -> FiniteSpace:
    """The space with point x renamed relabel[x]; relabel must be a
    permutation of the points."""
    n = space.n
    if sorted(relabel) != list(range(n)):
        raise MismatchedSpaces(f"relabelling {tuple(relabel)} is not a permutation of the {n} points")
    up = [0] * n
    down = [0] * n
    for x in range(n):
        up[relabel[x]] = permute_mask(space.up[x], relabel)
        down[relabel[x]] = permute_mask(space.down[x], relabel)
    return FiniteSpace(n, tuple(up), tuple(down))


def _refine_colors(space: FiniteSpace) -> list[int]:
    n = space.n
    colors = [
        (space.up[x].bit_count(), space.down[x].bit_count()) for x in range(n)
    ]
    ranks = {c: r for r, c in enumerate(sorted(set(colors)))}
    colors = [ranks[c] for c in colors]
    while True:
        sigs = []
        for x in range(n):
            ups = sorted(colors[y] for y in iter_bits(space.up[x]) if y != x)
            downs = sorted(colors[y] for y in iter_bits(space.down[x]) if y != x)
            sigs.append((colors[x], tuple(ups), tuple(downs)))
        ranks = {s: r for r, s in enumerate(sorted(set(sigs)))}
        new_colors = [ranks[s] for s in sigs]
        if new_colors == colors:
            return colors
        colors = new_colors


def canonical_form(space: FiniteSpace) -> CanonicalForm:
    n = space.n
    colors = _refine_colors(space)
    classes: dict[int, list[int]] = {}
    for x in range(n):
        classes.setdefault(colors[x], []).append(x)
    blocks = [classes[c] for c in sorted(classes)]

    def candidates() -> Iterator[tuple[tuple[PointSet, ...], tuple[int, ...]]]:
        for perms in itertools.product(*(itertools.permutations(b) for b in blocks)):
            order = [x for block in perms for x in block]  # order[new] = old
            relabel = [0] * n
            for new, old in enumerate(order):
                relabel[old] = new
            perm = tuple(relabel)
            yield tuple(permute_mask(space.up[old], perm) for old in order), perm

    # min keeps the first relabelling that reaches the least key
    key, relabel = min(candidates(), key=itemgetter(0))
    return CanonicalForm(n, key, relabel)


def all_spaces(n: int) -> tuple[FiniteSpace, ...]:
    """All T0 spaces on n points up to homeomorphism, canonically labeled.

    The enum cap is checked before the cache, so a result cached under a
    higher cap is not returned under a lower one."""
    if n > caps.cap("enum"):
        raise CapExceeded(f"space enumeration capped at {caps.cap('enum')} points")
    if n < 1:
        raise EmptyCarrier("space enumeration needs n >= 1")
    return _all_spaces(n)


@functools.lru_cache(maxsize=None)
def _all_spaces(n: int) -> tuple[FiniteSpace, ...]:
    """Every finite T0 space has a maximal point whose removal leaves a
    smaller space in which the removed point's strict down-set is a
    down-set; re-adding a maximal point over each down-set therefore
    reaches every class."""
    if n == 1:
        return (FiniteSpace(1, (1,), (1,)),)
    seen: dict[tuple[PointSet, ...], FiniteSpace] = {}
    top = 1 << (n - 1)
    for base in all_spaces(n - 1):
        for d in all_opens(dual(base)):  # the down-sets of base
            up = [base.up[x] | (top if (d >> x) & 1 else 0) for x in range(n - 1)]
            up.append(top)
            down = list(base.down) + [d | top]
            sp = FiniteSpace(n, tuple(up), tuple(down))
            form = canonical_form(sp)
            if form.key not in seen:
                seen[form.key] = relabel_space(sp, form.relabel)
    return tuple(seen[k] for k in sorted(seen))


all_spaces.cache_clear = _all_spaces.cache_clear


def spaces_up_to(n: int) -> Iterator[FiniteSpace]:
    for k in range(1, n + 1):
        yield from all_spaces(k)


def all_continuous_maps(dom: FiniteSpace, cod: FiniteSpace) -> Iterator[SpaceMap]:
    """Stream every continuous map dom -> cod.

    Backtracking in a linear-extension order of dom (points by the size
    of their down-sets, ties by label): each point's image must sit
    above the images of its already-placed predecessors, so monotonicity
    is enforced incrementally and never re-checked.  Images are tried in
    ascending order, so the maps come out sorted by their images read
    along that order.  The backtracking keeps an explicit stack: entry i
    holds the images not yet tried for the i-th point.  (Recursive
    generators resume through every level on each yield; on the maps
    benchmark they were about 5% slower end to end.)"""
    n = dom.n
    order = sorted(range(n), key=lambda x: dom.down[x].bit_count())
    below = [[y for y in iter_bits(dom.down[x]) if y != x] for x in order]
    cod_up, cod_full = cod.up, cod.full
    table = [0] * n
    untried: list[PointSet] = []
    while True:
        i = len(untried)
        if i == n:
            yield SpaceMap(dom, cod, tuple(table))
        else:
            allowed = cod_full
            for y in below[i]:
                allowed &= cod_up[table[y]]
            untried.append(allowed)
        while untried and not untried[-1]:
            untried.pop()
        if not untried:
            return
        rest = untried[-1]
        low = rest & -rest
        untried[-1] = rest ^ low
        table[order[len(untried) - 1]] = low.bit_length() - 1


def continuous_maps_list(dom: FiniteSpace, cod: FiniteSpace) -> tuple[SpaceMap, ...]:
    """Materialized (and cached) variant, guarded by the loose bound,
    which is checked before the cache as in all_spaces."""
    bound = cod.n ** dom.n
    if bound > caps.cap("maps"):
        raise CapExceeded(
            f"map table {cod.n}^{dom.n} exceeds {caps.cap('maps')}; stream instead"
        )
    return _continuous_maps_list(dom, cod)


@functools.lru_cache(maxsize=4096)
def _continuous_maps_list(dom: FiniteSpace, cod: FiniteSpace) -> tuple[SpaceMap, ...]:
    return tuple(all_continuous_maps(dom, cod))


continuous_maps_list.cache_clear = _continuous_maps_list.cache_clear
