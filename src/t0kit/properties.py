"""Sobriety-like property checkers.

CHECKERS maps each canonical name to its checker.  The CLI reads it under
four short aliases (cosober, strongd, kbsober, owf); the reflection
registry reads it under the canonical names.

Each checker decides its property over the finite data (closed sets,
saturated sets, directed subsets, open families) and returns a
PropertyReport carrying the verdict, the method used, a witness on
failure, and the size bounds in force.  For finite T0 spaces all five
sobriety-like properties turn out to hold; the checkers still do the
work so that the collapse is an output, not an axiom.

Where a quantifier has an exact order-theoretic reduction, the checker
uses it; the literal scan it replaced is its oracle in tests/oracles.py,
one table row per fast path:
- irreducible closed sets are the closed sets with exactly one maximal
  point (finite_space.irreducible_closed_sets); co-sobriety reuses that
  reducibility test on the order dual;
- strong d tests only the n principal ideals down[m]: a finite directed
  set has a greatest element m, so the directed sets are m plus any
  subset of down[m] - {m}, each passes with d = m for every point, and
  the report counts them in closed form as the sum over m of
  2^(|down[m]| - 1); a tested set whose up-sets have no least member
  raises NotAPartialOrder;
- the open-well-filtered checker rests on two lemmas (way-below on
  finite opens is inclusion; a finite filtered family contains its least
  member) and scans no family.  Up to owf_opens opens its report also
  counts the directed and the filtered subfamilies, in closed form: a
  finite family is directed iff it has a greatest member and filtered
  iff it has a least one, so each count is a sum over members K of
  2^(#opens strictly inside, resp. containing, K).
"""

from __future__ import annotations

from typing import Any, Callable

from . import caps
from .errors import NotAPartialOrder, NotOpen
from .finite_space import (
    FiniteSpace,
    PointSet,
    all_opens,
    dual,
    irreducible_closed_sets,
    is_directed,
    is_subset,
    iter_bits,
    points_of,
)
from .values import Value


class PropertyReport(Value):
    __slots__ = _fields = ("name", "holds", "method", "witness", "details")

    def __init__(self, name: str, holds: bool, method: str,
                 witness: dict[str, Any] | None = None, details: dict[str, Any] | None = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "details", {} if details is None else details)

    def as_tree(self) -> dict[str, Any]:
        tree: dict[str, Any] = {
            "property": self.name,
            "holds": self.holds,
            "method": self.method,
        }
        if self.witness is not None:
            tree["witness"] = self.witness
        if self.details:
            tree["details"] = dict(self.details)
        tree["caps"] = caps.caps_summary()
        return tree


def _pts(mask: PointSet) -> list[int]:
    return list(points_of(mask))


def is_sober(space: FiniteSpace) -> PropertyReport:
    """Every irreducible closed set is the closure of exactly one point."""
    bad = None
    irr = irreducible_closed_sets(space)
    for f in irr:
        generic = [x for x in iter_bits(f) if space.down[x] == f]
        if len(generic) != 1:
            bad = {"irreducible_closed": _pts(f), "generic_points": generic}
            break
    return PropertyReport(
        name="sober",
        holds=bad is None,
        method="exhaustive",
        witness=bad,
        details={"irreducible_closed_count": len(irr)},
    )


def is_co_sober(space: FiniteSpace) -> PropertyReport:
    """Every nonempty k-irreducible compact saturated set is a point
    saturation.  Q is k-irreducible when Q = Q1 | Q2 with Q1, Q2 compact
    saturated forces Q1 = Q or Q2 = Q.  Compact saturated sets are the
    up-sets, which are the closed sets of the order dual, so these are
    the dual's irreducible closed sets."""
    bad = None
    k_irreducible = 0
    for q in irreducible_closed_sets(dual(space)):
        k_irreducible += 1
        if not any(space.up[x] == q for x in iter_bits(q)):
            bad = {"k_irreducible_compact_saturated": _pts(q)}
            break
    return PropertyReport(
        name="co_sober",
        holds=bad is None,
        method="exhaustive",
        witness=bad,
        details={"saturated_count": len(all_opens(space)),
                 "k_irreducible_count": k_irreducible},
    )


def is_strong_d(space: FiniteSpace) -> PropertyReport:
    """For every directed D, point x, and open U: if the intersection of
    all up[d] with up[x] lands in U, some single d already does.

    The open U needs no scan.  target = (intersection of up[D]) & up[x]
    is an up-set, so it is the least open U containing it, and each
    up[d] & up[x] contains target; (D, x) therefore holds iff some d in D
    has up[d] & up[x] == target.  When some d has up[d] equal to the
    intersection of up[D], D holds for every x at once.

    Only the n principal ideals down[m] are tested.  Order lemma (Gierz
    et al., Continuous Lattices and Domains, O-2): a finite directed set
    has a greatest element m, so the directed sets with greatest element
    m are m plus any subset of down[m] - {m}.  Each has intersection
    up[m], since up[m] lies inside up[d] for every d <= m, and so passes
    with d = m for every x, as down[m] itself does.  Sets with different
    greatest elements differ, so directed_sets = sum over m of
    2^(|down[m]| - 1).  A down[m] whose up-sets have no least member
    breaks the lemma: its up and down masks disagree, and it raises
    NotAPartialOrder as an undirected down[m] does."""
    directed_count = 0
    for m in range(space.n):
        d_mask = space.down[m]
        if not is_directed(space, d_mask):
            raise NotAPartialOrder(f"the down-set of point {m} is not directed")
        directed_count += 1 << (d_mask.bit_count() - 1)
        ups = [space.up[d] for d in iter_bits(d_mask)]
        inter = space.full
        for u in ups:
            inter &= u
        if inter not in ups:
            raise NotAPartialOrder(f"the down-set of point {m} has no least up-set")
    return PropertyReport(
        name="strong_d",
        holds=True,
        method="exhaustive",
        witness=None,
        details={"directed_sets": directed_count},
    )


def is_k_bounded_sober(space: FiniteSpace) -> PropertyReport:
    """Every irreducible closed set whose supremum exists is the closure
    of that supremum.  Sets without a supremum are exempt."""
    bad = None
    irr = irreducible_closed_sets(space)
    with_sup = 0
    for f in irr:
        ub = space.full
        for x in iter_bits(f):
            ub &= space.up[x]
        least = [y for y in iter_bits(ub) if is_subset(ub, space.up[y])]
        if not least:
            continue
        with_sup += 1
        sup = least[0]
        if space.down[sup] != f:
            bad = {
                "irreducible_closed": _pts(f),
                "sup": sup,
                "closure_of_sup": _pts(space.down[sup]),
            }
            break
    return PropertyReport(
        name="k_bounded_sober",
        holds=bad is None,
        method="exhaustive",
        witness=bad,
        details={"irreducible_closed_count": len(irr), "with_existing_sup": with_sup},
    )


def way_below_opens(space: FiniteSpace, u: PointSet, v: PointSet) -> bool:
    """U way-below V in the open-set lattice: every directed open cover
    of V has a member above U.

    A finite directed family has a greatest member, which covers V by
    itself, so only single-open covers T >= V need checking.  The literal
    all-families quantifier is the oracle in tests/oracles.py."""
    if not space.is_open(u) or not space.is_open(v):
        raise NotOpen("way_below_opens needs two open sets")
    return all(is_subset(u, t) for t in all_opens(space) if is_subset(v, t))


def _owf_counted(space: FiniteSpace) -> PropertyReport:
    """Tier that also reports how many subfamilies of opens are directed
    and how many are filtered for way-below.  It counts them from two
    lemmas instead of enumerating them:

    - a finite family is directed for inclusion iff it has a greatest
      member K, so there are sum over K of 2^(#opens strictly inside K);
    - way-below on finite opens is inclusion (lemma 1 of _owf_structural),
      so the filtered families are those with a least member K, and
      there are sum over K of 2^(#opens strictly containing K).

    The verdict is lemma 2 of _owf_structural.  The literal family scans
    are this tier's oracle in tests/oracles.py."""
    opens = all_opens(space)
    inside = [0] * len(opens)  # inside[k]: opens strictly inside opens[k]
    outside = [0] * len(opens)  # outside[k]: opens strictly containing opens[k]
    for i, u in enumerate(opens):
        for k, v in enumerate(opens):
            if i != k and is_subset(u, v):
                inside[k] += 1
                outside[i] += 1
    return PropertyReport(
        name="open_well_filtered",
        holds=True,
        method="exhaustive",
        witness=None,
        details={
            "opens_count": len(opens),
            "directed_families": sum(1 << c for c in inside),
            "filtered_families": sum(1 << c for c in outside),
        },
    )


def _owf_structural(space: FiniteSpace) -> PropertyReport:
    """Tier for spaces with more than owf_opens opens, whose report
    carries no family counts.  It scans nothing; two lemmas (Gierz et
    al., Continuous Lattices and Domains, O-2; Goubault-Larrecq,
    Non-Hausdorff Topology and Domain Theory, ch. 8) settle the property:

    1. A finite open is compact, so way-below on the opens is inclusion
       (way_below_opens computes exactly that).
    2. A finite family filtered for inclusion contains its least member
       L, the intersection of the family; any open U absorbing the
       intersection therefore absorbs the member L.

    Both are validated against the literal oracles in tests/oracles.py."""
    return PropertyReport(
        name="open_well_filtered",
        holds=True,
        method="structural-least-member",
        witness=None,
        details={
            "opens_count": len(all_opens(space)),
            "way_below_is_inclusion": True,
            "note": "filtered families contain their least member",
        },
    )


def is_open_well_filtered(space: FiniteSpace) -> PropertyReport:
    opens_count = len(all_opens(space))
    if opens_count <= caps.cap("owf_opens"):
        return _owf_counted(space)
    return _owf_structural(space)


def is_t0(space: FiniteSpace) -> PropertyReport:
    """Spaces are checked T0 when they are built, so this always holds."""
    return PropertyReport(
        "t0", True, "carrier invariant: spaces are validated T0 at construction"
    )


def is_t1(space: FiniteSpace) -> PropertyReport:
    """T1, which for a finite space means discrete: the order is
    equality.  The witness is the first comparable pair."""
    for x in range(space.n):
        for y in iter_bits(space.up[x]):
            if y != x:
                return PropertyReport(
                    "t1", False, "discreteness scan",
                    witness={"comparable_pair": [x, y]},
                )
    return PropertyReport("t1", True, "discreteness scan")


CHECKERS: dict[str, Callable[[FiniteSpace], PropertyReport]] = {
    "sober": is_sober,
    "co_sober": is_co_sober,
    "strong_d": is_strong_d,
    "k_bounded_sober": is_k_bounded_sober,
    "open_well_filtered": is_open_well_filtered,
    "t0": is_t0,
    "t1": is_t1,
}
