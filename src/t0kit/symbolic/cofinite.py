"""Exact algebra for the cofinite topology on the positive integers.

The carrier is {1, 2, 3, ...}.  Every finite-or-cofinite subset is a
CofiniteSet.  The family of finite and cofinite sets is closed under
union, intersection and complement; the type implements only what the
checkers use, intersection, containment and membership, and decides
them exactly, so quantifiers over opens reduce to support arithmetic.
The opens are the empty set and the cofinite sets.

Two facts carry all the weight here and are stated once:

* every subset is compact (any nonempty open member of a cover already
  omits only finitely many points), hence U is way below V exactly when
  U is contained in V;
* the complements of initial segments form a way-below-filtered family
  of opens whose intersection is empty, yet no member is contained in
  the empty set.  That refutes open well-filteredness, and the
  refutation is checked clause by clause below.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Iterable

from .. import caps
from ..errors import BadParams, NotOpen
from ..finite_space import FiniteSpace, antichain
from ..values import Value
from .verdicts import Verdict, holds, holds_up_to, refuted


def _clean_support(items: Iterable[int]) -> frozenset[int]:
    items = tuple(items)
    for k in items:
        caps.check_int(k, "a member")
        if k < 1:
            raise BadParams(f"carrier is the positive integers; got {k}")
    return frozenset(items)


class CofiniteSet(Value):
    """A finite or cofinite set of positive integers.

    cofinite=False: the set is exactly `support`.
    cofinite=True: the set is everything except `support`.
    The representation is canonical, so equality is structural.
    """

    __slots__ = _fields = ("cofinite", "support")

    def __init__(self, cofinite: bool, support: Iterable[int] = frozenset()):
        if not isinstance(cofinite, bool):
            raise BadParams(f"the cofinite flag must be a bool; got {cofinite!r}")
        object.__setattr__(self, "cofinite", cofinite)
        object.__setattr__(self, "support", _clean_support(support))

    def __contains__(self, k: int) -> bool:
        return (k in self.support) != self.cofinite and k >= 1

    @property
    def is_empty(self) -> bool:
        return not self.cofinite and not self.support

    def __and__(self, other: "CofiniteSet") -> "CofiniteSet":
        a, b = self, other
        if not a.cofinite and not b.cofinite:
            return CofiniteSet(False, a.support & b.support)
        if not a.cofinite:
            return CofiniteSet(False, a.support - b.support)
        if not b.cofinite:
            return CofiniteSet(False, b.support - a.support)
        return CofiniteSet(True, a.support | b.support)

    def __le__(self, other: "CofiniteSet") -> bool:
        a, b = self, other
        if not a.cofinite and not b.cofinite:
            return a.support <= b.support
        if not a.cofinite:
            return not (a.support & b.support)
        if not b.cofinite:
            return False
        return b.support <= a.support

    def __repr__(self) -> str:
        body = "{" + ",".join(map(str, sorted(self.support))) + "}"
        return f"(N+ minus {body})" if self.cofinite else body


def cofinite_excluding(items: Iterable[int]) -> CofiniteSet:
    return CofiniteSet(True, frozenset(items))


def empty_set() -> CofiniteSet:
    return CofiniteSet(False, frozenset())


class IndexedFamily(Value):
    """A family of sets indexed by the integers from `start` on.

    `shape` names the structural pattern the checkers can reason about
    exactly: "initial_segment_complements" promises member(k) is the
    complement of {1..k}; "constant" promises all members are equal.
    Anything else is treated as opaque and only checked up to a bound.
    check_owf_refutation spot-checks a promise on the sample before it
    relies on it and raises BadParams if it is broken; past the sample
    the shape is trusted.
    """

    __slots__ = _fields = ("name", "member", "start", "shape")

    def __init__(self, name: str, member: Callable[[int], CofiniteSet], start: int = 1,
                 shape: str = "generic"):
        caps.check_int(start, "the family start")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "member", member)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "shape", shape)

    def members(self, count: int) -> list[CofiniteSet]:
        return [self.member(k) for k in range(self.start, self.start + count)]


def initial_segment_complements() -> IndexedFamily:
    return IndexedFamily(
        "complements of initial segments",
        lambda n: cofinite_excluding(range(1, n + 1)),
        start=1,
        shape="initial_segment_complements",
    )


class CofiniteNat:
    """The positive integers with the cofinite topology."""

    name = "nat_cofinite"

    def is_open(self, s: CofiniteSet) -> bool:
        return s.is_empty or s.cofinite

    def way_below(self, u: CofiniteSet, v: CofiniteSet) -> bool:
        """Way-below between opens.

        Every subset is compact: a nonempty member of an open cover
        omits only finitely many points and finitely many further
        members pick those up.  Compact-below coincides with inclusion,
        so this is exact containment.  Cross-checked against the
        literal finite computation on truncations in the tests.
        """
        if not self.is_open(u) or not self.is_open(v):
            raise NotOpen("way-below is only defined between opens here")
        return u <= v

    def truncate(self, bound: int) -> FiniteSpace:
        """Trace on {1..bound}: discrete, since any subset of a finite
        piece extends to a cofinite set."""
        return caps.truncation(bound, antichain)


def check_owf_refutation(
    space: CofiniteNat,
    family: IndexedFamily,
    u: CofiniteSet,
    bound: int = 32,
) -> Verdict:
    """Decide the open-well-filteredness condition for one certificate.

    The certificate is a way-below-filtered family F of opens and an
    open u.  The condition says: if the intersection of F lands inside
    u then some member already does.  BadParams unless the sampled
    members are open (a) and way-below-filtered (b); Holds if one lies
    inside u (c).  Past (c) they are nonempty and cofinite, and one
    table decides, each row after a spot check of the shape's promise:

        initial segments, u cofinite          Holds
        initial segments, u finite or empty   Refuted
        constant, u finite or empty           Holds
        anything else                         HoldsUpTo(bound)

    The bound follows caps.check_bound.
    """
    caps.check_bound(bound, "the sample bound")
    claim = f"open well-filtered condition for {family.name}"
    members = family.members(2 * bound)
    sample = members[:bound]
    indices = list(range(family.start, family.start + bound))

    # (a) members must be opens
    for k, m in zip(indices, sample):
        if not space.is_open(m):
            raise BadParams(f"member {k} of {family.name} is not open")

    # (b) way-below-filtered: a selector member below each sampled pair
    selectors: dict[tuple[int, int], int] = {}
    probe = list(zip(range(family.start, family.start + 2 * bound), members))
    for i in range(bound):
        for j in range(i, bound):
            meet = sample[i] & sample[j]
            found = next((k for k, m in probe if space.way_below(m, meet)), None)
            if found is None:
                raise BadParams(
                    f"{family.name} is not way-below-filtered at the pair "
                    f"({indices[i]}, {indices[j]}) within index bound {probe[-1][0]}"
                )
            selectors[(indices[i], indices[j])] = found

    # (c) does some member land inside u?  Then the condition holds for
    # this certificate, exactly.
    for k, m in zip(indices, sample):
        if m <= u:
            return holds(
                claim,
                "exact-cofinite-algebra",
                details={
                    "containing_member_index": k,
                    "containing_member": repr(m),
                    "u": repr(u),
                },
            )

    # Every sampled member is open and not inside u, so it is nonempty
    # (the empty set is inside every u) and hence cofinite.
    if family.shape == "initial_segment_complements" and u.cofinite:
        # support grows through every initial segment, so the member
        # indexed by max(excluded points of u) is inside u
        k0 = max(u.support, default=0) or 1
        if not family.member(k0) <= u:
            raise BadParams(f"{family.name} breaks its shape: member {k0} is not inside u")
        return holds(
            claim,
            "exact-cofinite-algebra",
            details={"containing_member_index": k0, "u": repr(u)},
        )
    if family.shape == "initial_segment_complements":
        # every point x is excluded by member x: x sits in the initial
        # segment {1..x}, so the full intersection is empty, while a
        # finite or empty u holds no cofinite member
        x = next((x for x in range(1, bound + 1) if x in family.member(x)), None)
        if x is not None:
            raise BadParams(f"{family.name} breaks its shape: point {x} is in member {x}")
        return refuted(
            claim,
            "exact-cofinite-algebra",
            witness={
                "family": family.name,
                "family_members_sampled": [repr(m) for m in sample[:6]],
                "filtered_selectors_sampled": {
                    f"{i},{j}": k for (i, j), k in list(selectors.items())[:6]
                },
                "intersection": "every point x is outside member x (initial "
                "segment {1..x} contains x), so the full intersection is empty",
                "u": repr(u),
                "no_member_inside": "members are cofinite, hence nonempty, "
                "hence never inside the empty set" if u.is_empty else "sampled",
            },
            details={"sample_bound": bound},
        )
    if family.shape == "constant" and not u.cofinite:
        # the intersection is the member itself, which (c) found not
        # inside u
        k = next((k for k, m in zip(indices, sample) if m != sample[0]), None)
        if k is not None:
            raise BadParams(f"{family.name} breaks its shape: member {k} differs from the first")
        return holds(
            claim,
            "exact-cofinite-algebra",
            details={"reason": "intersection is not inside u", "u": repr(u)},
        )
    return holds_up_to(
        claim,
        bound,
        "bounded-scan",
        details={
            "reason": "family shape is opaque; only sampled checks ran",
            "partial_intersection": repr(reduce(CofiniteSet.__and__, sample)),
        },
    )


def check_owf(space: CofiniteNat | None = None, bound: int = 32) -> Verdict:
    """The headline run: the initial-segment family against the empty
    open refutes open well-filteredness of the cofinite space."""
    space = space or CofiniteNat()
    inner = check_owf_refutation(space, initial_segment_complements(), empty_set(), bound)
    if inner.kind != "refuted":
        return inner
    return refuted(
        "open well-filtered",
        inner.method,
        witness=inner.witness,
        details=dict(inner.details, space=space.name),
    )
