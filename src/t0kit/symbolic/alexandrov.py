"""Exact algebra for the naturals with the up-set (Alexandrov) topology.

The carrier is {0, 1, 2, ...} with its usual order; the opens are the
empty set, the whole space, and the final segments (up-sets of n).  All
representable sets are final segments, initial segments, the empty set
or the whole space, which is enough to decide co-sobriety exactly: a
nonempty upper set of a well-ordered chain has a minimum n and hence
equals the up-set of n, those sets are compact and k-irreducible, and
distinct n give distinct up-sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import caps
from ..errors import BadParams, NotRepresentable
from ..finite_space import FiniteSpace, chain
from ..properties import is_co_sober
from .verdicts import Verdict, holds

KINDS = ("empty", "full", "up", "down")


@dataclass(frozen=True)
class AlexSet:
    """A representable subset: empty, full, up(n) = {n, n+1, ...} or
    down(n) = {0, ..., n}.  Normal form: full is up(0), never stored as
    "up"; down(n) never empty."""

    kind: str
    n: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise BadParams(f"unknown set kind {self.kind!r}")
        if self.kind in ("up", "down"):
            caps.check_int(self.n, "an up/down set's index")
            if self.n < 0:
                raise BadParams("up/down sets need a natural number index")
            if self.kind == "up" and self.n == 0:
                raise BadParams("up(0) is the full set; use full")
        elif self.n is not None:
            raise BadParams(f"{self.kind} carries no index")

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"


def up_set(n: int) -> AlexSet:
    return AlexSet("full") if n == 0 else AlexSet("up", n)


def down_set(n: int) -> AlexSet:
    return AlexSet("down", n)


def full_alex() -> AlexSet:
    return AlexSet("full")


def union(a: AlexSet, b: AlexSet) -> AlexSet:
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    if "full" in (a.kind, b.kind):
        return full_alex()
    if a.kind == b.kind == "up":
        return up_set(min(a.n, b.n))
    if a.kind == b.kind == "down":
        return down_set(max(a.n, b.n))
    # up(n) with down(m) covers everything iff the pieces overlap or touch
    u, d = (a, b) if a.kind == "up" else (b, a)
    if u.n <= d.n + 1:
        return full_alex()
    raise NotRepresentable("union of disjoint up and down parts is not a segment")


class AlexandrovNat:
    """The naturals with the up-set topology."""

    name = "nat_alexandrov"

    def leq(self, x: int, y: int) -> bool:
        """Specialization order: x is in the closure of y iff x <= y."""
        return 0 <= x <= y

    def is_open(self, s: AlexSet) -> bool:
        return s.kind in ("empty", "full", "up")

    def saturate(self, s: AlexSet) -> AlexSet:
        if self.is_open(s):
            return s
        return full_alex()  # down-sets meet every up-set, so all opens remain

    def min_of(self, s: AlexSet) -> int | None:
        if s.kind == "empty":
            return None
        if s.kind == "up":
            return s.n
        return 0

    def truncate(self, bound: int) -> FiniteSpace:
        """Trace on {0..bound-1}: the final segments cut down to the
        up-sets of a finite chain."""
        return caps.truncation(bound, chain)


def check_cosober_alexandrov(bound: int = 50) -> Verdict:
    """Co-sobriety of the Alexandrov naturals, decided exactly.

    The symbolic part: every nonempty saturated compact set is a final
    segment up(n) (a nonempty upper set of a well-ordered chain equals
    the up-set of its minimum), every final segment is the saturation
    of its minimum and of nothing else, and any split up(n) = up(a) or
    up(b) collapses to the piece with the smaller index.  The finite
    part cross-checks the truncation of size `bound` with the literal
    checker, and confirms it is not discrete.
    """
    caps.check_int(bound, "the check bound")
    if bound < 2:
        raise BadParams("need at least two points to exercise the order")
    space = AlexandrovNat()
    finite = space.truncate(bound)  # the truncate cap, before the bound^2 loop

    split_checked = 0
    for a in range(0, bound):
        for b in range(a, bound):
            if union(up_set(a), up_set(b)) != up_set(min(a, b)):
                raise AssertionError(f"up({a}) | up({b}) is not up({min(a, b)})")
            split_checked += 1
    sat_points = all(
        space.min_of(up_set(n)) == n and space.saturate(down_set(n)) == full_alex()
        for n in range(bound)
    )
    if not sat_points:  # pragma: no cover - normal forms make this impossible
        raise AssertionError("normal form broke: up(n) lost its minimum")

    finite_report = is_co_sober(finite)
    t1 = all(
        not space.leq(x, y) for x in range(bound) for y in range(bound) if x != y
    )
    if not finite_report.holds or t1:
        raise AssertionError("truncation contradicts the symbolic analysis")

    return holds(
        "co-sober",
        "exact-normal-form + truncation",
        details={
            "space": space.name,
            "saturated_normal_form": "empty or a final segment up(n)",
            "k_irreducible_splits_checked": split_checked,
            "truncation_points": bound,
            "truncation_co_sober": finite_report.holds,
            "truncation_t1": False,
        },
    )
