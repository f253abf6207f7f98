"""Exact interval algebra over the rationals in [0, 3].

Sets are finite unions of intervals with rational endpoints and
open/closed flags, normalized to sorted components that neither overlap
nor touch.  All arithmetic is Fraction arithmetic; equality of sets is
equality of normal forms.

The ambient space is the chain of rationals in [0, 3] with the
topology whose opens are the empty set, everything, and the final
segments that do not attain their infimum.  A subspace is any
representable carrier; its opens and closed sets are traces, and the
closed traces are exactly carrier-intersections of closed prefixes.

Scope note for exactness.  The ambient chain also has opens given by
irrational cuts, which the algebra cannot write down.  For deciding
k-bounded sobriety of a representable subspace this costs nothing: a
closed trace cut at an irrational point either has no supremum in the
subspace (the would-be sup falls in an open stretch, so no least upper
bound among rationals exists and the condition is vacuous) or equals a
rational-cut trace (the cut falls in a gap between components or at a
component edge).  So the case split over representable trace shapes
below is a complete one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .. import caps
from ..errors import BadParams
from ..finite_space import FiniteSpace, chain
from .verdicts import Verdict, holds, refuted

def _rational(q, what: str) -> Fraction:
    """q as a Fraction; BadParams unless q is an int (not a bool) or a
    Fraction, so that no float enters the algebra."""
    if isinstance(q, bool) or not isinstance(q, (int, Fraction)):
        raise BadParams(f"{what} must be an int or a Fraction; got {q!r}")
    return Fraction(q)


LO = Fraction(0)
HI = Fraction(3)


@dataclass(frozen=True, order=True)
class QInterval:
    """One nonempty rational interval inside [0, 3]."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        if not (isinstance(self.lo_closed, bool) and isinstance(self.hi_closed, bool)):
            raise BadParams(f"interval flags must be bools; got {self.lo_closed!r}, "
                            f"{self.hi_closed!r}")
        object.__setattr__(self, "lo", _rational(self.lo, "an endpoint"))
        object.__setattr__(self, "hi", _rational(self.hi, "an endpoint"))
        if not (LO <= self.lo <= self.hi <= HI):
            raise BadParams(f"interval [{self.lo}, {self.hi}] leaves [0, 3]")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise BadParams("degenerate interval must be a closed singleton")

    def __contains__(self, q: Fraction) -> bool:
        if q < self.lo or q > self.hi:
            return False
        if q == self.lo and not self.lo_closed:
            return False
        if q == self.hi and not self.hi_closed:
            return False
        return True

    def __repr__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo},{self.hi}{right}"


def _touches(a: QInterval, b: QInterval) -> bool:
    """Whether a and b merge into one interval (a.lo <= b.lo assumed)."""
    if b.lo < a.hi:
        return True
    if b.lo == a.hi:
        return a.hi_closed or b.lo_closed
    return False


@dataclass(frozen=True)
class QIntervalSet:
    """Normalized finite union of rational intervals in [0, 3]."""

    parts: tuple[QInterval, ...]

    def __post_init__(self):
        bad = next((p for p in self.parts if not isinstance(p, QInterval)), None)
        if bad is not None:
            raise BadParams(f"a part must be a QInterval; got {bad!r}")
        merged: list[QInterval] = []
        for part in sorted(self.parts):
            if merged and _touches(merged[-1], part):
                last = merged.pop()
                if part.hi > last.hi:
                    hi, hic = part.hi, part.hi_closed
                elif part.hi < last.hi:
                    hi, hic = last.hi, last.hi_closed
                else:
                    hi, hic = last.hi, last.hi_closed or part.hi_closed
                lo, loc = last.lo, last.lo_closed
                if part.lo == last.lo:
                    loc = loc or part.lo_closed
                merged.append(QInterval(lo, hi, loc, hic))
            else:
                merged.append(part)
        object.__setattr__(self, "parts", tuple(merged))

    def __contains__(self, q: Fraction) -> bool:
        return any(q in p for p in self.parts)

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def __and__(self, other: "QIntervalSet") -> "QIntervalSet":
        out = []
        for a in self.parts:
            for b in other.parts:
                lo = max(a.lo, b.lo)
                hi = min(a.hi, b.hi)
                if lo > hi:
                    continue
                if a.lo == b.lo:
                    loc = a.lo_closed and b.lo_closed
                else:
                    loc = a.lo_closed if a.lo > b.lo else b.lo_closed
                if a.hi == b.hi:
                    hic = a.hi_closed and b.hi_closed
                else:
                    hic = a.hi_closed if a.hi < b.hi else b.hi_closed
                if lo == hi and not (loc and hic):
                    continue
                out.append(QInterval(lo, hi, loc, hic))
        return QIntervalSet(tuple(out))

    def __or__(self, other: "QIntervalSet") -> "QIntervalSet":
        return QIntervalSet(self.parts + other.parts)

    def complement(self) -> "QIntervalSet":
        """Complement inside [0, 3]: walk the gaps between components."""
        out = []
        cursor, cursor_closed = LO, True
        for p in self.parts:
            gap_hi_closed = not p.lo_closed
            if cursor < p.lo or (cursor == p.lo and cursor_closed and gap_hi_closed):
                out.append(QInterval(cursor, p.lo, cursor_closed, gap_hi_closed))
            cursor, cursor_closed = p.hi, not p.hi_closed
        if cursor < HI or (cursor == HI and cursor_closed):
            out.append(QInterval(cursor, HI, cursor_closed, True))
        return QIntervalSet(tuple(out))

    def __sub__(self, other: "QIntervalSet") -> "QIntervalSet":
        return self & other.complement()

    def __le__(self, other: "QIntervalSet") -> bool:
        return (self & other) == self

    def sup_info(self) -> tuple[Fraction, bool]:
        """(real supremum, attained among the rationals of the set)."""
        if self.is_empty:
            raise BadParams("no supremum of the empty set")
        last = self.parts[-1]
        return last.hi, last.hi_closed

    def inf_info(self) -> tuple[Fraction, bool]:
        if self.is_empty:
            raise BadParams("no infimum of the empty set")
        first = self.parts[0]
        return first.lo, first.lo_closed

    def least(self) -> Fraction | None:
        if self.is_empty:
            return None
        first = self.parts[0]
        return first.lo if first.lo_closed else None

    def a_point(self) -> Fraction:
        """Some rational in the set (first component, midpoint if open)."""
        if self.is_empty:
            raise BadParams("no point of the empty set")
        p = self.parts[0]
        if p.lo_closed:
            return p.lo
        if p.hi_closed:
            return p.hi
        return (p.lo + p.hi) / 2

    def __repr__(self) -> str:
        return " u ".join(map(repr, self.parts)) if self.parts else "{}"


def interval(lo, hi, lo_closed: bool, hi_closed: bool) -> QIntervalSet:
    return QIntervalSet((QInterval(lo, hi, lo_closed, hi_closed),))


def singleton(q) -> QIntervalSet:
    return interval(q, q, True, True)


FULL = interval(0, 3, True, True)


def closed_prefix(c) -> QIntervalSet:
    """The closed set of everything at most c."""
    return interval(0, c, True, True)


class ScottQSubspace:
    """A representable subspace of the Scott chain on the rationals in
    [0, 3].  Opens are traces of final segments; closed sets are traces
    of closed prefixes."""

    def __init__(self, carrier: QIntervalSet, name: str):
        if carrier.is_empty:
            raise BadParams("subspace carrier must be nonempty")
        self.carrier = carrier
        self.name = name

    def contains(self, q) -> bool:
        return Fraction(q) in self.carrier

    def _check_subset(self, s: QIntervalSet) -> None:
        if not s <= self.carrier:
            raise BadParams("the set leaves the subspace carrier")

    def is_open(self, s: QIntervalSet) -> bool:
        """Whether s is the trace of a final segment on the carrier."""
        self._check_subset(s)
        if s.is_empty or s == self.carrier:
            return True
        below = self.carrier - s
        m, m_att = below.sup_info()
        i, i_att = s.inf_info()
        if m > i or (m == i and not m_att and i_att):
            return False
        return True

    def is_closed(self, s: QIntervalSet) -> bool:
        self._check_subset(s)
        return self.is_open(self.carrier - s)

    def closure_of_point(self, q) -> QIntervalSet:
        q = Fraction(q)
        if not self.contains(q):
            raise BadParams(f"{q} is not a carrier point")
        return self.carrier & closed_prefix(q)

    def sup_in(self, s: QIntervalSet) -> Fraction | None:
        """Least upper bound of s among carrier points, or None.

        Upper bounds are the carrier points at or above the real
        supremum; the least one exists iff that trace attains its
        infimum."""
        self._check_subset(s)
        if s.is_empty:
            raise BadParams("no sup of the empty set")
        c, _ = s.sup_info()
        ubs = self.carrier & interval(c, 3, True, True)
        return ubs.least()

    def truncation_carrier(self, bound: int) -> tuple[Fraction, ...]:
        """First `bound` carrier rationals in the canonical enumeration
        (ascending denominator, then numerator, lowest terms)."""
        caps.check_bound(bound, "truncation bound")
        chosen: list[Fraction] = []
        d = 1
        while len(chosen) < bound:
            for p in range(0, 3 * d + 1):
                q = Fraction(p, d)
                if q.denominator != d:
                    continue  # not lowest terms; seen earlier
                if self.contains(q):
                    chosen.append(q)
                    if len(chosen) == bound:
                        break
            d += 1
            if d > 64 * bound + 64:
                raise BadParams("carrier too sparse for the requested bound")
        return tuple(sorted(chosen))

    def truncate(self, bound: int) -> FiniteSpace:
        """Trace topology on the first `bound` canonical rationals:
        final-segment traces on a finite chain are its up-sets."""
        return caps.truncation(len(self.truncation_carrier(bound)), chain)


def scott_full() -> ScottQSubspace:
    return ScottQSubspace(FULL, "scott_q03")


def scott_y() -> ScottQSubspace:
    carrier = interval(0, 1, True, False) | singleton(2)
    return ScottQSubspace(carrier, "scott_q03_y")


def scott_xn(n: int) -> ScottQSubspace:
    caps.check_int(n, "n")
    if n < 2:
        raise BadParams("the punctured neighborhoods need n at least 2")
    lo = Fraction(2) - Fraction(1, n)
    hi = Fraction(2) + Fraction(1, n)
    carrier = interval(0, 1, True, False) | interval(lo, hi, False, False)
    return ScottQSubspace(carrier, f"scott_q03_x{n}")


def check_kbs(sub: ScottQSubspace, f: QIntervalSet, sup_claim=None) -> Verdict:
    """The k-bounded-sobriety condition for one closed set.

    Verifies in the algebra that f is a nonempty closed trace (hence
    directed, hence irreducible: any two points of a chain subset have
    an upper bound in the larger of them), finds the sup of f among
    carrier points, and checks it against the claim.  When the sup
    exists the condition asks for a point with closure exactly f; a
    closure contains its point and sits inside the point's down-set, so
    the only candidate is a greatest element of f.  Refuted exactly
    when the sup exists but f has no greatest element."""
    claim = f"k-bounded sober condition for {f!r} in {sub.name}"
    if f.is_empty:
        raise BadParams("the certificate set is empty")
    if not sub.is_closed(f):
        raise BadParams(f"{f!r} is not closed in {sub.name}")
    sup = sub.sup_in(f)
    if sup_claim is not None and sup != _rational(sup_claim, "the claimed sup"):
        raise BadParams(f"claimed sup {sup_claim} but the algebra finds {sup}")
    if sup is None:
        return holds(
            claim,
            "exact-interval-algebra",
            details={"vacuous": "f has no sup among carrier points"},
        )
    c, attained = f.sup_info()
    if attained:
        cl = sub.closure_of_point(c)
        if cl != f:  # pragma: no cover - the cut construction forbids it
            raise AssertionError("closed trace with a max is not its closure")
        return holds(
            claim,
            "exact-interval-algebra",
            details={
                "generic_point": str(c),
                "uniqueness": "distinct points of a chain have distinct down-sets",
            },
        )
    # sup exists but is not in f: no candidate point remains
    cl_sup = sub.closure_of_point(sup)
    samples = []
    for x in [f.a_point(), (f.sup_info()[0] + f.a_point()) / 2]:
        if Fraction(x) in f:
            cl_x = sub.closure_of_point(x)
            missing = f - cl_x
            samples.append(
                {
                    "candidate": str(x),
                    "closure": repr(cl_x),
                    "misses": repr(missing),
                }
            )
    return refuted(
        claim,
        "exact-interval-algebra",
        witness={
            "F": repr(f),
            "sup": str(sup),
            "sup_in_F": False,
            "closure_of_sup": repr(cl_sup),
            "closure_of_sup_equals_F": cl_sup == f,
            "no_greatest": "a point closure equals the down-set trace of its "
            "point, and F attains no greatest element",
            "sampled_candidates": samples,
        },
    )


def check_kbs_holds(sub: ScottQSubspace) -> Verdict:
    """Decide k-bounded sobriety of a representable subspace exactly.

    Closed traces with an existing sup come in finitely many shapes
    relative to the carrier components (see the module docstring for
    why irrational cuts add nothing): cuts inside a component, which
    attain their greatest element (a rational inside a component is a
    carrier point), and unions of whole leading components.  A leading
    union ending in a right-closed component attains its max; ending in
    a right-open component it has a sup exactly when the next component
    starts closed, and then no greatest element exists.  So the space
    fails exactly when some right-open component is followed by a
    left-closed one."""
    parts = sub.carrier.parts
    checked = []
    for i in range(len(parts) - 1):
        if not parts[i].hi_closed and parts[i + 1].lo_closed:
            f = QIntervalSet(parts[: i + 1])
            inner = check_kbs(sub, f, parts[i + 1].lo)
            if inner.kind != "refuted":  # pragma: no cover
                raise AssertionError("shape analysis and instance check disagree")
            return refuted(
                "k-bounded sober",
                "shape-analysis + exact-interval-algebra",
                witness=dict(inner.witness, space=sub.name),
                details={"refuting_shape": f"leading components through {parts[i]!r}"},
            )
    # verify every canonical shape is a point closure or vacuous
    for i, p in enumerate(parts):
        prefix = QIntervalSet(parts[: i + 1])
        inner = check_kbs(sub, prefix)
        if not inner.holds:  # pragma: no cover
            raise AssertionError("prefix shape unexpectedly refuted")
        checked.append({"shape": f"prefix through component {i}", "verdict": inner.label})
        interior = (p.lo + p.hi) / 2 if p.lo < p.hi else p.lo
        if interior in sub.carrier:
            cut = sub.carrier & closed_prefix(interior)
            inner = check_kbs(sub, cut)
            if not inner.holds:  # pragma: no cover
                raise AssertionError("interior cut unexpectedly refuted")
            checked.append({"shape": f"cut at {interior} in component {i}",
                            "verdict": inner.label})
    return holds(
        "k-bounded sober",
        "shape-analysis + exact-interval-algebra",
        details={
            "space": sub.name,
            "components": [repr(p) for p in parts],
            "shapes_checked": checked,
        },
    )
