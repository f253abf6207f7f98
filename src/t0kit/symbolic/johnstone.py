"""Exact pattern algebra for the classical non-sober dcpo on
N x (N u {infinity}).

Points are (m, j) with column m >= 1 and height j >= 1, plus a top
(m, None) over every column.  The order: (m, j) <= (m', j') iff the
columns agree and j <= j' (tops highest), or j' is the top marker and
j <= m'.  So a finite point sits below its own column's upper part and
below every top from column j on.

Representable Scott opens are complements of down-sets of a generator
set A = finite points + finitely many tops + one optional tail pattern
{(n, s(n)) : n >= k} with s constant or height = column + shift.  Down
closure turns A into a removal profile: finitely many whole columns
(the removed tops), and per column a removal height that is eventually
constant or eventually column + shift.  The profile is the canonical
form; membership, containment and intersection are decided on it
exactly.

Every such complement really is Scott open: it is an upper set because
profiles remove down-sets, and inaccessible because a directed set
without a greatest element lives in one column and its sup is that
column's top, which the profile only removes together with a whole
column (so the approximating column tail would be removed too).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .. import caps
from ..errors import BadParams, EmptyOpen
from ..finite_space import FiniteSpace, from_order
from ..properties import is_open_well_filtered
from .cofinite import CofiniteSet, cofinite_excluding, empty_set
from .verdicts import Verdict, holds, holds_up_to, refuted

Point = tuple[int, int | None]  # (column, height); None marks the top


def check_point(p: Point) -> Point:
    if not (isinstance(p, tuple) and len(p) == 2):
        raise BadParams(f"a point is a pair (column, height); got {p!r}")
    m, j = p
    caps.check_int(m, "a column")
    if j is not None:
        caps.check_int(j, "a height")
    if m < 1 or (j is not None and j < 1):
        raise BadParams(f"columns and heights start at 1; got {p}")
    return (m, j)


def leq_points(p: Point, q: Point) -> bool:
    (m, j), (m2, j2) = check_point(p), check_point(q)
    if m == m2:
        if j2 is None:
            return True
        return j is not None and j <= j2
    if j2 is None:
        return j is not None and j <= m2
    return False


EV_KINDS = ("const", "shift")


def _ev_height(kind: str, val: int, m: int) -> int:
    return val if kind == "const" else m + val


@dataclass(frozen=True)
class JohnstoneOpen:
    """A representable Scott open, stored as its canonical removal
    profile: removed tops, an explicit height prefix, and the eventual
    height form for all later columns."""

    empty: bool
    tops: frozenset[int]
    heights: tuple[int, ...]
    ev_kind: str
    ev_val: int

    def __post_init__(self):
        if not isinstance(self.empty, bool):
            raise BadParams(f"the empty flag must be a bool; got {self.empty!r}")
        if self.ev_kind not in EV_KINDS:
            raise BadParams(f"unknown eventual kind {self.ev_kind!r}")
        for x in (self.ev_val, *self.heights, *self.tops):
            caps.check_int(x, "a removal height or top")
        if self.ev_val < 0 or any(h < 0 for h in self.heights):
            raise BadParams("removal heights are nonnegative")
        if any(t < 1 for t in self.tops):
            raise BadParams("columns start at 1")
        if self.empty and (self.tops or self.heights or self.ev_val):
            raise BadParams("the empty open carries no profile")

    # ----- profile access -----

    @property
    def band(self) -> int:
        return max(self.tops, default=0)

    def height(self, m: int) -> int:
        """Removal height of column m's finite part."""
        if m <= len(self.heights):
            return self.heights[m - 1]
        return _ev_height(self.ev_kind, self.ev_val, m)

    def horizon(self) -> int:
        return max(len(self.heights), self.band, 1)

    def __contains__(self, p: Point) -> bool:
        m, j = check_point(p)
        if self.empty:
            return False
        if m in self.tops:
            return False
        if j is None:
            return True
        return j > self.height(m)

    @property
    def is_empty(self) -> bool:
        return self.empty

    # ----- algebra -----

    def __le__(self, other: "JohnstoneOpen") -> bool:
        """Containment: the other's removal profile fits under ours."""
        if self.empty:
            return True
        if other.empty:
            return False
        if not other.tops <= self.tops:
            return False
        hor = _joint_horizon(self, other)
        for m in range(1, hor + 1):
            if m in self.tops:
                continue
            if other.height(m) > self.height(m):
                return False
        return _ev_key(other.ev_kind, other.ev_val) <= _ev_key(self.ev_kind, self.ev_val)

    def __and__(self, other: "JohnstoneOpen") -> "JohnstoneOpen":
        if self.empty or other.empty:
            return EMPTY_OPEN
        hor = _joint_horizon(self, other)
        tops = self.tops | other.tops
        # top columns are pinned by the profile builder; the rest max out
        hs = {
            m: max(self.height(m), other.height(m))
            for m in range(1, hor + 1)
            if m not in tops
        }
        ev = max((self.ev_kind, self.ev_val), (other.ev_kind, other.ev_val),
                 key=lambda ev: _ev_key(*ev))
        return _from_profile(tops, hs, ev)

    def top_trace(self) -> CofiniteSet:
        """The open's trace on the top row, as a set of column indices."""
        if self.empty:
            return empty_set()
        return cofinite_excluding(self.tops)

    def __repr__(self) -> str:
        if self.empty:
            return "JohnstoneOpen(empty)"
        tail = f"{self.ev_val}" if self.ev_kind == "const" else f"n+{self.ev_val}"
        return (
            f"JohnstoneOpen(tops={sorted(self.tops)}, "
            f"prefix={list(self.heights)}, then height {tail})"
        )


def _ev_key(kind: str, val: int) -> tuple[bool, int]:
    """Orders eventual heights as they compare on all large columns:
    column + shift outgrows every constant."""
    return (kind == "shift", val)


def _crossovers(a: "JohnstoneOpen", b: "JohnstoneOpen") -> int:
    """Past this column a column + shift form is above a constant one."""
    lo, hi = sorted((a, b), key=lambda o: _ev_key(o.ev_kind, o.ev_val))
    return lo.ev_val - hi.ev_val if lo.ev_kind != hi.ev_kind else 0


def _joint_horizon(a: "JohnstoneOpen", b: "JohnstoneOpen") -> int:
    return max(a.horizon(), b.horizon(), _crossovers(a, b)) + 1


def _from_profile(tops: frozenset[int] | set[int],
                  heights: dict[int, int],
                  ev: tuple[str, int]) -> JohnstoneOpen:
    """Canonicalize: pin top-columns' heights to the band, trim the
    prefix down to the last column that disagrees with the eventual
    form."""
    tops = frozenset(tops)
    band = max(tops, default=0)
    kind, val = ev
    hor = max([band, *heights.keys(), 1])
    if kind == "shift":
        hor = max(hor, band - val)
    row = []
    for m in range(1, hor + 1):
        h = heights.get(m, _ev_height(kind, val, m))
        if m in tops:
            h = band
        row.append(max(h, 0))
    while row and row[-1] == _ev_height(kind, val, len(row)):
        row.pop()
    return JohnstoneOpen(False, tops, tuple(row), kind, val)


EMPTY_OPEN = JohnstoneOpen(True, frozenset(), (), "const", 0)
FULL_OPEN = JohnstoneOpen(False, frozenset(), (), "const", 0)


def open_from_generators(
    finite_points: Iterable[Point] = (),
    top_columns: Iterable[int] = (),
    tail: tuple[int, str, int] | None = None,
) -> JohnstoneOpen:
    """The complement of the down closure of the given generators.

    A removed finite point (m, j) removes the column segment up to j; a
    removed top removes its whole column and the height band up to its
    column index everywhere; the tail (start, kind, value) removes
    {(n, s(n)) : n >= start} and their segments."""
    top_columns = tuple(top_columns)
    for t in top_columns:
        caps.check_int(t, "a top column")
        if t < 1:
            raise BadParams("columns start at 1")
    tops = frozenset(top_columns)
    band = max(tops, default=0)
    explicit: dict[int, int] = {}
    for p in finite_points:
        m, j = check_point(p)
        if j is None:
            raise BadParams("tops go in top_columns, not finite_points")
        explicit[m] = max(explicit.get(m, 0), j)
    if tail is None:
        kind, val, start = "const", 0, None
        hor = max([band, 1, *explicit.keys()])
    else:
        if not (isinstance(tail, tuple) and len(tail) == 3):
            raise BadParams(f"a tail is (start, kind, value); got {tail!r}")
        start, kind, val = tail
        caps.check_int(start, "the tail start")
        caps.check_int(val, "the tail value")
        if kind not in EV_KINDS:
            raise BadParams(f"unknown tail kind {kind!r}")
        if start < 1 or val < (1 if kind == "const" else 0):
            raise BadParams("tail start and removed heights start at 1")
        hor = max([band, start, *explicit.keys()]) + 1
        if kind == "shift":
            hor = max(hor, band - val + 1)
    heights = {}
    for m in range(1, hor + 1):
        h = max(band, explicit.get(m, 0))
        if start is not None and m >= start:
            h = max(h, _ev_height(kind, val, m))
        heights[m] = h
    return _from_profile(tops, heights, (kind, val if kind == "shift" else max(val, band)))


class JohnstoneSpace:
    """The dcpo with its Scott topology, through representable opens."""

    name = "johnstone"

    def truncate(self, columns: int = 3, height: int = 3) -> FiniteSpace:
        return truncate_grid(columns, height)


def truncate_grid(columns: int, height: int, deleted: int = 0) -> FiniteSpace:
    """Finite order restriction: all columns up to `columns`, finite
    heights up to `height` in the columns after the first `deleted`,
    plus the tops of those columns."""
    caps.check_bound(columns, "columns")
    caps.check_bound(height, "height")
    n = max(columns - deleted, 0) * height + columns
    caps.guard(n, caps.cap("truncate"), "truncation size")  # before the list
    pts: list[Point] = [(m, j) for m in range(1, columns + 1) if m > deleted
                        for j in range(1, height + 1)]
    pts.extend((m, None) for m in range(1, columns + 1))
    pairs = [
        (i, k)
        for i, p in enumerate(pts)
        for k, q in enumerate(pts)
        if leq_points(p, q)
    ]
    return caps.truncation(len(pts), lambda n: from_order(n, pairs))


class KnSubspace:
    """The carrier left after deleting the finite parts of the first n
    columns (all tops stay).  Not an open set; a subspace handle."""

    def __init__(self, n: int):
        caps.check_int(n, "the number of deleted columns")
        if n < 0:
            raise BadParams("the number of deleted columns is nonnegative")
        self.n = n
        self.name = f"johnstone_k{n}"

    def contains(self, p: Point) -> bool:
        m, j = check_point(p)
        return j is None or m > self.n

    def truncate(self, columns: int | None = None, height: int = 3) -> FiniteSpace:
        columns = columns if columns is not None else self.n + 3
        caps.check_int(columns, "columns")
        if columns <= self.n:
            raise BadParams("truncation needs columns beyond the deleted ones")
        return truncate_grid(columns, height, self.n)


@dataclass(frozen=True)
class MinSelector:
    """Per-column least members of a nonempty open: x(m) is the least
    height with (m, x(m)) in U, defined for every column beyond the
    removed tops; eventually it follows the open's eventual form plus
    one."""

    top_bound: int
    prefix: tuple[int, ...]
    ev_kind: str
    ev_val: int

    def x(self, m: int) -> int:
        if m <= self.top_bound:
            raise BadParams(f"column {m} has no selector (top removed band)")
        if m - self.top_bound <= len(self.prefix):
            return self.prefix[m - self.top_bound - 1]
        return _ev_height(self.ev_kind, self.ev_val, m)


def min_selector(u: JohnstoneOpen) -> MinSelector:
    """The column minimum map of a nonempty representable open.

    top_bound is the largest removed-top column (0 if none); for every
    later column m the least height inside u is the removal height plus
    one, exactly from the profile."""
    if u.is_empty:
        raise EmptyOpen("the empty open has no column minima")
    m0 = u.band
    prefix = [u.height(m) + 1 for m in range(m0 + 1, u.horizon() + 1)]
    while prefix and prefix[-1] == _ev_height(u.ev_kind, u.ev_val + 1, m0 + len(prefix)):
        prefix.pop()
    return MinSelector(m0, tuple(prefix), u.ev_kind, u.ev_val + 1)


def cover_member(sel: MinSelector, k: int) -> JohnstoneOpen:
    """The open that removes the down-set of {(m, x(m)) : m >= k}."""
    if k <= sel.top_bound:
        raise BadParams("cover members start beyond the removed tops")
    hor = sel.top_bound + len(sel.prefix) + 1
    heights = {m: (sel.x(m) if m >= k else 0) for m in range(1, max(hor, k) + 1)}
    return _from_profile(frozenset(), heights, (sel.ev_kind, sel.ev_val))


def check_way_below(u: JohnstoneOpen, v: JohnstoneOpen, bound: int = 30) -> Verdict:
    """Decide whether u is way below v, per the cover criterion.

    The empty open is way below everything.  For nonempty u the family
    W_k = complement of the down-set of {(m, x(m)) : m >= k} is a chain
    of opens covering the whole space (no W_k removes a top, and W_(m+1)
    leaves all of column m), yet (k, x(k)) witnesses W_k not containing
    u for every k.  The identities behind the three clauses are checked
    on `bound` instances and hold for all k by the selector arithmetic,
    so nonempty always comes back Refuted."""
    caps.check_bound(bound, "the check bound")
    claim = f"way below: {u!r} << {v!r}"
    if u.is_empty:
        return holds(claim, "trivial", details={"reason": "empty set is way below everything"})
    sel = min_selector(u)
    start = sel.top_bound + 1
    ks = list(range(start, start + bound))
    members = {k: cover_member(sel, k) for k in ks}

    chain_checked = all(members[k] <= members[k + 1] for k in ks[:-1])
    no_tops_removed = all(not members[k].tops for k in ks)
    cover_checked = all(
        (m, j) in members[max(m + 1, start)]
        for m in range(1, start + bound - 1)
        for j in (1, bound)
    ) and all((m, None) in members[ks[0]] for m in range(1, bound + 1))
    witness_points = {k: (k, sel.x(k)) for k in ks}
    separation_checked = all(
        witness_points[k] in u and witness_points[k] not in members[k] for k in ks
    )
    selector_identity = all(sel.x(m) == u.height(m) + 1 for m in ks) and (
        sel.ev_kind == u.ev_kind and sel.ev_val == u.ev_val + 1
    )
    if not (chain_checked and no_tops_removed and cover_checked
            and separation_checked and selector_identity):
        # the pattern arithmetic failed to settle it; report the bound
        return holds_up_to(claim, bound, "bounded-grid", details={
            "chain": chain_checked, "cover": cover_checked,
            "separation": separation_checked, "selector": selector_identity,
        })
    return refuted(
        claim,
        "exact-pattern-arithmetic",
        witness={
            "selector_top_bound": sel.top_bound,
            "selector_prefix": list(sel.prefix)[:8],
            "selector_eventual": f"{sel.ev_kind} {sel.ev_val}",
            "cover": "complements of down-sets of the selector tails from k on",
            "chain_and_cover": "no member removes a top; member k+1 removes "
            "less than member k; member m+1 leaves column m whole",
            "separating_points": {k: witness_points[k] for k in ks[:5]},
            "scope": "the cover fills the whole space, so this refutes "
            "u << v for every v",
            "instances_checked": bound,
        },
    )


def default_sample_opens() -> list[JohnstoneOpen]:
    return [
        FULL_OPEN,
        open_from_generators(tail=(1, "const", 1)),
        open_from_generators(tail=(1, "shift", 0)),
        open_from_generators(finite_points=[(1, 5), (3, 2)]),
        open_from_generators(top_columns=[2]),
        EMPTY_OPEN,
    ]


def _claim_way_below_trivial(bound: int, samples: list[JohnstoneOpen],
                             verdicts: list[Verdict]) -> Verdict:
    """Way-below is trivial on representable opens: only the empty set
    is way below anything."""
    ok = all(v.kind == ("holds" if u.is_empty else "refuted")
             for u, v in zip(samples, verdicts))
    sub = [v.as_tree() for v in verdicts]
    if not ok:
        return holds_up_to(
            "(1) way below is trivial on representable opens",
            bound, "bounded-grid", details={"samples": sub},
        )
    return holds(
        "(1) way below is trivial on representable opens",
        "exact-pattern-arithmetic per sample",
        details={"nonempty_samples_refuted": sum(not u.is_empty for u in samples),
                 "samples": sub},
    )


def _claim_owf(bound: int, samples: list[JohnstoneOpen], verdicts: list[Verdict]) -> Verdict:
    """Open well-filteredness of the whole space, bounded.

    Way-below-filtered families drawn from the sample pool must contain
    the empty open (any member pair needs a third way below both, and
    claim (1) leaves only the empty set), and a family containing the
    empty open satisfies the filtration condition against every u.  The
    search over the pool is exhaustive; the verdict stays bounded
    because the pool is."""
    wb = [v.kind == "holds" for v in verdicts]
    families = 0
    filtered = 0
    for mask in range(1, 1 << len(samples)):
        fam = [i for i in range(len(samples)) if (mask >> i) & 1]
        families += 1
        is_filtered = all(
            any(wb[k] and samples[k] <= (samples[i] & samples[j]) for k in fam)
            for i in fam
            for j in fam
        )
        if not is_filtered:
            continue
        filtered += 1
        if not any(samples[k].is_empty for k in fam):  # pragma: no cover
            raise AssertionError("filtered family without the empty member")
    return holds_up_to(
        "(2) the space is open well-filtered",
        bound,
        "via claim (1) + exhaustive family search over the sample pool",
        details={
            "pool": len(samples),
            "families_searched": families,
            "filtered_families": filtered,
            "note": "every filtered family contains the empty open, whose "
            "presence settles the filtration condition for every u",
        },
    )


def _claim_kn_owf() -> Verdict:
    """Open well-filteredness of the column-deleted subspaces, n = 1, 2,
    checked on height-3 truncations with the literal property checker."""
    per_n = {}
    for n in (1, 2):
        sp = KnSubspace(n).truncate(columns=n + 3, height=3)
        rep = is_open_well_filtered(sp)
        per_n[n] = {"points": sp.n, "holds": rep.holds, "method": rep.method}
        if not rep.holds:  # pragma: no cover - finite spaces satisfy it
            raise AssertionError(f"truncation of deleted-columns space {n} failed")
    return holds_up_to(
        "(3) the column-deleted subspaces are open well-filtered",
        max(p["points"] for p in per_n.values()),
        "finite truncations + literal checker",
        details={
            "per_n": per_n,
            "open_question": "whether the ambient subspace topology agrees "
            "with the intrinsic Scott topology on these carriers is only "
            "verified on the truncations",
        },
    )


def _claim_top_row(bound: int, samples: list[JohnstoneOpen]) -> Verdict:
    """The intersection of the column-deleted subspaces is the top row,
    and its trace topology is the cofinite one.

    Exactness: a finite point (m, j) leaves the intersection at n = m;
    tops never leave.  Representable opens hit the top row in the
    complement of their finitely many removed tops, and every cofinite
    set of columns arises that way.  The bridge lemma (the up-set of a
    finite point meets the top row in a final segment of columns, so
    any nonempty Scott open traces cofinitely) is order arithmetic,
    checked exhaustively on a grid."""
    ks = [KnSubspace(n) for n in range(1, bound + 1)]
    # finite points leave, tops stay: sampled grid plus the exact excluder
    for m in range(1, bound + 1):
        if ks[m - 1].contains((m, 1)) or not ks[m - 1].contains((m, None)):
            raise AssertionError("membership pattern broke")  # pragma: no cover
        if m < bound and not ks[m - 1].contains((m + 1, 1)):
            raise AssertionError("deleted too much")  # pragma: no cover

    # the bridge lemma on a grid: up-sets of finite points meet the top
    # row in exactly the columns from the height on
    grid = 6
    lemma_ok = all(
        leq_points((m, j), (t, None)) == (t >= j or t == m)
        for m in range(1, grid + 1)
        for j in range(1, grid + 1)
        for t in range(1, grid + 1)
    )

    # representable opens trace cofinitely; cofinite sets are traces
    nonempty = [u for u in samples if not u.is_empty]
    traces = [u.top_trace() for u in nonempty]
    trace_cofinite = all(t.cofinite for t in traces)
    rebuilt = []
    for excluded in ([], [1], [2, 5], list(range(1, 7))):
        u = open_from_generators(top_columns=excluded)
        rebuilt.append(u.top_trace() == cofinite_excluding(excluded))

    homeo_ok = all(
        (t in u.top_trace()) == ((t, None) in u)
        for u in nonempty
        for t in range(1, bound + 1)
    )
    if not (lemma_ok and trace_cofinite and all(rebuilt) and homeo_ok):
        return holds_up_to(
            "(4) the residual carrier is the top row, homeomorphic to the "
            "cofinite naturals",
            bound, "bounded-grid",
            details={"lemma": lemma_ok, "traces": trace_cofinite},
        )
    return holds(
        "(4) the residual carrier is the top row, homeomorphic to the "
        "cofinite naturals",
        "exact-pattern + grid-lemma",
        witness={
            "carrier": "a finite point (m, j) is deleted once n reaches m; "
            "tops are never deleted",
            "homeomorphism": "column index: (m, top) maps to m",
            "open_correspondence": "a representable open traces to the "
            "complement of its removed tops; the cofinite set missing T "
            "is the trace of the open removing exactly the tops in T",
            "bridge_lemma_grid": grid,
            "sampled_tops": bound,
        },
        details={"sampled_opens": len(nonempty)},
    )


def check_johnstone_claims(bound: int = 30) -> list[Verdict]:
    """The four claims, in order, from one sample pool and one way-below
    check of each sample against the whole space."""
    caps.check_bound(bound, "the check bound")
    samples = default_sample_opens()
    verdicts = [check_way_below(u, FULL_OPEN, bound) for u in samples]
    return [
        _claim_way_below_trivial(bound, samples, verdicts),
        _claim_owf(bound, samples, verdicts),
        _claim_kn_owf(),
        _claim_top_row(bound, samples),
    ]
