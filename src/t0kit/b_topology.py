"""The b-topology of a finite T0 space.

The b-topology on X is generated by the base {U n cl({x}) : x in U open}.
One lemma decides it: every basic set containing y contains
up[y] & down[y] (take U any open with y in U, so up[y] <= U, and x with
y <= x, so down[y] <= down[x]), and that witness set is itself basic
(U = up[y], x = y).  So up[y] & down[y] is the least b-open set around
y.  b_closure uses it with the quantifier swapped: y lies in the
b-closure of A iff up[y] & down[y] meets A, that is iff some z in A
lies in up[y] & down[y], and that holds iff y lies in up[z] & down[z].
So the b-closure of A is the union of up[z] & down[z] over z in A,
one mask operation per point of A rather than per point of X.  b_space
uses the lemma as the up-set of y in bX; nothing about either result is
assumed in advance.  The literal quantifier over every basic set is
b_closure's oracle in tests/oracles.py, and the topology generated by
b_basic_opens is b_space's.

is_b_closed reads the space's b_discrete flag: when every least
b-open set up[z] & down[z] is {z}, the b-closure of A is A cut to the
carrier, so A is b-closed iff it has no bit outside it.  The flag costs
one pass over the points, once per space, and the equalizer sweeps ask
is_b_closed once per pair of maps on the same few spaces.  It lives in
a slot of FiniteSpace, outside its compared fields, None until
is_b_closed first computes it and stores it with object.__setattr__
(plain assignment raises).  A slot, not a functools.cached_property:
that would need an instance dict, and on CPython 3.11 a filled
instance dict makes every later attribute read on the space about 3x
slower.  b_closure does not read it: its callers close one set of a
space once, as sobrify_bclosure does on a Sierpinski power of up to
4096 points, where the pass would cost more than the O(|A|) loop it
replaces.  When the flag is false (an up/down pair that is no partial
order) is_b_closed falls back to b_closure.
"""

from __future__ import annotations

from .finite_space import (
    FiniteSpace,
    PointSet,
    all_opens,
    from_order,
    iter_bits,
)


def b_basic_opens(space: FiniteSpace) -> tuple[PointSet, ...]:
    """The generating base {U n cl({x}) : x in U}, deduplicated."""
    base = set()
    for u in all_opens(space):
        for x in iter_bits(u):
            base.add(u & space.down[x])
    base.discard(0)
    return tuple(sorted(base))


def b_closure(space: FiniteSpace, a: PointSet) -> PointSet:
    """The union of up[z] & down[z] over the points z of A; bits of a
    outside the carrier are ignored."""
    up, down = space.up, space.down
    a &= (1 << space.n) - 1
    out = 0
    while a:
        low = a & -a
        z = low.bit_length() - 1
        out |= up[z] & down[z]
        a ^= low
    return out


def is_b_closed(space: FiniteSpace, a: PointSet) -> bool:
    """Whether A is its own b-closure; bits outside the carrier make it
    not b-closed."""
    discrete = space.b_discrete
    if discrete is None:
        discrete = all(u & d == 1 << z for z, (u, d) in enumerate(zip(space.up, space.down)))
        object.__setattr__(space, "b_discrete", discrete)
    if discrete:
        return a >> space.n == 0
    return b_closure(space, a) == a


def b_space(space: FiniteSpace) -> FiniteSpace:
    """The space bX carried by X with the b-topology as its topology:
    by the lemma, y is above x in bX iff y lies in up[x] & down[x]."""
    return from_order(space.n, [
        (x, y) for x in range(space.n) for y in iter_bits(space.up[x] & space.down[x])
    ])

