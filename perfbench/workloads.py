"""The four workloads: inputs made from a seed, operations, output checks.

An operation is one top-level call into t0kit, timed on its own; one
caller keeps one operation in flight (a closed loop).  Each workload is a
function ``(rng, session)`` that builds its inputs from ``rng`` before
the timed phase and then drives every operation through ``session.op``.
Checks look only at verdicts, counts and exit codes, never at method
tags, details or timings, which cheaper tiers may legitimately change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import tempfile
from time import perf_counter

from t0kit import b_topology, cli as t0cli, constructions, enumeration, properties
from t0kit import reflection_lab
from t0kit.errors import T0KitError
from t0kit.finite_space import FiniteSpace, antichain, chain, from_order

# Functions are looked up on their modules at call time, so that the
# traced run sees these calls through its wrappers.
CHECKERS = ["is_sober", "is_co_sober", "is_strong_d", "is_k_bounded_sober",
            "is_open_well_filtered"]
SPACE_COUNTS = (1, 2, 5, 16, 63, 318)  # T0 spaces up to homeomorphism, sizes 1..6


class Session:
    """Times operations and tallies failures for one repetition."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.latencies: list[float] = []
        self.failed = 0  # operations refused or answered wrongly
        self.refused: list[str] = []
        self.wrong: list[str] = []
        self.started = 0.0
        self.wall_s = 0.0

    def start(self) -> None:
        """End of input building: empty the memo caches that input
        building may have filled, then start the wall clock."""
        from t0kit import finite_space

        for cached in (finite_space.all_opens, enumeration.all_spaces,
                       enumeration.continuous_maps_list):
            cached.cache_clear()
        if self.tracer is not None:
            self.tracer.install()
        self.started = perf_counter()

    def stop(self) -> None:
        self.wall_s = perf_counter() - self.started

    def op(self, label: str, fn, *args, check=None):
        """Run one operation.  A T0KitError (CapExceeded included) is a
        refusal; a check returning a message is a wrong output.  Both
        count as failed; only a wrong output makes the run incorrect."""
        if self.tracer is not None:
            self.tracer.root(label)
        t0 = perf_counter()
        try:
            result = fn(*args)
        except T0KitError as exc:
            self.latencies.append(perf_counter() - t0)
            self.failed += 1
            self.refused.append(f"{label}: {exc}")
            return None
        self.latencies.append(perf_counter() - t0)
        problem = check(result) if check is not None else None
        if problem:
            self.failed += 1
            self.wrong.append(f"{label}: {problem}")
            return None
        return result

    def expect(self, ok: bool, message: str) -> None:
        """A check on the workload as a whole, not on one operation."""
        if not ok:
            self.wrong.append(message)


# ----- input generation (untimed) -----


def permute(space: FiniteSpace, perm: list[int]) -> FiniteSpace:
    """The same space with point x renamed perm[x]."""
    up = [0] * space.n
    down = [0] * space.n
    for x in range(space.n):
        for y in range(space.n):
            if space.leq(x, y):
                up[perm[x]] |= 1 << perm[y]
                down[perm[y]] |= 1 << perm[x]
    return FiniteSpace(space.n, tuple(up), tuple(down))


def shuffled(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def opens_count(space: FiniteSpace) -> int:
    """Number of up-sets, by splitting on a point x: the up-sets without x
    are those of the rest minus everything below x, and those with x are
    up(x) plus an up-set of the rest minus up(x)."""
    memo = {0: 1}

    def count(rest: int) -> int:
        if rest not in memo:
            x = (rest & -rest).bit_length() - 1
            memo[rest] = count(rest & ~space.down[x]) + count(rest & ~space.up[x])
        return memo[rest]

    return count(space.full)


def random_poset(rng: random.Random, n: int, p: float) -> FiniteSpace:
    """Random order: each pair of a shuffled line is related with prob p,
    then closed transitively."""
    line = list(range(n))
    rng.shuffle(line)
    up = [1 << x for x in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if rng.random() < p:
                up[line[i]] |= up[line[j]]
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y and (up[x] >> y) & 1]
    return from_order(n, pairs)


def directed_count(space: FiniteSpace) -> int:
    """Nonempty directed subsets: a finite one has a greatest element x,
    and any subset of the points below x may join it."""
    return sum(1 << (space.down[x].bit_count() - 1) for x in range(space.n))


def verdict(checker: str, space: FiniteSpace) -> dict:
    """One checker's report tree, as `t0kit check` shows it (caps included)."""
    return getattr(properties, checker)(space).as_tree()


def _holds(tree: dict) -> str | None:
    return None if tree["holds"] else f"{tree['property']} does not hold"


def _same_order(space: FiniteSpace, image: FiniteSpace, table) -> bool:
    if image.n != space.n or sorted(table) != list(range(space.n)):
        return False
    return all(space.leq(x, y) == image.leq(table[x], table[y])
               for x in range(space.n) for y in range(space.n))


# ----- shapes -----

# Worst shapes inside the default caps at sizes where every checker ends
# in about a second: the 2^n directed-subset scan peaks on chains and on
# the top cone, the cubic structural OWF tier on antichains and cones.
SHAPE_SIZES = {"chain": 11, "antichain": 8, "top_cone": 8, "bottom_cone": 8}
# Random posets are drawn once, from a fixed generator seed, within a
# band of opens and of directed sets times opens (the strong-d scan's
# work); --seed relabels them like the worst shapes.  Drawn afresh per
# seed, even banded, they moved the median and tail latency by a quarter
# to a half from seed to seed, more than any change to the program would.
RANDOM_SIZES = (9, 10, 11, 12)
RANDOM_DRAW = "shapes random posets"
OPENS_BAND = (40, 120)
WORK_BAND = (6000, 12000)


def top_cone(k: int) -> FiniteSpace:
    """An antichain of k - 1 points under one top."""
    return from_order(k, [(i, k - 1) for i in range(k - 1)])


def bottom_cone(k: int) -> FiniteSpace:
    """An antichain of k - 1 points over one bottom."""
    return from_order(k, [(0, i) for i in range(1, k)])


def shapes(rng: random.Random, s: Session) -> None:
    makers = {"chain": chain, "antichain": antichain,
              "top_cone": top_cone, "bottom_cone": bottom_cone}
    spaces = [(name, makers[name](k)) for name, k in SHAPE_SIZES.items()]
    draw = random.Random(RANDOM_DRAW)
    for n in RANDOM_SIZES:
        while True:
            sp = random_poset(draw, n, draw.uniform(0.15, 0.35))
            opens = opens_count(sp)
            if (OPENS_BAND[0] <= opens <= OPENS_BAND[1]
                    and WORK_BAND[0] <= directed_count(sp) * opens <= WORK_BAND[1]):
                break
        spaces.append((f"random{n}", sp))
    spaces = [(name, permute(sp, shuffled(rng, sp.n))) for name, sp in spaces]
    s.start()
    for name, sp in spaces:
        for checker in CHECKERS:
            s.op(f"{checker}:{name}", verdict, checker, sp, check=_holds)


# ----- sweep -----

SOBRIFY_OPENS = 12  # both routes on spaces with at most this many opens
SOBRIFY_SPACES = 139


def sweep(rng: random.Random, s: Session) -> None:
    perms = [shuffled(rng, k) for k, count in enumerate(SPACE_COUNTS, start=1)
             for _ in range(count)]
    s.start()
    spaces: list[FiniteSpace] = []
    for k, count in enumerate(SPACE_COUNTS, start=1):
        got = s.op("all_spaces", enumeration.all_spaces, k, check=lambda r: None if (
            len(r) == count) else f"{len(r)} spaces, expected {count}")
        spaces += got or []
    s.expect(len(spaces) == sum(SPACE_COUNTS), f"sweep saw {len(spaces)} spaces")
    sobrified = 0
    for canon, perm in zip(spaces, perms):
        sp = permute(canon, perm)
        for checker in CHECKERS:
            s.op(checker, verdict, checker, sp, check=_holds)
        s.op("b_space", b_topology.b_space, sp, check=lambda bx: None if all(
            bx.up[x] == 1 << x for x in range(bx.n)) else "b-space is not discrete")
        s.op("canonical_form", enumeration.canonical_form, sp, check=lambda f: None if (
            f.key == canon.up) else "canonical form differs from the enumerated class")
        if opens_count(sp) > SOBRIFY_OPENS:
            continue
        sobrified += 1
        for route in ("sobrify_irr", "sobrify_bclosure"):
            s.op(route, getattr(reflection_lab, route), sp, check=lambda r: None if (
                _same_order(sp, r.space, r.unit.table)) else "unit is not a homeomorphism")
    s.expect(sobrified == SOBRIFY_SPACES,
             f"sobrified {sobrified} spaces, expected {SOBRIFY_SPACES}")


# ----- maps -----

INCLUSIONS = 282
FACTORIZATIONS = 19702
MAP_PAIRS = 978191
# Registry classes whose reflection is known: a member reflects to
# itself, and the discrete (t1) reflection has one point per component.
REFLECT_CLASSES = ("sober", "co_sober", "strong_d", "k_bounded_sober",
                   "open_well_filtered", "all_t0", "t1")


def _components(space: FiniteSpace) -> int:
    seen = 0
    count = 0
    for x in range(space.n):
        if (seen >> x) & 1:
            continue
        count += 1
        frontier = [x]
        seen |= 1 << x
        while frontier:
            y = frontier.pop()
            nbrs = (space.up[y] | space.down[y]) & ~seen
            seen |= nbrs
            frontier += [z for z in range(space.n) if (nbrs >> z) & 1]
    return count


def maps(rng: random.Random, s: Session) -> None:
    small = [permute(sp, shuffled(rng, k)) for k in range(1, 5)
             for sp in enumeration.all_spaces(k)]
    # One connected 3-point space for every class: the discrete one costs
    # eight times as much and would make the tail depend on the seed.
    target = rng.choice([z for z in small if z.n == 3 and _components(z) == 1])
    sober = reflection_lab.REGISTRY["sober"]
    s.start()

    # Criterion-6 core: every subspace inclusion is its own sober
    # reflection, and maps into sober spaces factor through it uniquely.
    def inclusion(z, mask):
        sub = constructions.subspace(z, mask).space
        return (reflection_lab.k_closure(z, mask, sober),
                enumeration.canonical_form(sub).key, sub)

    inclusions = 0
    classes: dict = {}
    for z in small:
        for mask in range(1, z.full + 1):
            inclusions += 1
            got = s.op("k_closure", inclusion, z, mask, check=lambda r: None if (
                r[0] == mask) else "k-closure is not the set itself")
            if got:
                classes.setdefault(got[1], got[2])
    s.expect(inclusions == INCLUSIONS, f"{inclusions} inclusions, expected {INCLUSIONS}")
    factorizations = 0
    for sp in classes.values():
        eta = constructions.space_map(sp, sp, tuple(range(sp.n)))
        chk = s.op("is_reflection", reflection_lab.is_reflection, eta, sober, 4,
                   check=lambda c: None if c.holds and c.verified_objects > 0
                   else "not a reflection")
        factorizations += chk.verified_objects if chk else 0
    s.expect(factorizations == FACTORIZATIONS,
             f"{factorizations} factorizations, expected {FACTORIZATIONS}")

    # Criterion-3 core: the equalizer of every parallel pair is b-closed.
    def equalizers(x, y):
        maps_xy = enumeration.continuous_maps_list(x, y)
        bad = 0
        for i, f in enumerate(maps_xy):
            for g in maps_xy[i:]:
                if not b_topology.is_b_closed(x, constructions.equalizer(f, g)):
                    bad += 1
        return len(maps_xy) * (len(maps_xy) + 1) // 2, bad

    pairs = 0
    for x in small:
        for y in small:
            got = s.op("equalizers", equalizers, x, y, check=lambda r: None if (
                r[1] == 0) else f"{r[1]} equalizers not b-closed")
            pairs += got[0] if got else 0
    s.expect(pairs == MAP_PAIRS, f"{pairs} map pairs, expected {MAP_PAIRS}")

    for name in REFLECT_CLASSES:
        want = 1 if name == "t1" else target.n
        s.op(f"construct_reflection:{name}", reflection_lab.construct_reflection,
             target, reflection_lab.REGISTRY[name],
             check=lambda r: None if r.found and r.space.n == want
             else "reflection not found or of the wrong size")


# ----- cli -----

# Fixed shapes, relabelled and renamed by the seed, so that the seed does
# not change how much work a command does.  Antichains are discrete: there
# `check --property all` exits 0, elsewhere t1 fails and it exits 1.
CLI_SPACES = [(maker, n) for n in (3, 4, 5, 6) for maker in ("chain", "antichain", "cone")]
# reflect compares every pair of maps into each space of <= 4 points;
# on a 4-point antichain that alone takes seconds.
REFLECT_MAX = 3
# The b-closure route builds a Sierpinski power of 2^(opens - 1) points;
# sweep covers the large powers, here they would only add seed noise.
CLI_BCLOSURE_OPENS = 8
ENUM_WHERE = ["sober", "cosober", "strongd", "kbsober", "owf"]


def _space_text(name: str, names: list[str], space: FiniteSpace) -> str:
    lines = [f"space {name}", "points " + " ".join(names)]
    for x in range(space.n):
        for y in range(space.n):
            if x != y and space.leq(x, y):
                lines.append(f"le {names[x]} {names[y]}")
    return "\n".join(lines) + "\n"


def _points_line(text: str) -> int:
    for line in text.splitlines():
        if line.startswith("points"):
            return len(line.split()) - 1
    return -1


def _exit(code: int):
    return lambda r: None if r[0] == code else f"exit code {r[0]}, expected {code}"


def cli(rng: random.Random, s: Session, workdir: str) -> None:
    makers = {"chain": chain, "antichain": antichain,
              "cone": lambda n: top_cone(n) if n % 2 else bottom_cone(n)}
    files = []
    for i, (maker, n) in enumerate(CLI_SPACES):
        sp = permute(makers[maker](n), shuffled(rng, n))
        names = [f"{chr(97 + x)}{i}" for x in range(n)]
        path = os.path.join(workdir, f"s{i}.space")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_space_text(f"S{i}", names, sp))
        files.append((path, sp, rng.sample(names, rng.randint(1, n))))
    where = ENUM_WHERE[:]
    rng.shuffle(where)
    s.start()

    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = t0cli.main(list(argv))
        return code, out.getvalue()

    def json_check(code, test):
        def check(r):
            if r[0] != code:
                return f"exit code {r[0]}, expected {code}"
            return test(json.loads(r[1]))
        return check

    def document_check(points, problem):
        """Exit 0 and a printed space document with that many points."""
        def check(r):
            if r[0] != 0:
                return f"exit code {r[0]}, expected 0"
            return None if _points_line(r[1]) == points else problem
        return check

    for path, sp, chosen in files:
        discrete = all(sp.up[x] == 1 << x for x in range(sp.n))
        verdicts = {"sober": True, "cosober": True, "strongd": True, "kbsober": True,
                    "owf": True, "t0": True, "t1": discrete}
        s.op("check:text", run, "check", path, "--property", "all",
             check=_exit(0 if discrete else 1))
        s.op("check:json", run, "check", path, "--property", "all", "--format", "json",
             check=json_check(0 if discrete else 1, lambda t: None if {
                 k: v["holds"] for k, v in t["properties"].items()} == verdicts
                 else "wrong verdicts"))
        same_size = document_check(sp.n, "sobrification changed the size")
        s.op("construct:sobrify", run, "construct", "sobrify", path, check=same_size)
        if opens_count(sp) <= CLI_BCLOSURE_OPENS:
            s.op("construct:sobrify_bclosure", run, "construct", "sobrify", path,
                 "--route", "bclosure", check=same_size)
        s.op("construct:subspace", run, "construct", "subspace", path,
             "--points", ",".join(chosen),
             check=document_check(len(chosen), "wrong subspace size"))
        s.op("construct:bclosure", run, "construct", "bclosure", path,
             "--points", ",".join(chosen), "--format", "json",
             check=json_check(0, lambda t: None if (
                 sorted(t["b_closure"]) == sorted(chosen) and t["is_b_closed"])
                 else "finite subsets are b-closed"))
        if sp.n <= REFLECT_MAX:
            s.op("construct:reflect", run, "construct", "reflect", path,
                 "--class", "sober", "--format", "json",
                 check=json_check(0, lambda t: None if t["found"] else "no reflection"))
        s.op("export:dot", run, "export", path, "--dot", check=_exit(0))
    for (p1, a, _), (p2, b, _) in zip(files, files[1:]):
        s.op("construct:product", run, "construct", "product", p1, p2,
             check=document_check(a.n * b.n, "wrong product size"))
    s.op("corpus:run", run, "corpus", "run", "--format", "json",
         check=json_check(0, lambda t: None if t["matched"] == t["total"] > 0
                          else "corpus mismatch"))
    s.op("enumerate", run, "enumerate", "--size", "6", "--where",
         " & ".join(where) + " & !t1", "--format", "json",
         check=json_check(0, lambda t: None if (t["total"], t["matched"]) == (318, 317)
                          else "wrong enumeration counts"))


def run_workload(name: str, rng: random.Random, s: Session, root: str) -> None:
    if name == "cli":
        os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(root, ".perfbench")) as workdir:
            cli(rng, s, workdir)
            s.stop()
    else:
        WORKLOADS[name](rng, s)
        s.stop()


WORKLOADS = {"shapes": shapes, "sweep": sweep, "maps": maps, "cli": cli}
