"""Command-line front end.

Subcommands: `check` runs property checkers over a space file,
`construct` builds new spaces (product, subspace, sobrification,
b-closure, reflection), `corpus` replays the infinite-space
certificates against golden expectations, `enumerate` filters the small
spaces by a boolean property expression, and `export` draws a space as
a DOT diagram.  Exit codes: 0 success/Holds, 1 Refuted or expectation
mismatch, 2 toolkit error, 3 cap exceeded, 64 usage error (a `--where`
whose parentheses nest deeper than WHERE_DEPTH included).

`main(argv)` may be called any number of times in one process: the
parser is built on the first call, not at import, and shared after.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from typing import Any

from .b_topology import b_closure, is_b_closed
from .constructions import product, subspace
from .enumeration import all_spaces
from .errors import BadParams, CapExceeded, InternalError, T0KitError, UsageError
from .finite_space import FiniteSpace, mask_of, points_of
from .properties import CHECKERS
from .reflection_lab import (
    REGISTRY,
    construct_reflection,
    sobrify_bclosure,
    sobrify_irr,
)
from .report import cover_pairs, render_dot, render_json, render_text
from .spacefile import SpaceDoc, parse_document, print_space
from .symbolic.corpus import run_corpus

# ----- properties exposed on the command line -----

# properties.CHECKERS under the CLI names: four canonical names get short
# aliases, the other three are kept.
_ALIASES = {"co_sober": "cosober", "strong_d": "strongd",
            "k_bounded_sober": "kbsober", "open_well_filtered": "owf"}
PROPERTIES = {_ALIASES.get(name, name): check for name, check in CHECKERS.items()}


# ----- plumbing -----


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map to 64
        raise UsageError(message)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {path}: not UTF-8 at byte {exc.start}") from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise UsageError(f"cannot read {path}: {exc}") from None


def _first_space(path: str) -> SpaceDoc:
    return parse_document(_read(path)).first_space()


def _emit(fmt: str, tree: dict[str, Any]) -> None:
    print(render_json(tree) if fmt == "json" else render_text(tree))


def _emit_document(fmt: str, tree: dict[str, Any], text: str) -> None:
    """A constructed .space document: bare in text, inside tree in JSON."""
    if fmt == "json":
        _emit("json", {**tree, "document": text})
    else:
        print(text, end="")


def _names_to_mask(doc: SpaceDoc, csv: str) -> int:
    names = [w.strip() for w in csv.split(",") if w.strip()]
    if not names:
        raise UsageError("--points needs at least one name")
    for w in names:
        if w not in doc.point_names:
            raise BadParams(f"{w} is not a point of {doc.name}")
    return mask_of(doc.index(w) for w in names)


# ----- check -----


def cmd_check(args) -> int:
    doc = _first_space(args.file)
    wanted = list(PROPERTIES) if args.property == "all" else [args.property]
    reports = {name: PROPERTIES[name](doc.space) for name in wanted}
    tree = {
        "command": "check",
        "file": args.file,
        "space": doc.name,
        "points": list(doc.point_names),
        "properties": {name: rep.as_tree() for name, rep in reports.items()},
    }
    _emit(args.format, tree)
    return 0 if all(rep.holds for rep in reports.values()) else 1


# ----- construct -----


def _named_doc_text(name: str, space: FiniteSpace, names: list[str],
                    comments: list[str]) -> str:
    if len(set(names)) != len(names):  # joined labels may collide
        comments = comments + [f"{f'p{i}'} = {n}" for i, n in enumerate(names)]
        names = [f"p{i}" for i in range(space.n)]
    return print_space(name, space, names, comments=comments)


def cmd_construct_product(args) -> int:
    a = _first_space(args.file)
    b = _first_space(args.file2)
    pr = product([a.space, b.space])
    names = [
        f"{a.point_names[i]}_{b.point_names[j]}"
        for i, j in (pr.coords(k) for k in range(pr.space.n))
    ]
    text = _named_doc_text(
        f"{a.name}_x_{b.name}", pr.space, names,
        [f"product of {a.name} ({a.space.n} points) and {b.name} ({b.space.n} points)"],
    )
    _emit_document(args.format, {
        "command": "construct product",
        "factors": [a.name, b.name],
        "points": pr.space.n,
    }, text)
    return 0


def cmd_construct_subspace(args) -> int:
    doc = _first_space(args.file)
    mask = _names_to_mask(doc, args.points)
    sub = subspace(doc.space, mask)
    names = [doc.point_names[p] for p in sub.points]
    text = print_space(
        f"{doc.name}_sub", sub.space, names,
        comments=[f"subspace of {doc.name} on {', '.join(names)}"],
    )
    _emit_document(args.format, {
        "command": "construct subspace",
        "ambient": doc.name,
        "points": names,
    }, text)
    return 0


def cmd_construct_sobrify(args) -> int:
    doc = _first_space(args.file)
    res = sobrify_irr(doc.space) if args.route == "irr" else sobrify_bclosure(doc.space)
    names = [f"q{i}" for i in range(res.space.n)]
    comments = [f"sobrification of {doc.name} via {res.route}"]
    comments += [
        f"unit: {doc.point_names[x]} -> q{res.unit.table[x]}"
        for x in range(doc.space.n)
    ]
    text = print_space(f"{doc.name}_sober", res.space, names, comments=comments)
    _emit_document(args.format, {
        "command": "construct sobrify",
        "route": res.route,
        "unit": {doc.point_names[x]: f"q{res.unit.table[x]}"
                 for x in range(doc.space.n)},
        "details": dict(res.details),
    }, text)
    return 0


def cmd_construct_bclosure(args) -> int:
    doc = _first_space(args.file)
    mask = _names_to_mask(doc, args.points)
    cl = b_closure(doc.space, mask)
    tree = {
        "command": "construct bclosure",
        "space": doc.name,
        "subset": [doc.point_names[p] for p in points_of(mask)],
        "b_closure": [doc.point_names[p] for p in points_of(cl)],
        "is_b_closed": is_b_closed(doc.space, mask),
    }
    _emit(args.format, tree)
    return 0


def cmd_construct_reflect(args) -> int:
    doc = _first_space(args.file)
    res = construct_reflection(doc.space, REGISTRY[args.class_name])
    tree: dict[str, Any] = {
        "command": "construct reflect",
        "space": doc.name,
        "class": args.class_name,
        "found": res.found,
        "route": res.route,
    }
    if res.found:
        tree["unit"] = {
            doc.point_names[x]: f"q{res.unit.table[x]}"
            for x in range(doc.space.n)
        }
        tree["universal_property"] = {
            "holds": res.check.holds,
            "verified_factorizations": res.check.verified_objects,
            "test_bound": res.check.test_bound,
        }
        tree["document"] = print_space(
            f"{doc.name}_reflected", res.space,
            [f"q{i}" for i in range(res.space.n)],
            comments=[f"reflection of {doc.name} into class {args.class_name}"],
        )
    else:
        tree["details"] = dict(res.details)
    _emit(args.format, tree)
    return 0 if res.found else 1


# ----- corpus -----


def cmd_corpus(args) -> int:
    rows = run_corpus(args.bound)
    matched = sum(1 for r in rows if r["match"])
    total_secs = round(sum(r["seconds"] for r in rows), 3)
    if args.format == "json":
        _emit("json", {
            "command": "corpus run",
            "bound": args.bound,
            "matched": matched,
            "total": len(rows),
            "seconds": total_secs,
            "rows": rows,
        })
    else:
        for r in rows:
            mark = "ok      " if r["match"] else "MISMATCH"
            print(f"{mark} {r['check']}: {r['verdict']} "
                  f"(expected {r['expected']}) [{r['seconds']}s]")
            witness = r["report"].get("witness")
            if witness or not r["match"]:
                block = render_text({"witness": witness or r["report"]})
                print("\n".join("  " + line for line in block.splitlines()))
        print(f"corpus: {matched} of {len(rows)} matched in {total_secs}s")
    return 0 if matched == len(rows) else 1


# ----- enumerate -----


# Parentheses may nest this deep in --where; deeper is a usage error, so
# that parsing and evaluating, which recurse once per level, stay far
# inside Python's recursion limit.
WHERE_DEPTH = 100


def _parse_where(expr: str):
    """A tree of ("id", name), ("not", node), ("and", nodes), ("or", nodes).

    Chains of & and | are n-ary nodes and runs of ! fold into at most one
    "not", so neither recurses per operator; only parentheses do."""
    tokens = re.findall(r"[A-Za-z_][A-Za-z0-9_]*|[!&|()]|\S", expr)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def bad(tok):
        where = "end of expression" if tok is None else f"token {tok!r}"
        return UsageError(f"bad --where expression at {where}")

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise bad(tok)
        pos += 1
        return tok

    def atom(depth):
        negated = False
        while peek() == "!":
            take()
            negated = not negated
        tok = peek()
        if tok == "(":
            if depth == WHERE_DEPTH:
                raise UsageError(f"--where nests parentheses deeper than {WHERE_DEPTH}")
            take()
            node = disjunction(depth + 1)
            take(")")
        elif tok is None or not re.match(r"^[A-Za-z_]", tok):
            raise bad(tok)
        else:
            take()
            if tok not in PROPERTIES:
                raise UsageError(
                    f"unknown property {tok!r}; choose from {', '.join(PROPERTIES)}"
                )
            node = ("id", tok)
        return ("not", node) if negated else node

    def conjunction(depth):
        nodes = [atom(depth)]
        while peek() == "&":
            take()
            nodes.append(atom(depth))
        return nodes[0] if len(nodes) == 1 else ("and", nodes)

    def disjunction(depth):
        nodes = [conjunction(depth)]
        while peek() == "|":
            take()
            nodes.append(conjunction(depth))
        return nodes[0] if len(nodes) == 1 else ("or", nodes)

    node = disjunction(0)
    if pos != len(tokens):
        raise bad(peek())
    return node


def _eval_where(node, space: FiniteSpace, memo: dict[str, bool]) -> bool:
    """Left to right, short-circuit, each property checked once per space."""
    kind = node[0]
    if kind == "id":
        name = node[1]
        if name not in memo:
            memo[name] = PROPERTIES[name](space).holds
        return memo[name]
    if kind == "not":
        return not _eval_where(node[1], space, memo)
    decisive = kind == "or"  # the child value that settles the chain
    for child in node[1]:
        if _eval_where(child, space, memo) == decisive:
            return decisive
    return not decisive


def cmd_enumerate(args) -> int:
    node = _parse_where(args.where) if args.where else None
    spaces = all_spaces(args.size)
    matches = []
    for i, sp in enumerate(spaces):
        if node is not None and not _eval_where(node, sp, {}):
            continue
        matches.append({
            "index": i,
            "points": sp.n,
            "cover": [f"x{x} < x{y}" for x, y in sorted(cover_pairs(sp))],
        })
    _emit(args.format, {
        "command": "enumerate",
        "size": args.size,
        "where": args.where or "(none)",
        "total": len(spaces),
        "matched": len(matches),
        "spaces": matches,
    })
    return 0


# ----- export -----


def cmd_export(args) -> int:
    doc = _first_space(args.file)
    print(render_dot(doc.space, list(doc.point_names), graph_name=doc.name))
    return 0


# ----- parser -----


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built on the first call and shared after.

    It holds only module constants (property names, registry classes and
    the cmd_* handlers); every cap is checked by the commands at call
    time, so no cap decision is cached with it."""
    fmt = _Parser(add_help=False)
    fmt.add_argument("--format", choices=["text", "json"], default="text",
                     help="report syntax (default text)")

    parser = _Parser(prog="t0kit",
                     description="Finite T0 spaces: property checks, "
                                 "constructions, and exact certificates.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_check = subs.add_parser("check", parents=[fmt],
                              help="run property checkers over a space file")
    p_check.add_argument("file")
    p_check.add_argument("--property", default="all",
                         choices=[*PROPERTIES, "all"])
    p_check.set_defaults(func=cmd_check)

    p_con = subs.add_parser("construct", help="build a new space")
    con_subs = p_con.add_subparsers(dest="construction", required=True)

    c = con_subs.add_parser("product", parents=[fmt])
    c.add_argument("file")
    c.add_argument("file2")
    c.set_defaults(func=cmd_construct_product)

    c = con_subs.add_parser("subspace", parents=[fmt])
    c.add_argument("file")
    c.add_argument("--points", required=True,
                   help="comma-separated point names")
    c.set_defaults(func=cmd_construct_subspace)

    c = con_subs.add_parser("sobrify", parents=[fmt])
    c.add_argument("file")
    c.add_argument("--route", choices=["irr", "bclosure"], default="irr")
    c.set_defaults(func=cmd_construct_sobrify)

    c = con_subs.add_parser("bclosure", parents=[fmt])
    c.add_argument("file")
    c.add_argument("--points", required=True,
                   help="comma-separated point names")
    c.set_defaults(func=cmd_construct_bclosure)

    c = con_subs.add_parser("reflect", parents=[fmt])
    c.add_argument("file")
    c.add_argument("--class", dest="class_name", required=True,
                   choices=sorted(REGISTRY))
    c.set_defaults(func=cmd_construct_reflect)

    p_corpus = subs.add_parser("corpus", parents=[fmt],
                               help="replay the certificate corpus")
    p_corpus.add_argument("action", choices=["run"])
    p_corpus.add_argument("--bound", type=int, default=30)
    p_corpus.set_defaults(func=cmd_corpus)

    p_enum = subs.add_parser("enumerate", parents=[fmt],
                             help="filter small spaces by properties")
    p_enum.add_argument("--size", type=int, required=True)
    p_enum.add_argument("--where",
                        help="boolean expression over property names "
                             "with !, &, | and parentheses")
    p_enum.set_defaults(func=cmd_enumerate)

    p_export = subs.add_parser("export", help="draw a space as DOT")
    p_export.add_argument("file")
    p_export.add_argument("--dot", action="store_true", required=True,
                          help="emit a DOT Hasse diagram")
    p_export.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 70  # EX_SOFTWARE in sysexits.h
    except T0KitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
