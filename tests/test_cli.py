"""Command-line behavior: reports, exit codes, golden outputs."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t0kit import cli
from t0kit.cli import PROPERTIES, WHERE_DEPTH, main
from t0kit.constructions import find_homeomorphism, product
from t0kit.finite_space import chain, sigma2
from t0kit.reflection_lab import REGISTRY
from t0kit.spacefile import parse_space

SIGMA2 = "space S\npoints a b\nle a b\n"
CHAIN3 = "space C3\npoints p q r\nle p q\nle q r\n"


@pytest.fixture
def sigma2_file(tmp_path):
    f = tmp_path / "sigma2.space"
    f.write_text(SIGMA2)
    return str(f)


@pytest.fixture
def chain3_file(tmp_path):
    f = tmp_path / "c3.space"
    f.write_text(CHAIN3)
    return str(f)


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def test_check_all_seven_properties(capsys, sigma2_file):
    code, tree = run_json(capsys, ["check", sigma2_file])
    # every property holds except t1, and that drives the exit code
    assert code == 1
    props = tree["properties"]
    assert sorted(props) == sorted(
        ["sober", "cosober", "strongd", "kbsober", "owf", "t0", "t1"]
    )
    assert all(props[p]["holds"] for p in props if p != "t1")
    assert props["t1"]["holds"] is False
    assert props["t1"]["witness"]["comparable_pair"] == [0, 1]
    assert props["sober"]["caps"]["carrier_cap"] >= 1  # caps echoed
    assert set(props["sober"]["caps"]) == {
        "carrier_cap", "product_cap", "owf_opens_cap",
        "enum_cap", "maps_cap", "truncate_cap",
    }
    # JSON sorts keys; the text report keeps the CLI's property order
    assert main(["check", sigma2_file]) == 1
    lines = capsys.readouterr().out.splitlines()
    below = lines[lines.index("properties:") + 1:]
    assert [ln[2:-1] for ln in below if re.fullmatch(r"  \w+:", ln)] == [
        "sober", "cosober", "strongd", "kbsober", "owf", "t0", "t1"
    ]


def test_check_single_property_exit_zero(capsys, sigma2_file):
    code, tree = run_json(capsys, ["check", sigma2_file, "--property", "sober"])
    assert code == 0
    assert list(tree["properties"]) == ["sober"]


def test_check_text_format(capsys, sigma2_file):
    assert main(["check", sigma2_file, "--property", "t0"]) == 0
    out = capsys.readouterr().out
    assert "space: S" in out and "holds: True" in out


def test_construct_product_document_parses(capsys, sigma2_file, chain3_file):
    assert main(["construct", "product", sigma2_file, chain3_file]) == 0
    text = capsys.readouterr().out
    doc = parse_space(text)
    assert doc.space.n == 6
    expected = product([sigma2(), chain(3)]).space
    assert find_homeomorphism(doc.space, expected) is not None
    assert "a_p" in doc.point_names


def test_construct_product_renames_colliding_labels(capsys, tmp_path):
    # a x b_c and a_b x c both join to a_b_c, so every point is renamed
    # p<i> and a comment keeps each joined label
    a, b = tmp_path / "a.space", tmp_path / "b.space"
    a.write_text("space A\npoints a a_b\nle a a_b\n")
    b.write_text("space B\npoints b_c c\n")
    assert main(["construct", "product", str(a), str(b)]) == 0
    text = capsys.readouterr().out
    labels = ["a_b_c", "a_c", "a_b_b_c", "a_b_c"]
    for i, label in enumerate(labels):
        assert f"# p{i} = {label}\n" in text
    doc = parse_space(text)
    assert doc.point_names == ("p0", "p1", "p2", "p3")
    assert doc.space.n == 4


def test_construct_subspace(capsys, chain3_file):
    assert main(["construct", "subspace", chain3_file, "--points", "q,r"]) == 0
    doc = parse_space(capsys.readouterr().out)
    assert doc.point_names == ("q", "r")
    assert find_homeomorphism(doc.space, sigma2()) is not None


def test_construct_sobrify_routes(capsys, chain3_file):
    code, tree = run_json(capsys, ["construct", "sobrify", chain3_file])
    assert code == 0
    assert tree["route"] == "irreducible-closed-sets"
    doc = parse_space(tree["document"])
    assert find_homeomorphism(doc.space, chain(3)) is not None  # already sober
    code2, tree2 = run_json(
        capsys, ["construct", "sobrify", chain3_file, "--route", "bclosure"]
    )
    assert code2 == 0
    doc2 = parse_space(tree2["document"])
    assert find_homeomorphism(doc2.space, chain(3)) is not None


@pytest.mark.parametrize("le_e_d, code", [(True, 0), (False, 3)])
def test_sobrify_bclosure_exit_code_at_the_product_cap(capsys, tmp_path, le_e_d, code):
    # e below a b c d and d below c: 12 nonempty opens, a 4096-point power;
    # without e below d there are 13 and the power would have 8192 points
    f = tmp_path / "f.space"
    f.write_text("space F\npoints a b c d e\nle e a\nle e b\nle e c\n"
                 + ("le e d\n" if le_e_d else "") + "le d c\n")
    assert main(["construct", "sobrify", str(f), "--route", "bclosure"]) == code
    err = capsys.readouterr().err
    assert ("product carrier size: 8192 exceeds cap 4096" in err) == (code == 3)


def test_construct_bclosure(capsys, chain3_file):
    code, tree = run_json(
        capsys, ["construct", "bclosure", chain3_file, "--points", "p,r"]
    )
    assert code == 0
    assert tree["b_closure"] == ["p", "r"]  # chain pairs are b-closed
    assert tree["is_b_closed"] is True


def test_construct_reflect_found(capsys, chain3_file):
    code, tree = run_json(
        capsys, ["construct", "reflect", chain3_file, "--class", "sober"]
    )
    assert code == 0
    assert tree["found"] is True and tree["route"] == "identity"
    assert tree["universal_property"]["holds"] is True


def test_construct_reflect_not_found(capsys, chain3_file):
    # no best two-point approximation of a three-chain exists
    code, tree = run_json(
        capsys,
        ["construct", "reflect", chain3_file, "--class", "at_most_two_points"],
    )
    assert code == 1
    assert tree["found"] is False


def test_corpus_run_matches_goldens(capsys):
    code, tree = run_json(capsys, ["corpus", "run", "--bound", "12"])
    assert code == 0
    assert tree["matched"] == tree["total"] == 13
    by_name = {r["check"]: r for r in tree["rows"]}
    owf = by_name["cofinite naturals: open well-filtered"]
    assert owf["verdict"] == "Refuted" and owf["match"] is True
    assert "witness" in owf["report"]
    assert all("seconds" in r for r in tree["rows"])


def test_corpus_text_summary(capsys):
    assert main(["corpus", "run", "--bound", "12"]) == 0
    out = capsys.readouterr().out
    assert "corpus: 13 of 13 matched" in out
    assert "witness:" in out  # refutations print their certificates


CORPUS_GOLDEN = Path(__file__).resolve().parent / "corpus_golden.json"


def test_corpus_run_json_matches_golden_bytes(capsys, monkeypatch):
    # Every byte of `corpus run --bound 30 --format json` except the
    # timings: the "seconds" lines are dropped (each ends in a comma, so
    # the rest is still JSON). A change to the golden is a report change.
    monkeypatch.delenv("T0KIT_CAP", raising=False)
    assert main(["corpus", "run", "--bound", "30", "--format", "json"]) == 0
    out = capsys.readouterr().out
    kept = [line for line in out.splitlines(keepends=True)
            if not line.lstrip().startswith('"seconds": ')]
    assert "".join(kept) == CORPUS_GOLDEN.read_text()


def test_enumerate_where_filter(capsys):
    code, tree = run_json(capsys, ["enumerate", "--size", "3", "--where", "!t1"])
    assert code == 0
    assert tree["total"] == 5 and tree["matched"] == 4
    code2, tree2 = run_json(
        capsys,
        ["enumerate", "--size", "3", "--where", "sober & !(t1 | cosober)"],
    )
    assert code2 == 0 and tree2["matched"] == 0
    code3, tree3 = run_json(capsys, ["enumerate", "--size", "2"])
    assert code3 == 0 and tree3["matched"] == tree3["total"] == 2


def test_where_chains_of_any_length_match_their_one_term_filter(capsys):
    code, tree = run_json(capsys, ["enumerate", "--size", "2", "--where", "sober"])
    assert code == 0 and tree["matched"] == 2
    for where in [" & ".join(["sober"] * 3000), " | ".join(["sober"] * 3000),
                  "!" * 3000 + "sober", "!" * 3002 + "sober"]:
        code2, tree2 = run_json(capsys, ["enumerate", "--size", "2", "--where", where])
        assert code2 == 0 and tree2["spaces"] == tree["spaces"]
    code3, tree3 = run_json(capsys, ["enumerate", "--size", "2", "--where", "!" * 3001 + "sober"])
    assert code3 == 0 and tree3["matched"] == 0


def test_where_nesting_deeper_than_the_limit_is_a_usage_error(capsys):
    def nested(depth):
        return "(" * depth + "sober" + ")" * depth

    code, tree = run_json(capsys, ["enumerate", "--size", "2", "--where", nested(WHERE_DEPTH)])
    assert code == 0 and tree["matched"] == 2
    for depth in [WHERE_DEPTH + 1, 2000]:
        assert main(["enumerate", "--size", "2", "--where", nested(depth)]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"usage error: --where nests parentheses deeper than {WHERE_DEPTH}\n"


def test_where_short_circuits_left_to_right_with_one_check_per_space(capsys, monkeypatch):
    calls = []
    for name in ["t1", "sober", "cosober"]:
        check = PROPERTIES[name]
        monkeypatch.setitem(PROPERTIES, name,
                            lambda space, name=name, check=check: calls.append(name) or check(space))
    code, tree = run_json(
        capsys, ["enumerate", "--size", "2", "--where", "t1 & sober | !t1 & cosober | t1"])
    assert code == 0 and tree["matched"] == 2
    # the discrete space stops at "t1 & sober"; Sierpinski skips sober,
    # reuses t1 for !t1 and stops at cosober
    assert sorted([calls[:2], calls[2:]]) == [["t1", "cosober"], ["t1", "sober"]]


def test_export_dot_golden(capsys, sigma2_file):
    assert main(["export", sigma2_file, "--dot"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "digraph S {\n"
        "  rankdir=BT;\n"
        '  0 [label="a"];\n'
        '  1 [label="b"];\n'
        "  0 -> 1;\n"
        "}\n"
    )


def test_exit_codes(capsys, tmp_path):
    assert main(["check", str(tmp_path / "missing.space")]) == 64
    bad = tmp_path / "bad.space"
    bad.write_text("space Z\npoints a b\nle a b\nle b a\n")
    assert main(["check", str(bad)]) == 2
    bad.write_bytes(b"space s\npoints a\xff\n")
    assert main(["check", str(bad)]) == 64  # not UTF-8
    assert main(["enumerate", "--size", "9"]) == 3
    assert main(["enumerate", "--size", "0"]) == 2
    assert main(["corpus", "run", "--bound", "0"]) == 2
    assert main(["corpus", "run", "--bound", "-3"]) == 2
    assert main(["corpus", "run", "--bound", "257"]) == 3  # over the truncate cap
    assert main(["enumerate", "--size", "3", "--where", "sober &"]) == 64
    assert main(["enumerate", "--size", "3", "--where", "(sober"]) == 64
    assert main(["enumerate", "--size", "3", "--where", "sober)"]) == 64
    assert main(["enumerate", "--size", "3", "--where", "shiny"]) == 64
    assert main(["bogus"]) == 64
    assert main(["check"]) == 64
    err = capsys.readouterr().err
    assert "usage error" in err and "cap exceeded" in err and "error:" in err
    # a trailing & and a missing ) both run out of tokens
    assert err.count("usage error: bad --where expression at end of expression\n") == 2
    assert "usage error: bad --where expression at token ')'\n" in err


def test_parser_is_built_once_on_first_use_and_not_at_import():
    assert cli.build_parser() is cli.build_parser()
    src = str(Path(cli.__file__).parents[1])
    child = subprocess.run(
        [sys.executable, "-c",
         "import t0kit.cli as c; print(c.build_parser.cache_info().currsize)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert child.stdout == "0\n"


def test_reused_parser_leaks_no_state(capsys, monkeypatch, sigma2_file, chain3_file):
    sequence = [
        ["check", sigma2_file],
        ["check", sigma2_file, "--format", "json"],
        ["check", sigma2_file, "--property", "shiny"],
        ["construct", "subspace", chain3_file],
        ["enumerate", "--size", "7"],
        ["enumerate", "--size", "0"],
        ["construct", "subspace", chain3_file, "--points", "q,r"],
        ["check", sigma2_file],
    ]

    def run_all():
        out = []
        for argv in sequence:
            code = main(argv)
            out.append((code, *capsys.readouterr()))
        return out

    shared = run_all()
    assert [r[0] for r in shared] == [1, 1, 64, 64, 3, 2, 0, 1]
    assert shared[-1] == shared[0]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert run_all() == shared


def test_export_requires_dot_flag(capsys, sigma2_file):
    assert main(["export", sigma2_file]) == 64


def test_construct_points_validation(capsys, chain3_file):
    assert main(["construct", "bclosure", chain3_file, "--points", "p,zz"]) == 2
    assert main(["construct", "bclosure", chain3_file, "--points", ""]) == 64


SHAPES_16 = {  # name: (cover pairs, opens count)
    "chain": ([(i, i + 1) for i in range(15)], 17),
    "antichain": ([], 65536),
    "top_cone": ([(i, 15) for i in range(15)], 32769),
    "bottom_cone": ([(0, i) for i in range(1, 16)], 32769),
}


@pytest.mark.parametrize("shape", list(SHAPES_16))
def test_check_finishes_on_worst_shapes_at_the_carrier_cap(capsys, tmp_path, shape):
    pairs, opens = SHAPES_16[shape]
    f = tmp_path / f"{shape}.space"
    f.write_text("space W\npoints " + " ".join(f"p{x}" for x in range(16)) + "\n"
                 + "".join(f"le p{x} p{y}\n" for x, y in pairs))
    code, tree = run_json(capsys, ["check", str(f), "--property", "all"])
    assert code == (0 if shape == "antichain" else 1)  # t1 fails unless discrete
    props = tree["properties"]
    assert all(props[p]["holds"] for p in ["sober", "cosober", "strongd", "kbsober", "owf"])
    space = parse_space(f.read_text()).space
    directed = sum(1 << (space.down[x].bit_count() - 1) for x in range(16))
    assert directed == {"chain": 65535, "antichain": 16,
                        "top_cone": 32783, "bottom_cone": 31}[shape]
    assert props["strongd"]["details"]["directed_sets"] == directed
    assert props["sober"]["details"]["irreducible_closed_count"] == 16
    assert props["kbsober"]["details"]["irreducible_closed_count"] == 16
    assert props["owf"]["details"]["opens_count"] == opens


# ----- argv fuzz: the exit-code contract -----

_FUZZ_FILES = {
    "s2.space": SIGMA2,
    "c3.space": CHAIN3,
    "cycle.space": "space Z\npoints a b\nle a b\nle b a\n",
    "two.space": "space A\npoints x y\n\nspace B\npoints z\n",
}
_PREFIX = {2: "error: ", 3: "cap exceeded: ", 64: "usage error: "}


def _assert_exit_contract(argv: list[str]) -> tuple[int, str] | None:
    """Run main in process and check the exit-code contract: a code in
    {0, 1, 2, 3, 64}, one prefixed stderr line and no stdout for 2, 3 and
    64, a report (valid JSON under --format json) for 0 and 1.  Returns
    the code and stderr, or None after --help."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # --help prints and exits 0
        assert exc.code == 0 and "--help" in argv, argv
        return None
    assert code in {0, 1, 2, 3, 64}, argv
    if code in _PREFIX:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith(_PREFIX[code]), argv
        assert err.getvalue().count("\n") == 1, argv
    else:
        assert out.getvalue() and err.getvalue() == "", argv
        formats = [argv[i + 1] for i, w in enumerate(argv[:-1]) if w == "--format"]
        if formats and formats[-1] == "json":
            json.loads(out.getvalue())
    return code, err.getvalue()


def _argv_strategy(directory: str):
    """A command line of one subcommand with its own options, mostly valid
    values; in two draws of five, one stray word is appended or one word
    dropped."""
    good = [os.path.join(directory, name) for name in ["s2.space", "c3.space"]]
    odd = [os.path.join(directory, name) for name in ["cycle.space", "two.space", "missing.space"]]
    path = st.sampled_from(good * 4 + odd + [directory, "", "nul\x00.space"])
    term = st.builds(str.__add__, st.sampled_from(["", "!", "!!"]), st.sampled_from(list(PROPERTIES)))
    where = st.one_of(
        st.lists(st.tuples(st.sampled_from(["&", "|"]), term), min_size=1, max_size=4).map(
            lambda pairs: " ".join(f"{op} {t}" for op, t in pairs)[2:]),
        st.lists(st.sampled_from([*PROPERTIES, "shiny", "!", "&", "|", "(", ")", "#"]),
                 max_size=6).map(" ".join),
        st.builds(lambda d, e: "(" * d + e + ")" * d,
                  st.integers(0, 2 * WHERE_DEPTH), st.sampled_from(["sober", "!t1 | owf", "owf &"])),
    )
    options = {
        "--format": st.sampled_from(["text", "json"] * 2 + ["yaml"]),
        "--property": st.sampled_from([*PROPERTIES, "all", "co_sober"]),
        "--points": st.one_of(st.sampled_from(["a", "a,b", "b", "p,r", "q", "p,q,r", "zz", ""]),
                              st.text(alphabet="abpqz, ", max_size=5)),
        "--route": st.sampled_from(["irr", "bclosure"] * 2 + ["both"]),
        "--class": st.sampled_from([*sorted(REGISTRY), "nope"]),
        "--bound": st.sampled_from(["1", "2", "3"] * 2 + ["0", "-3", "257", "x"]),
        "--size": st.sampled_from(["1", "2", "3", "4"] * 2 + ["0", "-1", "7", "x"]),
        "--where": where,
    }

    def opt(flag, required=False):
        pair = options[flag].map(lambda value: [flag, value])
        return pair if required else st.one_of(st.just([]), pair)

    def command(*words):
        return st.tuples(*(st.just([w]) if isinstance(w, str) else w for w in words)).map(
            lambda parts: [w for part in parts for w in part])

    one = path.map(lambda p: [p])
    commands = st.one_of(
        command("check", one, opt("--property"), opt("--format")),
        command("construct", "product", one, one, opt("--format")),
        command("construct", "subspace", one, opt("--points", True), opt("--format")),
        command("construct", "sobrify", one, opt("--route"), opt("--format")),
        command("construct", "bclosure", one, opt("--points", True), opt("--format")),
        command("construct", "reflect", one, opt("--class", True), opt("--format")),
        command("corpus", "run", opt("--bound"), opt("--format")),
        command("enumerate", opt("--size", True), opt("--where"), opt("--format")),
        command("export", one, "--dot"),
    )
    stray = st.one_of(*(opt(flag, True) for flag in options), one, st.just(["--help"]),
                      st.sampled_from([["--nope"], ["--dot"], ["bogus"]]))

    def mutate(argv, how, extra, drop):
        if how == "stray":
            return argv + extra
        if how == "drop":
            return argv[:drop % len(argv)] + argv[drop % len(argv) + 1:]
        return argv

    return st.builds(mutate, commands, st.sampled_from(["keep"] * 3 + ["stray", "drop"]),
                     stray, st.integers(0, 7))


def test_argv_fuzz_keeps_the_exit_code_contract(tmp_path):
    for name, text in _FUZZ_FILES.items():
        (tmp_path / name).write_text(text)

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(_argv_strategy(str(tmp_path)))
    def run(argv):
        _assert_exit_contract(argv)

    run()


# ----- document fuzz: .space files under the same contract -----

_DOC_POINTS = ["a", "b", "c", "d", "e"]
_DOC_WORDS = [*_DOC_POINTS, "z", "S", "T", "9x", "b-c", "space", "points", "le", "open",
              "map", "send", ":", "->", "#"]
_BIG = "space Big\npoints " + " ".join(f"x{i}" for i in range(17)) + "\nle x0 x1\n"


@st.composite
def _space_block(draw, name):
    """A space of at most five points given by le lines (acyclic unless a
    cycle is drawn) or by open lines."""
    pts = draw(st.permutations(_DOC_POINTS))[:draw(st.sampled_from([3, 4, 5, 2, 1]))]
    index = st.integers(0, len(pts) - 1)
    lines = [f"space {name}", "points " + " ".join(pts)]
    if draw(st.booleans()):
        for i, j in draw(st.lists(st.tuples(index, index), max_size=6)):
            lines.append(f"le {pts[min(i, j)]} {pts[max(i, j)]}")
        if len(pts) > 1 and draw(st.sampled_from([False] * 4 + [True])):
            lines += [f"le {pts[0]} {pts[-1]}", f"le {pts[-1]} {pts[0]}"]
    else:
        opens = draw(st.lists(st.sets(index, min_size=1), max_size=4))
        if draw(st.sampled_from([True] * 3 + [False])):  # suffixes of pts separate points
            opens += [set(range(i, len(pts))) for i in range(1, len(pts))]
        lines += ["open " + " ".join(pts[i] for i in sorted(members)) for members in opens]
    return lines, pts


@st.composite
def _document(draw):
    """One or two space blocks and maybe a map block, then in two draws of
    five one or two token mutations: a word replaced or dropped, or a line
    repeated."""
    first, src = draw(_space_block("S"))
    second, dst = draw(_space_block(draw(st.sampled_from(["T", "T", "T", "S"]))))
    lines = first + (second if draw(st.sampled_from([True] * 3 + [False])) else [])
    if draw(st.booleans()):
        target = draw(st.sampled_from(["T", "T", "T", "U"]))
        constant = st.sampled_from(dst).map(lambda x: [x] * len(src))  # always continuous
        sends = draw(st.one_of(constant, st.lists(
            st.sampled_from(dst), min_size=len(src), max_size=len(src))))
        lines.append(f"map f : S -> {target}")
        lines += [f"send {a} {x}" for a, x in zip(src, sends)]
    mutation = st.tuples(st.sampled_from(["replace", "drop", "repeat"]), st.integers(0, 99),
                         st.sampled_from(_DOC_WORDS))
    for how, at, word in draw(st.sampled_from([0, 0, 0, 1, 2]).flatmap(
            lambda k: st.lists(mutation, min_size=k, max_size=k))):
        i = at % len(lines)
        words = lines[i].split()
        if how == "repeat":
            lines.insert(i, lines[i])
        elif how == "replace":
            words[at % len(words)] = word
            lines[i] = " ".join(words)
        else:
            del words[at % len(words)]
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


def _doc_commands(path: str, other: str):
    fmt = st.sampled_from([[], ["--format", "json"], ["--format", "text"]])
    points = st.lists(st.sampled_from([*_DOC_POINTS, "z"]), min_size=1, max_size=3).map(",".join)
    commands = st.one_of(
        st.sampled_from(["sober", "strongd", "owf", "t1", "all"]).map(
            lambda p: ["check", path, "--property", p]),
        st.just(["export", path, "--dot"]),
        st.sampled_from(["irr", "bclosure"]).map(
            lambda r: ["construct", "sobrify", path, "--route", r]),
        st.tuples(st.sampled_from(["subspace", "bclosure"]), points).map(
            lambda c: ["construct", c[0], path, "--points", c[1]]),
        st.permutations([path, other]).map(lambda files: ["construct", "product", *files]),
        st.sampled_from(sorted(REGISTRY)).map(
            lambda c: ["construct", "reflect", path, "--class", c]),
    )
    return st.builds(lambda argv, f: argv + (f if argv[0] != "export" else []), commands, fmt)


def test_document_fuzz_keeps_the_exit_code_contract(tmp_path):
    path, other = tmp_path / "doc.space", tmp_path / "s2.space"
    other.write_text(SIGMA2)
    docs = st.one_of(_document(), _document(), st.just(_BIG), st.binary(max_size=40))

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(docs, _doc_commands(str(path), str(other)))
    def run(doc, argv):
        if isinstance(doc, bytes):
            path.write_bytes(doc)
        else:
            path.write_text(doc)
        code, err = _assert_exit_contract(argv)
        if doc == _BIG:  # refused while parsing, before any checker runs
            assert (code, err) == (3, "cap exceeded: carrier size: 17 exceeds cap 16\n"), argv

    run()
