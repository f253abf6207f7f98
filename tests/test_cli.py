"""Command-line behavior: reports, exit codes, golden outputs."""

import json
import re

import pytest

from t0kit.cli import main
from t0kit.constructions import find_homeomorphism, product
from t0kit.finite_space import chain, sigma2
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
    assert main(["enumerate", "--size", "3", "--where", "shiny"]) == 64
    assert main(["bogus"]) == 64
    assert main(["check"]) == 64
    err = capsys.readouterr().err
    assert "usage error" in err and "cap exceeded" in err and "error:" in err


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
