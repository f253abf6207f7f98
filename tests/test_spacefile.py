"""Space file grammar: parsing, validation spans, printing, round trips."""

import pytest

from t0kit.constructions import find_homeomorphism
from t0kit.enumeration import spaces_up_to
from t0kit.errors import (
    CapExceeded,
    NotAPartialOrder,
    NotContinuous,
    NotT0,
    ParseError,
    T0KitError,
)
from t0kit.finite_space import antichain, chain, sigma2
from t0kit.spacefile import (
    parse_document,
    parse_space,
    print_document,
    print_space,
)


def test_order_block():
    doc = parse_space("space S\npoints a b\nle a b")
    assert doc.point_names == ("a", "b")
    assert find_homeomorphism(doc.space, sigma2()) is not None
    assert doc.space.leq(0, 1)  # a below b, as written


def test_transitive_closure_is_taken():
    doc = parse_space("space C\npoints p q r\nle p q\nle q r")
    assert doc.space.leq(0, 2)


def test_opens_block_completion():
    doc = parse_space("space X\npoints p q r\nopen r\nopen q r")
    assert find_homeomorphism(doc.space, chain(3)) is not None
    doc2 = parse_space("space B\npoints a b\nopen a\nopen b")
    assert find_homeomorphism(doc2.space, antichain(2)) is not None  # union added


def test_comments_and_blank_lines():
    doc = parse_space(
        "# a chain\n\nspace S  # named S\npoints a b  # two points\n\nle a b\n"
    )
    assert doc.name == "S" and doc.space.n == 2


def test_maps_parse_and_validate():
    doc = parse_document(
        "space A\npoints a b\nle a b\n"
        "space B\npoints p q r\nle p q\nle q r\n"
        "map f : A -> B\nsend a p\nsend b r\n"
    )
    (m,) = doc.maps
    assert m.name == "f" and m.src == "A" and m.dst == "B"
    assert m.map.table == (0, 2)


def test_map_continuity_is_checked():
    with pytest.raises(NotContinuous) as err:
        parse_document(
            "space A\npoints a b\nle a b\n"
            "space B\npoints p q\nle p q\n"
            "map f : A -> B\nsend a q\nsend b p\n"
        )
    assert "map f" in str(err.value)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("points a b", "outside a space block"),
        ("space S\nle a b", "needs a points line"),
        ("space S\npoints a b\nfoo a", "unknown directive"),
        ("space S\npoints a a", "duplicate point"),
        ("space S\npoints a b\npoints c", "lists points twice"),
        ("space S\npoints a b\nle a c", "undeclared point"),
        ("space S\npoints a b\nle a b\nopen a", "mixes le and open"),
        ("space S\npoints a b\nopen", "open lines need points"),
        ("space S\npoints a b\nle a", "exactly two points"),
        ("space S\npoints a b\nle a b\nspace S\npoints c\n", "duplicate space"),
        ("space S\npoints a b\nle a b\nmap f : S -> T\n", "undeclared space T"),
        ("space 9bad\npoints a\n", "bad space name"),
        ("space S\npoints a\nmap f : S -> S\nsend b a\n", "not a point of"),
        ("space S\npoints a\nmap f : S -> S\nsend a a\nsend a a\n", "sent twice"),
        ("space S\npoints a b\nle a b\nmap f : S -> S\nsend a a\n", "never sends b"),
        ("space S\npoints a\nmap f = S -> S\n", "map header"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert fragment in str(err.value)


_TWO = "space S\npoints a b\nle a b\nspace T\npoints p q\nle p q\n"


def _doc(text):
    return lambda: parse_document(text)


# One row per distinct error message: exception type, full str(exc), line
# and column (None where the exception carries no position).
_ERROR_TABLE = {
    "no space": (lambda: parse_document("# only a comment\n").first_space(),
                 ParseError, "document declares no space", None, None),
    "parse_space count": (lambda: parse_space("space A\npoints a\nspace B\npoints b\n"),
                          ParseError, "expected exactly one space block, found 2 spaces "
                          "and 0 maps", None, None),
    "print_space names": (lambda: print_space("s", sigma2(), ["a", "a"]),
                          ParseError, "need 2 distinct point names", None, None),
    "print_space space name": (lambda: print_space("9s", sigma2()),
                               ParseError, "bad space name '9s'", None, None),
    "print_space point name": (lambda: print_space("s", sigma2(), ["a b", "c"]),
                               ParseError, "bad point name 'a b'", None, None),
    "print_space comment": (lambda: print_space("s", sigma2(), comments=["a\nspace X"]),
                            ParseError, "comment 'a\\nspace X' spans lines", None, None),
    "space arity": (_doc("space A B\n"),
                    ParseError, "space takes exactly one name (line 1, col 1)", 1, 1),
    "bad space name": (_doc("  space   9bad\n"),
                       ParseError, "bad space name '9bad' (line 1, col 11)", 1, 11),
    "duplicate space": (_doc("space S\npoints a\nspace S\npoints b\n"),
                        ParseError, "duplicate space S (line 3, col 1)", 3, 1),
    "no points line": (_doc("space S\nspace T\npoints a\n"),
                       ParseError, "space S has no points line (line 1, col 1)", 1, 1),
    "points outside": (_doc("points a b\n"),
                       ParseError, "points outside a space block (line 1, col 1)", 1, 1),
    "points twice": (_doc("space S\npoints a b\npoints c\n"),
                     ParseError, "space S lists points twice (line 3, col 1)", 3, 1),
    "points empty": (_doc("space S\npoints  # none\n"),
                     ParseError, "points line needs at least one name (line 2, col 1)", 2, 1),
    "bad point name": (_doc("space S\npoints a  b-c\n"),
                       ParseError, "bad point name 'b-c' (line 2, col 11)", 2, 11),
    "duplicate point": (_doc("space S\npoints a\tb a\n"),
                        ParseError, "duplicate point a (line 2, col 12)", 2, 12),
    "le outside": (_doc("le a b\n"),
                   ParseError, "le outside a space block (line 1, col 1)", 1, 1),
    "open outside": (_doc(_TWO + "map f : S -> T\nopen a\n"),
                     ParseError, "open outside a space block (line 8, col 1)", 8, 1),
    "needs points, le": (_doc("space S\nle a b\n"),
                         ParseError, "space S needs a points line first (line 2, col 1)", 2, 1),
    "needs points, open": (_doc("space S\nopen a\n"),
                           ParseError, "space S needs a points line first (line 2, col 1)", 2, 1),
    "mixes, le then open": (_doc("space S\npoints a b\nle a b\nopen a\n"),
                            ParseError, "space S mixes le and open lines (line 4, col 1)", 4, 1),
    "mixes, open then le": (_doc("space S\npoints a b\nopen a\nle a b\n"),
                            ParseError, "space S mixes le and open lines (line 4, col 1)", 4, 1),
    "le arity": (_doc("space S\npoints a b\nle a\n"),
                 ParseError, "le takes exactly two points (line 3, col 1)", 3, 1),
    "open empty": (_doc("space S\npoints a b\nopen   # nothing\n"),
                   ParseError, "empty open is implicit; open lines need points "
                   "(line 3, col 1)", 3, 1),
    "undeclared, le": (_doc("space S\npoints a b\nle a  zz\n"),
                       ParseError, "undeclared point zz (line 3, col 7)", 3, 7),
    "undeclared, open": (_doc("space S\npoints a b\n  open b\tzz\n"),
                         ParseError, "undeclared point zz (line 3, col 10)", 3, 10),
    "map header": (_doc("space S\npoints a\nmap f = S -> S\n"),
                   ParseError, "map header is `map f : A -> B` (line 3, col 1)", 3, 1),
    "map undeclared dst": (_doc(_TWO + "map f : S -> U\n"),
                           ParseError, "map f references undeclared space U (line 7, col 1)",
                           7, 1),
    "map undeclared src": (_doc(_TWO + "map f : U -> S\n"),
                           ParseError, "map f references undeclared space U (line 7, col 1)",
                           7, 1),
    "duplicate map": (_doc("space S\npoints a\nmap f : S -> S\nsend a a\n"
                           "map f : S -> S\nsend a a\n"),
                      ParseError, "duplicate map f (line 5, col 1)", 5, 1),
    "send outside": (_doc("space S\npoints a\nsend a a\n"),
                     ParseError, "send outside a map block (line 3, col 1)", 3, 1),
    "send arity": (_doc(_TWO + "map f : S -> T\nsend a p q\n"),
                   ParseError, "send takes exactly two points (line 8, col 1)", 8, 1),
    "send source point": (_doc(_TWO + "map f : S -> T\nsend  p p\n"),
                          ParseError, "p is not a point of S (line 8, col 7)", 8, 7),
    "send target point": (_doc(_TWO + "map f : S -> T\nsend a \t a\n"),
                          ParseError, "a is not a point of T (line 8, col 10)", 8, 10),
    "sent twice": (_doc(_TWO + "map f : S -> T\nsend a p\nsend a q\n"),
                   ParseError, "a is sent twice (line 9, col 1)", 9, 1),
    "never sends": (_doc(_TWO + "map f : S -> T\nsend a p\n"),
                    ParseError, "map f never sends b (line 7, col 1)", 7, 1),
    "unknown directive": (_doc("space S\npoints a b\nLe a b\n"),
                          ParseError, "unknown directive 'Le' (line 3, col 1)", 3, 1),
    "not T0": (_doc("space S\npoints a b\nspace T\npoints a b\nopen a b\n"),
               NotT0, "space T (line 3): points 0 and 1 share every open set", None, None),
    "cycle": (_doc("# cycle\nspace Z\npoints a b c\nle a b\nle b c\nle c a\n"),
              NotAPartialOrder, "space Z (line 2): antisymmetry fails: 0 <= 1 and 1 <= 0",
              None, None),
    "not continuous": (_doc(_TWO + "map f : S -> T\nsend a q\nsend b p\n"),
                       NotContinuous, "map f (line 7): 0 <= 1 but f(0) = 1 is not below "
                       "f(1) = 0", None, None),
    "carrier cap": (_doc("space Big\npoints " + " ".join(f"x{i}" for i in range(17)) + "\n"),
                    CapExceeded, "carrier size: 17 exceeds cap 16", None, None),
}


@pytest.mark.parametrize("case", list(_ERROR_TABLE))
def test_parse_error_table(case):
    call, kind, message, line, col = _ERROR_TABLE[case]
    with pytest.raises(T0KitError) as err:
        call()
    exc = err.value
    assert type(exc) is kind
    assert str(exc) == message
    assert (getattr(exc, "line", None), getattr(exc, "col", None)) == (line, col)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_document("space S\npoints a b\nle a zz")
    assert err.value.line == 3 and err.value.col == 6


def test_not_t0_and_cycles_carry_block():
    with pytest.raises(NotT0) as t0err:
        parse_document("space T\npoints a b\nopen a b")
    assert "space T" in str(t0err.value)
    with pytest.raises(NotAPartialOrder) as perr:
        parse_document("space Z\npoints a b\nle a b\nle b a")
    assert "space Z" in str(perr.value)


def test_parse_space_wants_exactly_one_block():
    with pytest.raises(ParseError):
        parse_space("space A\npoints a\nspace B\npoints b\n")
    with pytest.raises(ParseError):
        parse_space("# nothing here\n")


def test_print_parse_roundtrip_small_spaces():
    count = 0
    for sp in spaces_up_to(5):
        text = print_space("s", sp)
        back = parse_space(text)
        assert tuple(back.space.up) == tuple(sp.up)  # exact reconstruction
        count += 1
    assert count > 80


def test_print_document_roundtrip_with_maps():
    doc = parse_document(
        "space A\npoints a b\nle a b\n"
        "space B\npoints p q r\nopen r\nopen q r\n"
        "map f : A -> B\nsend a p\nsend b r\n"
    )
    back = parse_document(print_document(doc))
    assert set(back.spaces) == {"A", "B"}
    assert tuple(back.spaces["B"].space.up) == tuple(doc.spaces["B"].space.up)
    assert back.maps[0].map.table == doc.maps[0].map.table


def test_print_space_validates_names():
    with pytest.raises(ParseError):
        print_space("s", sigma2(), ["only_one"])
    # each of these would print a document that parses back differently
    with pytest.raises(ParseError, match="bad point name 'y#z'"):
        print_space("s", sigma2(), ["x", "y#z"])
    with pytest.raises(ParseError, match="spans lines"):
        print_space("s", sigma2(), comments=["carriage\rreturn"])
    out = print_space("s", sigma2(), ["a", "b"], comments=["hello"])
    assert out.startswith("# hello\nspace s\n")
