"""The contract of t0kit's 23 immutable value types: == only within a
class, hash as the hash of the compared-field tuple, exact repr strings
(report.as_data renders unknown objects with repr), no assignment or
deletion, a fresh mutable default per instance, copying and pickling,
and QInterval's field-tuple order, which sorted() reads through <."""

import copy
import pickle
from fractions import Fraction

import pytest

from t0kit.constructions import (
    CanonicalEmbedding,
    EqualizerPresentation,
    ProductResult,
    SpaceMap,
    SubspaceResult,
    canonical_embedding,
    equalizer_maps_for_bclosed,
    identity,
    product,
    subspace,
)
from t0kit.enumeration import CanonicalForm, canonical_form
from t0kit.finite_space import FiniteSpace, chain, sigma2
from t0kit.properties import PropertyReport
from t0kit.reflection_lab import ReflectionCheck, ReflectionResult, SobrificationResult, sobrify_irr
from t0kit.spacefile import Document, MapDoc, SpaceDoc
from t0kit.symbolic.alexandrov import AlexSet
from t0kit.symbolic.cofinite import CofiniteSet, IndexedFamily
from t0kit.symbolic.corpus import CorpusRow
from t0kit.symbolic.intervals import QInterval, QIntervalSet, interval
from t0kit.symbolic.johnstone import JohnstoneOpen, MinSelector, open_from_generators
from t0kit.symbolic.verdicts import Verdict

C2 = "FiniteSpace(n=2, up=(3, 2), down=(1, 3))"
C1 = "FiniteSpace(n=1, up=(1,), down=(1,))"
ID2 = f"SpaceMap(dom={C2}, cod={C2}, table=(0, 1))"

# (class, a factory of one value, the compared fields, its repr)
CASES = [
    (FiniteSpace, lambda: chain(2), ("n", "up", "down"), C2),
    (SpaceMap, lambda: identity(chain(2)), ("dom", "cod", "table"), ID2),
    (SubspaceResult, lambda: subspace(chain(3), 0b101), ("space", "points"),
     f"SubspaceResult(space={C2}, points=(0, 2))"),
    (ProductResult, lambda: product([sigma2()]), ("space", "factors"),
     f"ProductResult(space={C2}, factors=({C2},))"),
    (CanonicalEmbedding, lambda: canonical_embedding(sigma2()), ("opens", "bitcodes"),
     "CanonicalEmbedding(opens=(2, 3), bitcodes=(1, 3))"),
    (EqualizerPresentation, lambda: equalizer_maps_for_bclosed(sigma2(), 0b10),
     ("f", "g", "pairs"),
     f"EqualizerPresentation(f={ID2}, g=SpaceMap(dom={C2}, cod={C2}, table=(1, 1)), "
     "pairs=((2, 3),))"),
    (CanonicalForm, lambda: canonical_form(sigma2()), ("n", "key", "relabel"),
     "CanonicalForm(n=2, key=(1, 3), relabel=(1, 0))"),
    (PropertyReport, lambda: PropertyReport("sober", True, "m"),
     ("name", "holds", "method", "witness", "details"),
     "PropertyReport(name='sober', holds=True, method='m', witness=None, details={})"),
    (SobrificationResult, lambda: sobrify_irr(sigma2()), ("space", "unit", "route", "details"),
     f"SobrificationResult(space={C2}, unit={ID2}, route='irreducible-closed-sets', "
     "details={'irreducible_closed_count': 2})"),
    (ReflectionCheck, lambda: ReflectionCheck(True, 3, 2),
     ("holds", "verified_objects", "test_bound", "witness"),
     "ReflectionCheck(holds=True, verified_objects=3, test_bound=2, witness=None)"),
    (ReflectionResult, lambda: ReflectionResult(False, None, None, "none", None),
     ("found", "space", "unit", "route", "check", "details"),
     "ReflectionResult(found=False, space=None, unit=None, route='none', check=None, "
     "details={})"),
    (SpaceDoc, lambda: SpaceDoc("s", ("a",), chain(1), 1), ("name", "point_names", "space", "line"),
     f"SpaceDoc(name='s', point_names=('a',), space={C1}, line=1)"),
    (MapDoc, lambda: MapDoc("f", "s", "s", identity(chain(1)), 2),
     ("name", "src", "dst", "map", "line"),
     f"MapDoc(name='f', src='s', dst='s', map=SpaceMap(dom={C1}, cod={C1}, table=(0,)), line=2)"),
    (Document, lambda: Document(), ("spaces", "maps"), "Document(spaces={}, maps=())"),
    (AlexSet, lambda: AlexSet("up", 3), ("kind", "n"), "AlexSet(kind='up', n=3)"),
    (CofiniteSet, lambda: CofiniteSet(True, frozenset({1, 2})), ("cofinite", "support"),
     "(N+ minus {1,2})"),
    (IndexedFamily, lambda: IndexedFamily("f", abs, 1, "generic"),
     ("name", "member", "start", "shape"),
     "IndexedFamily(name='f', member=<built-in function abs>, start=1, shape='generic')"),
    (CorpusRow, lambda: CorpusRow("r", "holds", True, abs),
     ("name", "kind", "exact", "check", "extra", "why"),
     "CorpusRow(name='r', kind='holds', exact=True, check=<built-in function abs>, extra=None, "
     "why='')"),
    (QInterval, lambda: QInterval(0, 1, True, False), ("lo", "hi", "lo_closed", "hi_closed"),
     "[0,1)"),
    (QIntervalSet, lambda: interval(0, 1, True, False), ("parts",), "[0,1)"),
    (JohnstoneOpen, lambda: open_from_generators([(1, 2)]),
     ("empty", "tops", "heights", "ev_kind", "ev_val"),
     "JohnstoneOpen(tops=[], prefix=[2], then height 0)"),
    (MinSelector, lambda: MinSelector(0, (2,), "const", 1), ("top_bound", "prefix", "ev_kind", "ev_val"),
     "MinSelector(top_bound=0, prefix=(2,), ev_kind='const', ev_val=1)"),
    (Verdict, lambda: Verdict("c", "holds", "m"),
     ("claim", "kind", "method", "bound", "witness", "details"),
     "Verdict(claim='c', kind='holds', method='m', bound=None, witness=None, details={})"),
]
IDS = [cls.__name__ for cls, *_ in CASES]


def test_the_table_covers_23_types():
    assert len(set(IDS)) == len(CASES) == 23


@pytest.mark.parametrize("cls, make, fields, text", CASES, ids=IDS)
def test_value_contract(cls, make, fields, text):
    v, w = make(), make()
    assert type(v) is cls and v is not w
    assert repr(v) == text
    assert v == w and not v != w
    values = tuple(getattr(v, name) for name in fields)
    assert v != values
    try:
        expected = hash(values)
    except TypeError:  # a dict field: unhashable, as at the field tuple
        with pytest.raises(TypeError):
            hash(v)
    else:
        assert hash(v) == hash(w) == expected
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(v, name, None)
        with pytest.raises(AttributeError):
            delattr(v, name)
    assert getattr(v, fields[0]) is values[0]
    assert copy.copy(v) == v and copy.deepcopy(v) == v
    assert pickle.loads(pickle.dumps(v)) == v


def test_equality_never_crosses_classes():
    values = [make() for _, make, *_ in CASES]
    for i, v in enumerate(values):
        for j, w in enumerate(values):
            assert (v == w) == (i == j)


@pytest.mark.parametrize("make, name", [
    (lambda: PropertyReport("p", True, "m"), "details"),
    (lambda: SobrificationResult(chain(1), identity(chain(1)), "r"), "details"),
    (lambda: ReflectionResult(False, None, None, "none", None), "details"),
    (lambda: Document(), "spaces"),
    (lambda: Verdict("c", "holds", "m"), "details"),
], ids=["PropertyReport", "SobrificationResult", "ReflectionResult", "Document", "Verdict"])
def test_a_mutable_default_is_fresh_per_instance(make, name):
    a, b = make(), make()
    assert getattr(a, name) == {} and getattr(a, name) is not getattr(b, name)
    getattr(a, name)["k"] = 1
    assert getattr(b, name) == {}


def test_an_omitted_support_is_the_empty_frozenset():
    assert CofiniteSet(False).support == frozenset() and type(CofiniteSet(True).support) is frozenset


def test_lazy_slots_stay_out_of_eq_hash_and_repr():
    sp, f = chain(2), identity(chain(2))
    object.__setattr__(sp, "b_discrete", True)
    object.__setattr__(f, "fibers", 5)
    assert sp == chain(2) and hash(sp) == hash(chain(2)) and repr(sp) == C2
    assert f == identity(chain(2)) and hash(f) == hash(identity(chain(2))) and repr(f) == ID2
    for v, name in ((sp, "b_discrete"), (f, "fibers")):
        with pytest.raises(AttributeError):
            setattr(v, name, None)


def test_qinterval_orders_by_its_field_tuple():
    a = QInterval(0, 1, True, False)
    b = QInterval(0, 1, True, True)
    c = QInterval(Fraction(1, 2), 1, False, True)
    assert a < b < c and c > a and not b < a and not a < a
    assert sorted([c, b, a]) == [a, b, c]
    with pytest.raises(TypeError):
        a < (0, 1, True, True)
