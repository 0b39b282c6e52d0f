"""The value-class contract of lndkit's result and input types.

Every class here is a frozen record (`lndkit.record`): field-wise ==, a
fixed repr, a hash where the fields hash, refused assignment and
copy/pickle round trips. The repr strings are those the classes printed
when they were dataclasses.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from lndkit import (
    GREVLEX,
    ClassificationReport,
    Cone,
    DemazureRoot,
    Derivation,
    Evidence,
    GradedDerivationPart,
    GroebnerBasis,
    Ideal,
    JiCertificate,
    MonomialOrder,
    NilpotencyVerdict,
    PresentedAlgebra,
    RigidityVerdict,
    TrinomialData,
    VarietyDossier,
    parse_poly,
)

XY = ["x", "y"]


def _basis():
    gb = GroebnerBasis(GREVLEX, (parse_poly("x^2 - y", XY),), 2)
    gb._divisors  # a filled cache that ==, hash and repr must not see
    return gb


def _cone():
    cone = Cone(2, ((1, 0), (1, 2)))
    cone._echelon  # a filled cache that ==, hash and repr must not see
    return cone


DDX = Derivation.from_strings(PresentedAlgebra(XY), {"x": "1", "y": "0"})


# (factory, repr, hashable, equal after deepcopy and pickle)
SAMPLES = [
    (
        lambda: MonomialOrder("weighted", [1, 2]),
        "MonomialOrder(kind='weighted', weights=(1, 2))",
        True, True,
    ),
    (
        lambda: Ideal.of([parse_poly("x*y - 1", XY)]),
        "Ideal(generators=(Polynomial('x0*x1 - 1'),), arity=2)",
        True, True,
    ),
    (
        _basis,
        "GroebnerBasis(order=MonomialOrder(kind='grevlex', weights=None),"
        " basis=(Polynomial('x0^2 - x1'),), arity=2)",
        True, True,
    ),
    (
        lambda: NilpotencyVerdict("verified", max_order=3, bound=64),
        "NilpotencyVerdict(status='verified', max_order=3, witness_var=None,"
        " witness_order=None, bound=64)",
        True, True,
    ),
    # a Derivation compares by identity, so only a shallow copy is equal
    (
        lambda: GradedDerivationPart(0, DDX),
        "GradedDerivationPart(degree=0, part=Derivation(x -> 1, y -> 0))",
        True, False,
    ),
    (
        lambda: Evidence("line factor", {"ray": [1, 0]}),
        "Evidence(criterion='line factor', data={'ray': [1, 0]})",
        False, True,
    ),
    (
        lambda: ClassificationReport("A", (Evidence("e", {}),)),
        "ClassificationReport(verdict='A', evidence=(Evidence(criterion='e', data={}),))",
        False, True,
    ),
    (
        lambda: ClassificationReport("C"),
        "ClassificationReport(verdict='C', evidence=())",
        True, True,
    ),
    (
        lambda: Cone(2, ((1, 0), (0, 1))),
        "Cone(dim=2, rays=((1, 0), (0, 1)))",
        True, True,
    ),
    (
        lambda: DemazureRoot((-1, 0), 0),
        "DemazureRoot(vector=(-1, 0), distinguished=0)",
        True, True,
    ),
    (
        lambda: TrinomialData.type1([[2], [3], [5]], [0, 1, Fraction(1, 2)]),
        "TrinomialData(variant=1, m=0, l=((2,), (3,), (5,)),"
        " a=(Fraction(0, 1), Fraction(1, 1), Fraction(1, 2)), A=None)",
        True, True,
    ),
    (
        lambda: RigidityVerdict(False, "condition 1", 1),
        "RigidityVerdict(rigid=False, witness='condition 1', condition=1)",
        True, True,
    ),
    (
        lambda: VarietyDossier(None, tags={"rigid_asserted": True}, names=("d",)),
        "VarietyDossier(algebra=None, lnds=(), tags={'rigid_asserted': True},"
        " names=('d',))",
        False, True,
    ),
    (
        lambda: JiCertificate(1, ({"derivation": 0, "generator": "x"},)),
        "JiCertificate(i=1, entries=({'derivation': 0, 'generator': 'x'},),"
        " degenerate=False)",
        False, True,
    ),
    (
        _cone,
        "Cone(dim=2, rays=((1, 0), (1, 2)))",
        True, True,
    ),
]
IDS = [f"{make().__class__.__name__}-{k}" for k, (make, *_) in enumerate(SAMPLES)]


def test_samples_cover_every_record_class():
    classes = {make().__class__ for make, *_ in SAMPLES}
    assert len(classes) == 13


@pytest.mark.parametrize("k", range(len(SAMPLES)), ids=IDS)
def test_equality_is_field_wise_within_one_class(k):
    make = SAMPLES[k][0]
    a, b = make(), make()
    assert a == b and not a != b
    other = next(o for o in (m() for m, *_ in SAMPLES) if type(o) is not type(a))
    assert a != other and other != a
    assert a.__eq__(other) is NotImplemented


@pytest.mark.parametrize("k", range(len(SAMPLES)), ids=IDS)
def test_repr_is_pinned(k):
    make, text = SAMPLES[k][:2]
    assert repr(make()) == text


@pytest.mark.parametrize("k", range(len(SAMPLES)), ids=IDS)
def test_hash_follows_the_fields(k):
    make, _, hashable = SAMPLES[k][:3]
    a, b = make(), make()
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:  # a field holds a dict
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


@pytest.mark.parametrize("k", range(len(SAMPLES)), ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(k):
    make, text, _, deep_equal = SAMPLES[k]
    a = make()
    assert copy.copy(a) == a
    for q in [copy.deepcopy(a), pickle.loads(pickle.dumps(a))]:
        assert type(q) is type(a) and repr(q) == text
        assert (q == a) is deep_equal


@pytest.mark.parametrize("k", range(len(SAMPLES)), ids=IDS)
def test_frozen_records_refuse_assignment(k):
    make, text = SAMPLES[k][:2]
    field = text.split("(", 1)[1].split("=", 1)[0]  # the first field's name
    for a in [make(), copy.deepcopy(make())]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(a, field, None)
        with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
            a.x = 1
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(a, field)
        assert repr(a) == text


def test_dossier_is_frozen_unhashable_and_owns_its_tags():
    tags = {"rigid_asserted": True}
    a, b, c = VarietyDossier(None), VarietyDossier(None), VarietyDossier(None, tags=tags)
    assert a.tags == {} and a.tags is not b.tags and c.tags is not tags
    a.tags["rigid_asserted"] = True
    tags.clear()
    assert b.tags == {} and a != b and a == c
    with pytest.raises(AttributeError, match="cannot assign to field 'names'"):
        a.names = ("d",)
    assert a.names == ()
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)
