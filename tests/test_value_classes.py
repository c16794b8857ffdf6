"""Value semantics of the package's immutable classes: repr, equality,
hashing, construction, immutability and copying, pinned to the text and
behaviour they had as frozen dataclasses."""

import copy
import pickle

import pytest

from edrkit import (
    BezoutCertificate,
    EuclideanQuotientRing,
    IntegerModRing,
    IntegerRing,
    Matrix,
    PolynomialQuotientRing,
    PolynomialRing,
    ProductRing,
    RingElement,
    SR2Witness,
    bezout_gcd,
    check_clean,
    find_coprime_splitting,
    find_diadem,
    jacobson_radical,
    smith_normal_form,
    stable_range_2_witness,
)
from edrkit.rings import FrozenInstanceError

Z = IntegerRing()
Z12 = IntegerModRing(12)


def _one_of_each():
    """name -> (instance, its field names, its repr).  EuclideanQuotientRing
    is abstract: IntegerModRing and PolynomialQuotientRing stand for it.
    Each call builds new objects."""
    Z, Z12 = IntegerRing(), IntegerModRing(12)
    unit_matrix = "Matrix(ring=IntegerRing(), rows=1, cols=1, entries=(1 : Z,))"
    z4 = "IntegerModRing(base=IntegerRing(), modulus=4)"
    return {
        "RingElement": (RingElement(Z12, 5), ("ring", "payload"), "5 : Z/12"),
        "IntegerRing": (Z, (), "IntegerRing()"),
        "IntegerModRing": (
            Z12, ("base", "modulus"), "IntegerModRing(base=IntegerRing(), modulus=12)"
        ),
        "ProductRing": (
            ProductRing(IntegerModRing(4), IntegerModRing(9)),
            ("left", "right"),
            f"ProductRing(left={z4}, right=IntegerModRing(base=IntegerRing(), modulus=9))",
        ),
        "PolynomialRing": (PolynomialRing(5), ("p",), "PolynomialRing(p=5)"),
        "PolynomialQuotientRing": (
            PolynomialQuotientRing(5, (2, 0, 2)),
            ("base", "modulus"),
            "PolynomialQuotientRing(base=PolynomialRing(p=5), modulus=(1, 0, 1))",
        ),
        "BezoutCertificate": (
            bezout_gcd(Z, Z.element(12), Z.element(18)),
            ("g", "u", "v", "a1", "b1"),
            "BezoutCertificate(g=6 : Z, u=-1 : Z, v=1 : Z, a1=2 : Z, b1=3 : Z)",
        ),
        "JacobsonRadicalSet": (
            jacobson_radical(IntegerModRing(5)),
            ("ring", "members"),
            "JacobsonRadicalSet(ring=IntegerModRing(base=IntegerRing(), modulus=5),"
            " members=frozenset({0 : Z/5}))",
        ),
        "Matrix": (
            Matrix.from_rows(Z, [[1, 2], [3, 4]]),
            ("ring", "rows", "cols"),
            "Matrix(ring=IntegerRing(), rows=2, cols=2, entries=(1 : Z, 2 : Z, 3 : Z, 4 : Z))",
        ),
        "ReductionCertificate": (
            smith_normal_form(Z, Matrix.from_rows(Z, [[6]])),
            ("P", "D", "Q"),
            f"ReductionCertificate(P={unit_matrix},"
            " D=Matrix(ring=IntegerRing(), rows=1, cols=1, entries=(6 : Z,)),"
            f" Q={unit_matrix})",
        ),
        "SR2Witness": (
            stable_range_2_witness(Z, Z.element(6), Z.element(10), Z.element(15)),
            ("a", "b", "c", "p", "q"),
            "SR2Witness(a=6 : Z, b=10 : Z, c=15 : Z, p=0 : Z, q=1 : Z)",
        ),
        "PropertyReport": (
            check_clean(IntegerModRing(4)),
            ("property", "ring", "holds", "counterexample", "checked"),
            f"PropertyReport(property=<RingProperty.CLEAN: 'clean'>, ring={z4},"
            " holds=True, counterexample=None, checked=4)",
        ),
        "DiademWitness": (
            find_diadem(Z12, Z12.element(5), Z12.element(3)),
            ("a", "b", "multiplier", "diadem", "evidence"),
            "DiademWitness(a=5 : Z/12, b=3 : Z/12, multiplier=0 : Z/12, diadem=5 : Z/12,"
            " evidence=<DiademEvidence.TRIVIAL_UNIT: 'trivial-unit'>)",
        ),
        "CoprimeSplitting": (
            find_coprime_splitting(12, 5, 3), ("c", "r", "s"), "CoprimeSplitting(c=12, r=3, s=4)"
        ),
    }


VALUES = _one_of_each()
# the classes whose constructor takes exactly their fields
BY_FIELDS = sorted(set(VALUES) - {"IntegerModRing", "PolynomialQuotientRing", "Matrix"})


@pytest.mark.parametrize("name", sorted(VALUES))
def test_repr_equality_and_hash(name):
    value, fields, text = VALUES[name]
    assert repr(value) == text
    again = _one_of_each()[name][0]
    assert again is not value
    assert again == value and not again != value
    assert hash(again) == hash(value)
    if name != "Matrix":
        # Matrix hashes its payload grid, not its boxed entries
        assert hash(value) == hash(tuple(getattr(value, f) for f in fields))


@pytest.mark.parametrize("name", BY_FIELDS)
def test_construction_by_position_and_keyword(name):
    value, fields, _ = VALUES[name]
    args = [getattr(value, f) for f in fields]
    cls = type(value)
    assert cls(*args) == cls(**dict(zip(fields, args))) == value
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, spare=None)
    if fields:
        with pytest.raises(TypeError):
            cls(*args[1:])
        with pytest.raises(TypeError):
            cls(*args, **{fields[0]: args[0]})


def test_post_init_normalizes_and_refuses():
    # the quotient keeps its modulus canonical, by position or by keyword
    assert PolynomialQuotientRing(5, modulus=(2, 0, 2)).modulus == (1, 0, 1)
    ring = IntegerModRing.__new__(IntegerModRing)
    EuclideanQuotientRing.__init__(ring, base=Z, modulus=-12)
    assert ring.modulus == 12 and ring == Z12
    for call in (lambda: PolynomialRing(4), lambda: PolynomialRing(p=4)):
        with pytest.raises(ValueError, match="4 not prime"):
            call()
    with pytest.raises(ValueError, match="zero modulus"):
        PolynomialQuotientRing(5, ())


def test_equal_fields_in_different_classes_are_unequal():
    cert = VALUES["BezoutCertificate"][0]
    fields = (cert.g, cert.u, cert.v, cert.a1, cert.b1)
    assert SR2Witness(*fields) != BezoutCertificate(*fields)
    assert SR2Witness(*fields) == SR2Witness(*fields)

    class Residues(IntegerModRing):
        pass

    assert Residues(12) != Z12 and Z12 != Residues(12)
    assert Residues(12) == Residues(12)
    assert RingElement(Z12, 5) != 5


@pytest.mark.parametrize("name", sorted(VALUES))
def test_assignment_and_deletion_raise(name):
    value, fields, text = VALUES[name]
    for attr in (*fields, "spare"):
        with pytest.raises(AttributeError) as raised:
            setattr(value, attr, None)
        assert isinstance(raised.value, FrozenInstanceError)
        assert str(raised.value) == f"cannot assign to field {attr!r}"
    for attr in fields:
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{attr}'"):
            delattr(value, attr)
    assert "spare" not in vars(value)
    assert repr(value) == text


@pytest.mark.parametrize("name", sorted(VALUES))
def test_pickle_copy_and_deepcopy_round_trip(name):
    value, _, text = VALUES[name]
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value)
        assert repr(clone) == text
        with pytest.raises(FrozenInstanceError):
            clone.spare = None


def test_a_ring_hashes_its_component_tree_once(monkeypatch):
    # every element hash hashes its ring, so ProductRing and
    # EuclideanQuotientRing keep their field-tuple hash after the first
    def product_of_64():
        ring = IntegerModRing(2)
        for _ in range(63):
            ring = ProductRing(ring, IntegerModRing(2))
        return ring

    ring = product_of_64()
    e = ring.one
    first = hash(e)
    assert hash(ring) == hash((ring.left, ring.right)) == hash(product_of_64())
    hashed = []
    for cls in (ProductRing, EuclideanQuotientRing, IntegerRing):
        inner = cls.__hash__

        def spied(self, inner=inner):
            hashed.append(self)
            return inner(self)

        monkeypatch.setattr(cls, "__hash__", spied)
    assert hash(e) == first
    assert len(hashed) == 1 and hashed[0] is ring
