"""The public surface of the lazily loaded edrkit package."""

import ast
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import edrkit

ROOT = Path(__file__).resolve().parent.parent

# every name edrkit exported when __init__ imported each module eagerly
EXPORTS = {
    "BezoutCertificate", "CardinalityBoundError", "CertificateShapeError",
    "CoprimeSplitting", "DiademEvidence", "DiademWitness", "EuclideanQuotientRing",
    "EuclideanRing", "InfiniteRingError", "IntegerModRing", "IntegerRing",
    "JacobsonRadicalSet", "Matrix", "PolynomialQuotientRing", "PolynomialRing",
    "ProductRing", "PropertyReport", "ReductionCertificate", "Ring", "RingElement",
    "RingMismatchError", "RingParseError", "RingProperty", "SR2Witness",
    "UnsupportedRingError", "annihilator", "bezout_gcd", "check_certificate",
    "check_clean", "check_dyadic_range_1", "check_exchange", "check_gelfand",
    "check_hermite", "check_idempotent_stable_range_1", "check_stable_range_1",
    "check_stable_range_2", "counterexample_is_genuine", "diadem_step",
    "find_coprime_splitting", "find_diadem", "format_certificate", "format_matrix",
    "gelfand_range_1_witness", "hermite_reduce_1x2", "hermite_reduce_2x1",
    "ideal_generated", "is_comaximal", "is_diadem_direct", "is_diadem_via_quotient",
    "jacobson_radical", "parse_certificate", "parse_matrix", "quotient_ring",
    "radical_quotient", "reduce_2x2_comaximal", "ring_parse", "smith_normal_form",
    "stable_range_2_witness", "verify_associate_diadems", "verify_certificate",
}


def test_every_export_resolves_to_its_definition():
    assert len(EXPORTS) == 60
    for name in sorted(EXPORTS):
        value = getattr(edrkit, name)
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_star_import_and_dir_list_the_exports():
    namespace = {}
    exec("from edrkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTS
    assert set(edrkit.__all__) == EXPORTS
    assert EXPORTS <= set(dir(edrkit))


def test_a_fresh_dir_lists_no_public_name_outside_all():
    code = "import edrkit; print(*dir(edrkit))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    listed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout.split()
    assert {name for name in listed if not name.startswith("_")} == EXPORTS


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        edrkit.no_such_name


def test_moved_names_resolve_where_they_did():
    import edrkit.finite_lab
    import edrkit.polynomials
    import edrkit.rings
    import edrkit.verification

    assert edrkit.PolynomialRing is edrkit.polynomials.PolynomialRing
    assert edrkit.PolynomialQuotientRing is edrkit.polynomials.PolynomialQuotientRing
    assert edrkit.verification.CertificateShapeError is edrkit.CertificateShapeError
    assert edrkit.finite_lab.CardinalityBoundError is edrkit.CardinalityBoundError
    assert edrkit.finite_lab.RingProperty is edrkit.RingProperty
    assert edrkit.rings.CertificateShapeError is edrkit.CertificateShapeError


def test_nothing_imports_the_polynomial_carrier_from_rings():
    moved = {"PolynomialRing", "PolynomialQuotientRing"}
    found = []
    for path in sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("perfbench/*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "edrkit.rings":
                found += [f"{path.name}:{node.lineno}" for a in node.names if a.name in moved]
    assert found == []


def test_values_survive_a_pickle_round_trip():
    ring = edrkit.PolynomialRing(5)
    matrix = edrkit.parse_matrix(ring, "2 2\n1,1 0,1\n2 1,0,1\n")
    assert pickle.loads(pickle.dumps(matrix)) == matrix
    product = edrkit.ring_parse("Z/4 x GF(3)[x]/(1,0,1)")
    elem = product.parse_element("(3|2,1)")
    back = pickle.loads(pickle.dumps(elem))
    assert back == elem and back.ring == product
    assert product.format_element(back) == "(3|2,1)"
