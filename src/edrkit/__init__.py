"""Exact diagonal reduction over Bezout rings, with certificates, plus
exhaustive ring-property decision procedures on finite commutative rings.

The package loads lazily (PEP 562): importing edrkit loads no submodule,
and the first access to an exported name imports the module that defines
it, so a process pays only for the layers it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        (
            "rings",
            (
                "BezoutCertificate",
                "CardinalityBoundError",
                "CertificateShapeError",
                "EuclideanQuotientRing",
                "EuclideanRing",
                "InfiniteRingError",
                "IntegerModRing",
                "IntegerRing",
                "JacobsonRadicalSet",
                "ProductRing",
                "Ring",
                "RingElement",
                "RingMismatchError",
                "RingParseError",
                "UnsupportedRingError",
                "annihilator",
                "bezout_gcd",
                "jacobson_radical",
                "quotient_ring",
                "ring_parse",
            ),
        ),
        ("polynomials", ("PolynomialQuotientRing", "PolynomialRing")),
        ("properties", ("RingProperty",)),
        (
            "finite_lab",
            (
                "CoprimeSplitting",
                "DiademEvidence",
                "DiademWitness",
                "PropertyReport",
                "check_clean",
                "check_dyadic_range_1",
                "check_exchange",
                "check_gelfand",
                "check_hermite",
                "check_idempotent_stable_range_1",
                "check_stable_range_1",
                "check_stable_range_2",
                "counterexample_is_genuine",
                "find_coprime_splitting",
                "find_diadem",
                "gelfand_range_1_witness",
                "ideal_generated",
                "is_comaximal",
                "is_diadem_direct",
                "is_diadem_via_quotient",
                "radical_quotient",
                "verify_associate_diadems",
            ),
        ),
        (
            "matrices",
            (
                "Matrix",
                "ReductionCertificate",
                "format_certificate",
                "format_matrix",
                "parse_certificate",
                "parse_matrix",
            ),
        ),
        (
            "reduction",
            (
                "SR2Witness",
                "diadem_step",
                "hermite_reduce_1x2",
                "hermite_reduce_2x1",
                "reduce_2x2_comaximal",
                "smith_normal_form",
                "stable_range_2_witness",
            ),
        ),
        ("verification", ("check_certificate", "verify_certificate")),
    )
    for name in names
}

__all__ = tuple(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
