"""Exact diagonal reduction over Bezout rings, with certificates, plus
exhaustive ring-property decision procedures on finite commutative rings."""

from .rings import (
    BezoutCertificate,
    EuclideanQuotientRing,
    EuclideanRing,
    InfiniteRingError,
    IntegerModRing,
    IntegerRing,
    JacobsonRadicalSet,
    PolynomialQuotientRing,
    PolynomialRing,
    ProductRing,
    Ring,
    RingElement,
    RingMismatchError,
    RingParseError,
    UnsupportedRingError,
    annihilator,
    bezout_gcd,
    jacobson_radical,
    quotient_ring,
    ring_parse,
)
from .finite_lab import (
    CardinalityBoundError,
    CoprimeSplitting,
    DiademEvidence,
    DiademWitness,
    PropertyReport,
    RingProperty,
    check_clean,
    check_dyadic_range_1,
    check_exchange,
    check_gelfand,
    check_hermite,
    check_idempotent_stable_range_1,
    check_stable_range_1,
    check_stable_range_2,
    counterexample_is_genuine,
    find_coprime_splitting,
    find_diadem,
    ideal_generated,
    is_comaximal,
    is_diadem_direct,
    is_diadem_via_quotient,
    radical_quotient,
    verify_associate_diadems,
)
from .matrices import (
    Matrix,
    ReductionCertificate,
    format_certificate,
    format_matrix,
    parse_certificate,
    parse_matrix,
)
from .reduction import (
    SR2Witness,
    diadem_step,
    gelfand_range_1_witness,
    hermite_reduce_1x2,
    hermite_reduce_2x1,
    reduce_2x2_comaximal,
    smith_normal_form,
    stable_range_2_witness,
)
from .verification import CertificateShapeError, check_certificate, verify_certificate

__version__ = "0.1.0"
