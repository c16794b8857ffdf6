"""Exhaustive decision procedures on finite commutative rings.

Every checker sweeps the full quantifier domain (no sampling) and returns a
PropertyReport; a negative verdict carries a replayable counterexample.
The diadem machinery gives three routes to the same notion: the direct
definition on finite rings, the stable-range-1 quotient criterion, and the
trivial case of a unit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from .rings import (
    InfiniteRingError,
    IntegerRing,
    PolynomialRing,
    Ring,
    RingElement,
    UnsupportedRingError,
    ideal_span,
    quotient_ring,
    jacobson_radical,
)

# Exhaustive checks refuse rings above these cardinalities unless the caller
# raises the bound; the triple-quantifier sweeps grow like |R|^5.
DEFAULT_PAIR_BOUND = 50
DEFAULT_TRIPLE_BOUND = 16


class CardinalityBoundError(ValueError):
    """The ring is too large for the requested exhaustive check."""


class RingProperty(enum.Enum):
    STABLE_RANGE_1 = "stable-range-1"
    STABLE_RANGE_2 = "stable-range-2"
    IDEMPOTENT_STABLE_RANGE_1 = "idempotent-stable-range-1"
    CLEAN = "clean"
    EXCHANGE = "exchange"
    GELFAND = "gelfand"
    HERMITE = "hermite"
    DYADIC_RANGE_1 = "dyadic-range-1"
    ASSOCIATE_DIADEMS = "associate-diadems"


@dataclass(frozen=True)
class PropertyReport:
    """Verdict of an exhaustive property check.

    checked counts the outer universally-quantified tuples that were
    enumerated; when the property holds it equals the full domain size.
    """

    property: RingProperty
    ring: Ring
    holds: bool
    counterexample: tuple[tuple[str, RingElement], ...] | None
    checked: int

    def line(self) -> str:
        parts = [
            f"property={self.property.value}",
            f"ring={self.ring.spec()}",
            f"holds={'true' if self.holds else 'false'}",
        ]
        if self.counterexample is not None:
            inner = " ".join(
                f"{label}={self.ring.format_element(elem)}"
                for label, elem in self.counterexample
            )
            parts.append(f"counterexample=[{inner}]")
        parts.append(f"checked={self.checked}")
        return " ".join(parts)


class DiademEvidence(enum.Enum):
    QUOTIENT_STABLE_RANGE_1 = "quotient-sr1"
    EXHAUSTIVE_DEFINITION = "exhaustive"
    TRIVIAL_UNIT = "trivial-unit"


@dataclass(frozen=True)
class DiademWitness:
    """A multiplier t such that a + b*t is a diadem of the comaximal pair (a, b)."""

    a: RingElement
    b: RingElement
    multiplier: RingElement
    diadem: RingElement
    evidence: DiademEvidence


@dataclass(frozen=True)
class CoprimeSplitting:
    """c = r*s with gcd(r, s) = gcd(r, a) = gcd(s, b) = 1 over the integers."""

    c: int
    r: int
    s: int


# ---------------------------------------------------------------------------
# Ideals and comaximality
# ---------------------------------------------------------------------------


def ideal_generated(ring: Ring, generators: Sequence[RingElement]) -> frozenset:
    """The ideal generated by the elements of a finite ring, as an element set."""
    for g in generators:
        ring._check(g)
    span = ideal_span(ring, tuple(g.payload for g in generators))
    return frozenset(RingElement(ring, x) for x in span)


def is_comaximal(ring: Ring, elems: Sequence[RingElement]) -> bool:
    """Whether the elements generate the whole ring as an ideal.

    Finite carriers reduce to a structural gcd being a unit (they are all
    Bezout); Z and GF(p)[x] use an iterated extended gcd.
    """
    for e in elems:
        ring._check(e)
    if not (ring.finite or isinstance(ring, (IntegerRing, PolynomialRing))):
        raise UnsupportedRingError(f"comaximality is not decidable on {ring.spec()}")
    return ring._ideal_has_one(tuple(e.payload for e in elems))


def _per_ring(compute):
    """Memoize compute(ring, payload) in the ring's own memo table.

    The table lives on the ring instance, so it is freed with the ring
    instead of keeping every ring alive for the life of the process.
    """

    def cached(ring: Ring, x):
        table = ring._memo.setdefault(compute, {})
        if x not in table:
            table[x] = compute(ring, x)
        return table[x]

    return cached


def _require_finite(ring: Ring, bound: int | None) -> None:
    if not ring.finite:
        raise InfiniteRingError(f"exhaustive check needs a finite ring, not {ring.spec()}")
    if bound is not None and ring.cardinality > bound:
        raise CardinalityBoundError(
            f"{ring.spec()} has cardinality {ring.cardinality}, above the bound {bound}"
        )


def _report(ring, prop, counter, checked):
    if counter is None:
        return PropertyReport(prop, ring, True, None, checked)
    labeled = tuple((label, RingElement(ring, x)) for label, x in counter)
    return PropertyReport(prop, ring, False, labeled, checked)


# ---------------------------------------------------------------------------
# Property checkers
# ---------------------------------------------------------------------------


def check_stable_range_1(ring: Ring, bound: int | None = DEFAULT_PAIR_BOUND) -> PropertyReport:
    """Every comaximal pair (a, b) shortens: some a + b*t is a unit."""
    _require_finite(ring, bound)
    elems = ring._payloads
    units = ring._unit_set
    checked = 0
    counter = None
    for a in elems:
        for b in elems:
            checked += 1
            if counter is not None:
                continue
            if not ring._ideal_has_one((a, b)):
                continue
            if not any(ring._add(a, ring._mul(b, t)) in units for t in elems):
                counter = (("a", a), ("b", b))
    return _report(ring, RingProperty.STABLE_RANGE_1, counter, checked)


def check_stable_range_2(ring: Ring, bound: int | None = DEFAULT_TRIPLE_BOUND) -> PropertyReport:
    """Every comaximal triple (a, b, c) shortens to a comaximal pair
    (a + c*s, b + c*t)."""
    _require_finite(ring, bound)
    elems = ring._payloads
    units = ring._unit_set
    checked = 0
    counter = None
    for a in elems:
        for b in elems:
            for c in elems:
                checked += 1
                if counter is not None:
                    continue
                if not ring._ideal_has_one((a, b, c)):
                    continue
                # A unit a + c*s settles it with t = 0.
                if any(ring._add(a, ring._mul(c, s)) in units for s in elems):
                    continue
                if not any(
                    ring._ideal_has_one(
                        (ring._add(a, ring._mul(c, s)), ring._add(b, ring._mul(c, t)))
                    )
                    for s in elems
                    for t in elems
                ):
                    counter = (("a", a), ("b", b), ("c", c))
    return _report(ring, RingProperty.STABLE_RANGE_2, counter, checked)


def check_idempotent_stable_range_1(
    ring: Ring, bound: int | None = DEFAULT_PAIR_BOUND
) -> PropertyReport:
    """Stable range 1 with the multiplier restricted to idempotents."""
    _require_finite(ring, bound)
    elems = ring._payloads
    units = ring._unit_set
    idems = ring._idempotents
    checked = 0
    counter = None
    for a in elems:
        for b in elems:
            checked += 1
            if counter is not None:
                continue
            if not ring._ideal_has_one((a, b)):
                continue
            if not any(ring._add(a, ring._mul(b, e)) in units for e in idems):
                counter = (("a", a), ("b", b))
    return _report(ring, RingProperty.IDEMPOTENT_STABLE_RANGE_1, counter, checked)


def check_clean(ring: Ring, bound: int | None = DEFAULT_PAIR_BOUND) -> PropertyReport:
    """Every element is a unit plus an idempotent."""
    _require_finite(ring, bound)
    units = ring._unit_set
    idems = ring._idempotents
    checked = 0
    counter = None
    for x in ring._payloads:
        checked += 1
        if counter is not None:
            continue
        if not any(ring._sub(x, e) in units for e in idems):
            counter = (("x", x),)
    return _report(ring, RingProperty.CLEAN, counter, checked)


def check_exchange(ring: Ring, bound: int | None = DEFAULT_PAIR_BOUND) -> PropertyReport:
    """For every comaximal (a, b) some idempotent e lies in aR with 1 - e in bR."""
    _require_finite(ring, bound)
    elems = ring._payloads
    idems = ring._idempotents
    one = ring._one()
    checked = 0
    counter = None
    for a in elems:
        aR = ring._principal(a)
        for b in elems:
            checked += 1
            if counter is not None:
                continue
            if not ring._ideal_has_one((a, b)):
                continue
            bR = ring._principal(b)
            if not any(e in aR and ring._sub(one, e) in bR for e in idems):
                counter = (("a", a), ("b", b))
    return _report(ring, RingProperty.EXCHANGE, counter, checked)


def check_gelfand(ring: Ring, bound: int | None = DEFAULT_PAIR_BOUND) -> PropertyReport:
    """For every a + b = 1 there are x, y with (1 + a*x)(1 + b*y) = 0.

    The domain is parameterized by a (b = 1 - a), so checked counts the
    cardinality of the ring.
    """
    _require_finite(ring, bound)
    elems = ring._payloads
    one = ring._one()
    zero = ring._zero()
    checked = 0
    counter = None
    for a in elems:
        checked += 1
        if counter is not None:
            continue
        b = ring._sub(one, a)
        found = False
        for x in elems:
            left = ring._add(one, ring._mul(a, x))
            if left == zero:
                found = True
                break
            for y in elems:
                if ring._mul(left, ring._add(one, ring._mul(b, y))) == zero:
                    found = True
                    break
            if found:
                break
        if not found:
            counter = (("a", a), ("b", b))
    return _report(ring, RingProperty.GELFAND, counter, checked)


@_per_ring
def _quotients_by(ring: Ring, g) -> dict:
    """target payload -> tuple of q with g*q = target, in canonical order."""
    table: dict = {}
    for q in ring._payloads:
        table.setdefault(ring._mul(g, q), []).append(q)
    return {t: tuple(qs) for t, qs in table.items()}


def _hermite_pair_ok(ring: Ring, a, b) -> bool:
    # (a b) completes to (g, 0) under an invertible Q iff a = g*a1, b = g*b1
    # with (a1, b1) comaximal; then Q is built from a1*u + b1*v = 1.
    for g in ring._payloads:
        gR = ring._principal(g)
        if a not in gR or b not in gR:
            continue
        table = _quotients_by(ring, g)
        for a1 in table[a]:
            for b1 in table[b]:
                if ring._ideal_has_one((a1, b1)):
                    return True
    return False


def check_hermite(ring: Ring, bound: int | None = DEFAULT_PAIR_BOUND) -> PropertyReport:
    """Every 1x2 row (a, b) admits (a b)Q = (g, 0) with Q invertible.

    Commutativity makes the 2x1 side automatic by transposition, so one
    sweep decides both.
    """
    _require_finite(ring, bound)
    elems = ring._payloads
    checked = 0
    counter = None
    for a in elems:
        for b in elems:
            checked += 1
            if counter is not None:
                continue
            if not _hermite_pair_ok(ring, a, b):
                counter = (("a", a), ("b", b))
    return _report(ring, RingProperty.HERMITE, counter, checked)


# ---------------------------------------------------------------------------
# Diadems
# ---------------------------------------------------------------------------


@_per_ring
def _is_diadem_payload(ring: Ring, w) -> bool:
    """Direct definition on a finite ring: for all (c, d) with (w, c, d)
    comaximal there is m with (w, c + d*m) comaximal."""
    elems = ring._payloads
    for c in elems:
        for d in elems:
            if not ring._ideal_has_one((w, c, d)):
                continue
            if not any(
                ring._ideal_has_one((w, ring._add(c, ring._mul(d, m)))) for m in elems
            ):
                return False
    return True


def is_diadem_direct(
    ring: Ring,
    a: RingElement,
    b: RingElement,
    multiplier: RingElement,
    bound: int | None = DEFAULT_TRIPLE_BOUND,
) -> bool:
    """Decide by exhausting the defining quantifiers whether a + b*multiplier
    is a diadem of the comaximal pair (a, b)."""
    _require_finite(ring, bound)
    if not is_comaximal(ring, (a, b)):
        raise ValueError("pair is not comaximal")
    w = ring._add(a.payload, ring._mul(b.payload, multiplier.payload))
    return _is_diadem_payload(ring, w)


@_per_ring
def _quotient_has_stable_range_1(ring: Ring, w) -> bool:
    quotient = quotient_ring(ring, RingElement(ring, w))
    return check_stable_range_1(quotient, bound=None).holds


def is_diadem_via_quotient(
    ring: Ring, a: RingElement, b: RingElement, multiplier: RingElement
) -> bool:
    """Quotient criterion: a + b*t is a diadem iff ring/(a + b*t) has stable
    range 1.  This is the computable test over Z and GF(p)[x], where any
    nonzero value leaves a finite quotient."""
    ring._check(a)
    ring._check(b)
    ring._check(multiplier)
    w = ring._add(a.payload, ring._mul(b.payload, multiplier.payload))
    if not ring.finite:
        if not isinstance(ring, (IntegerRing, PolynomialRing)):
            raise UnsupportedRingError(f"no quotient criterion on {ring.spec()}")
        if w == ring._zero():
            raise InfiniteRingError("infinite quotient: a + b*t is 0")
    return _quotient_has_stable_range_1(ring, w)


def find_diadem(ring: Ring, a: RingElement, b: RingElement) -> DiademWitness:
    """First multiplier (in canonical order) whose combination a + b*t is a
    diadem of the comaximal pair (a, b).

    Over Z the order is 0, 1, -1, 2, -2, ... and the first t with a
    nonzero combination wins: every nonzero integer leaves a finite
    quotient, which has stable range 1.  Over GF(p)[x] the canonical
    enumeration plays the same role.  On finite rings each candidate is
    certified against the direct definition.
    """
    ring._check(a)
    ring._check(b)
    if not is_comaximal(ring, (a, b)):
        raise ValueError("pair is not comaximal")
    zero = ring._zero()
    if ring.finite:
        for t in ring._payloads:
            w = ring._add(a.payload, ring._mul(b.payload, t))
            if ring._is_unit(w):
                evidence = DiademEvidence.TRIVIAL_UNIT
            elif _is_diadem_payload(ring, w):
                evidence = DiademEvidence.EXHAUSTIVE_DEFINITION
            else:
                continue
            return DiademWitness(
                a, b, RingElement(ring, t), RingElement(ring, w), evidence
            )
        raise ValueError("diadem search exhausted")  # unreachable: finite commutative
    if not isinstance(ring, (IntegerRing, PolynomialRing)):
        raise UnsupportedRingError(f"diadem search is not available on {ring.spec()}")
    for t in ring._enumerate_payloads():
        w = ring._add(a.payload, ring._mul(b.payload, t))
        if w == zero:
            continue
        evidence = (
            DiademEvidence.TRIVIAL_UNIT
            if ring._is_unit(w)
            else DiademEvidence.QUOTIENT_STABLE_RANGE_1
        )
        return DiademWitness(a, b, RingElement(ring, t), RingElement(ring, w), evidence)
    raise ValueError("diadem search exhausted")  # unreachable: b = 0 forces a a unit


def check_dyadic_range_1(
    ring: Ring, bound: int | None = DEFAULT_TRIPLE_BOUND
) -> PropertyReport:
    """Every comaximal pair has a diadem, decided by the direct definition."""
    _require_finite(ring, bound)
    elems = ring._payloads
    checked = 0
    counter = None
    for a in elems:
        for b in elems:
            checked += 1
            if counter is not None:
                continue
            if not ring._ideal_has_one((a, b)):
                continue
            if not any(
                _is_diadem_payload(ring, ring._add(a, ring._mul(b, t))) for t in elems
            ):
                counter = (("a", a), ("b", b))
    return _report(ring, RingProperty.DYADIC_RANGE_1, counter, checked)


def verify_associate_diadems(
    ring: Ring, bound: int | None = DEFAULT_PAIR_BOUND
) -> PropertyReport:
    """Whenever aR = bR, some diadems d1, d2 satisfy a*d1 = b and b*d2 = a.

    Any element d is realized as the diadem d + 1*0 of the comaximal pair
    (d, 1), so the search reduces to diadem elements.
    """
    _require_finite(ring, bound)
    dyadic = check_dyadic_range_1(ring, bound=bound)
    if not dyadic.holds:
        raise ValueError(f"{ring.spec()} does not have dyadic range 1")
    elems = ring._payloads
    diadems = tuple(d for d in elems if _is_diadem_payload(ring, d))
    checked = 0
    counter = None
    for a in elems:
        aR = ring._principal(a)
        for b in elems:
            checked += 1
            if counter is not None:
                continue
            if aR != ring._principal(b):
                continue
            d1 = next((d for d in diadems if ring._mul(a, d) == b), None)
            d2 = next((d for d in diadems if ring._mul(b, d) == a), None)
            if d1 is None or d2 is None:
                counter = (("a", a), ("b", b))
    return _report(ring, RingProperty.ASSOCIATE_DIADEMS, counter, checked)


# ---------------------------------------------------------------------------
# Coprime splittings over Z
# ---------------------------------------------------------------------------


def find_coprime_splitting(c: int, a: int, b: int) -> CoprimeSplitting:
    """Factor c = r*s with gcd(r, s) = gcd(r, a) = gcd(s, b) = 1, r > 0 least.

    gcd peeling, no factoring: strip from |c| every prime it shares with b;
    what is left is the largest x dividing |c| with gcd(x, b) = 1, and
    r = |c| / x.  Since s = c / r must be coprime to b, every valid r
    carries the full power of each prime of c that divides b, so this r
    is the least.  It is coprime to a because gcd(a, b, c) = 1, and to s
    because the primes of s do not divide b.
    """
    if c == 0:
        raise ValueError("c must be nonzero")
    if math.gcd(a, b, c) != 1:
        raise ValueError("gcd(a, b, c) must be 1")
    x = abs(c)
    g = math.gcd(x, b)
    while g > 1:
        x //= g
        g = math.gcd(x, b)
    r = abs(c) // x
    return CoprimeSplitting(c, r, c // r)


# ---------------------------------------------------------------------------
# Radical quotient and counterexample replay
# ---------------------------------------------------------------------------


def radical_quotient(ring: Ring) -> Ring:
    """R/J(R), built by coset enumeration over a principal generator of the
    Jacobson radical (all the finite carriers here are principal ideal rings)."""
    rad = jacobson_radical(ring)
    members = frozenset(e.payload for e in rad.members)
    for g in ring._payloads:
        if ring._principal(g) == members:
            return quotient_ring(ring, RingElement(ring, g))
    raise UnsupportedRingError(f"Jacobson radical of {ring.spec()} is not principal")


def counterexample_is_genuine(report: PropertyReport) -> bool:
    """Replay a negative report against the raw defining formula.

    True means the recorded tuple really violates the property; a
    fabricated counterexample comes back False.
    """
    if report.holds or report.counterexample is None:
        raise ValueError("report carries no counterexample")
    ring = report.ring
    ce = {label: elem.payload for label, elem in report.counterexample}
    elems = ring._payloads
    units = ring._unit_set
    one = ring._one()
    zero = ring._zero()
    prop = report.property
    if prop == RingProperty.STABLE_RANGE_1:
        a, b = ce["a"], ce["b"]
        return ring._ideal_has_one((a, b)) and not any(
            ring._add(a, ring._mul(b, t)) in units for t in elems
        )
    if prop == RingProperty.STABLE_RANGE_2:
        a, b, c = ce["a"], ce["b"], ce["c"]
        return ring._ideal_has_one((a, b, c)) and not any(
            ring._ideal_has_one(
                (ring._add(a, ring._mul(c, s)), ring._add(b, ring._mul(c, t)))
            )
            for s in elems
            for t in elems
        )
    if prop == RingProperty.IDEMPOTENT_STABLE_RANGE_1:
        a, b = ce["a"], ce["b"]
        return ring._ideal_has_one((a, b)) and not any(
            ring._add(a, ring._mul(b, e)) in units for e in ring._idempotents
        )
    if prop == RingProperty.CLEAN:
        x = ce["x"]
        return not any(ring._sub(x, e) in units for e in ring._idempotents)
    if prop == RingProperty.EXCHANGE:
        a, b = ce["a"], ce["b"]
        aR, bR = ring._principal(a), ring._principal(b)
        return ring._ideal_has_one((a, b)) and not any(
            e in aR and ring._sub(one, e) in bR for e in ring._idempotents
        )
    if prop == RingProperty.GELFAND:
        a, b = ce["a"], ce["b"]
        if ring._add(a, b) != one:
            return False
        return not any(
            ring._mul(
                ring._add(one, ring._mul(a, x)), ring._add(one, ring._mul(b, y))
            )
            == zero
            for x in elems
            for y in elems
        )
    if prop == RingProperty.HERMITE:
        return not _hermite_pair_ok(ring, ce["a"], ce["b"])
    if prop == RingProperty.DYADIC_RANGE_1:
        a, b = ce["a"], ce["b"]
        return ring._ideal_has_one((a, b)) and not any(
            _is_diadem_payload(ring, ring._add(a, ring._mul(b, t))) for t in elems
        )
    if prop == RingProperty.ASSOCIATE_DIADEMS:
        a, b = ce["a"], ce["b"]
        if ring._principal(a) != ring._principal(b):
            return False
        diadems = tuple(d for d in elems if _is_diadem_payload(ring, d))
        return not (
            any(ring._mul(a, d) == b for d in diadems)
            and any(ring._mul(b, d) == a for d in diadems)
        )
    raise ValueError(f"unknown property {prop}")


CHECKERS = {
    RingProperty.STABLE_RANGE_1: check_stable_range_1,
    RingProperty.STABLE_RANGE_2: check_stable_range_2,
    RingProperty.IDEMPOTENT_STABLE_RANGE_1: check_idempotent_stable_range_1,
    RingProperty.CLEAN: check_clean,
    RingProperty.EXCHANGE: check_exchange,
    RingProperty.GELFAND: check_gelfand,
    RingProperty.HERMITE: check_hermite,
    RingProperty.DYADIC_RANGE_1: check_dyadic_range_1,
}

TRIPLE_QUANTIFIER = frozenset(
    {RingProperty.STABLE_RANGE_2, RingProperty.DYADIC_RANGE_1}
)
