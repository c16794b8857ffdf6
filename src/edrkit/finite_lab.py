"""Exhaustive decision procedures on finite commutative rings.

Each property has one search, _<property>_violation(ring, tuples), that
returns the first outer tuple violating the property's defining formula,
or None.  The checkers feed it the full quantifier domain (no sampling)
and wrap its answer in a PropertyReport; counterexample_is_genuine replays
a negative report by running the same search on the one recorded tuple.
A diadem w is decided through its quotient: the definition holds exactly
when R/wR has stable range 1 (_is_diadem_payload states the identity), so
finite rings, Z and GF(p)[x] share one stable-range-1 sweep, and a unit is
the trivial case.
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import Sequence

from .properties import DEFAULT_PAIR_BOUND, DEFAULT_TRIPLE_BOUND, RingProperty
from .rings import (
    CardinalityBoundError,
    EuclideanRing,
    InfiniteRingError,
    IntegerRing,
    Ring,
    RingElement,
    UnsupportedRingError,
    _excerpt,
    _generator,
    _int_excerpt,
    quotient_ring,
    jacobson_radical,
    value_class,
)


@value_class
class PropertyReport:
    """Verdict of an exhaustive property check.

    checked is the size of the outer universally-quantified domain,
    |R|^arity (|R| for clean and Gelfand, |R|^3 for stable range 2,
    |R|^2 otherwise), whether or not a counterexample turned up.
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


@value_class
class DiademWitness:
    """A multiplier t such that a + b*t is a diadem of the comaximal pair (a, b)."""

    a: RingElement
    b: RingElement
    multiplier: RingElement
    diadem: RingElement
    evidence: DiademEvidence


@value_class
class CoprimeSplitting:
    """c = r*s with gcd(r, s) = gcd(r, a) = gcd(s, b) = 1 over the integers."""

    c: int
    r: int
    s: int


# ---------------------------------------------------------------------------
# Ideals and comaximality
# ---------------------------------------------------------------------------


def ideal_generated(ring: Ring, generators: Sequence[RingElement]) -> frozenset:
    """The ideal generated by the elements of a finite ring, as an element set:
    the multiples of one generator folded from their gcds."""
    for g in generators:
        ring._check(g)
    elems = ring._payloads  # raises InfiniteRingError first on an infinite ring
    g = _generator(ring, (e.payload for e in generators))
    return frozenset(RingElement(ring, ring._mul(g, r)) for r in elems)


def is_comaximal(ring: Ring, elems: Sequence[RingElement]) -> bool:
    """Whether the elements generate the whole ring as an ideal.

    Finite carriers reduce to a structural gcd being a unit (they are all
    Bezout); Z and GF(p)[x] use an iterated extended gcd.
    """
    for e in elems:
        ring._check(e)
    if not (ring.finite or isinstance(ring, EuclideanRing)):
        raise UnsupportedRingError(f"comaximality is not decidable on {ring.spec()}")
    return ring._ideal_has_one(tuple(e.payload for e in elems))


def _require_finite(ring: Ring, bound: int | None) -> None:
    if not ring.finite:
        raise InfiniteRingError(f"exhaustive check needs a finite ring, not {ring.spec()}")
    if bound is not None and ring.cardinality > bound:
        raise CardinalityBoundError(
            f"{_excerpt(ring.spec())} has cardinality {_int_excerpt(ring.cardinality)},"
            f" above the bound {bound}"
        )


def _sweep(ring: Ring, prop: RingProperty, bound: int | None) -> PropertyReport:
    """Run the property's search over the whole outer domain R^arity."""
    _require_finite(ring, bound)
    arity, search = _SEARCHES[prop]
    elems = ring._payloads
    found = search(ring, itertools.product(elems, repeat=arity))
    counterexample = (
        None if found is None else tuple((label, RingElement(ring, x)) for label, x in found)
    )
    return PropertyReport(prop, ring, found is None, counterexample, len(elems) ** arity)


# ---------------------------------------------------------------------------
# Property searches and checkers
# ---------------------------------------------------------------------------


def _shift_violation(ring: Ring, tuples, multipliers, targets):
    """First comaximal (a, b) with no a + b*t in targets for t in multipliers."""
    for a, b in tuples:
        if ring._ideal_has_one((a, b)) and not any(
            ring._add(a, ring._mul(b, t)) in targets for t in multipliers
        ):
            return (("a", a), ("b", b))
    return None


def _stable_range_1_violation(ring: Ring, tuples):
    return _shift_violation(ring, tuples, ring._payloads, ring._unit_set)


def check_stable_range_1(ring: Ring, bound: int | None = DEFAULT_PAIR_BOUND) -> PropertyReport:
    """Every comaximal pair (a, b) shortens: some a + b*t is a unit."""
    return _sweep(ring, RingProperty.STABLE_RANGE_1, bound)


def _stable_range_2_violation(ring: Ring, tuples):
    elems = ring._payloads
    units = ring._unit_set
    for a, b, c in tuples:
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
            return (("a", a), ("b", b), ("c", c))
    return None


def check_stable_range_2(ring: Ring, bound: int | None = DEFAULT_TRIPLE_BOUND) -> PropertyReport:
    """Every comaximal triple (a, b, c) shortens to a comaximal pair
    (a + c*s, b + c*t)."""
    return _sweep(ring, RingProperty.STABLE_RANGE_2, bound)


def _idempotent_stable_range_1_violation(ring: Ring, tuples):
    return _shift_violation(ring, tuples, ring._idempotents, ring._unit_set)


def check_idempotent_stable_range_1(
    ring: Ring, bound: int | None = DEFAULT_PAIR_BOUND
) -> PropertyReport:
    """Stable range 1 with the multiplier restricted to idempotents."""
    return _sweep(ring, RingProperty.IDEMPOTENT_STABLE_RANGE_1, bound)


def _clean_violation(ring: Ring, tuples):
    units = ring._unit_set
    idems = ring._idempotents
    for (x,) in tuples:
        if not any(ring._sub(x, e) in units for e in idems):
            return (("x", x),)
    return None


def check_clean(ring: Ring, bound: int | None = DEFAULT_PAIR_BOUND) -> PropertyReport:
    """Every element is a unit plus an idempotent."""
    return _sweep(ring, RingProperty.CLEAN, bound)


def _divisors_of(ring: Ring, y) -> frozenset:
    """All x with y in xR."""
    return frozenset(x for x in ring._payloads if ring._divides(x, y) is not None)


def _exchange_violation(ring: Ring, tuples):
    one = ring._one()
    # e in aR and 1 - e in bR, as a divides e and b divides 1 - e
    splits = [
        (_divisors_of(ring, e), _divisors_of(ring, ring._sub(one, e))) for e in ring._idempotents
    ]
    for a, b in tuples:
        if not ring._ideal_has_one((a, b)):
            continue
        if not any(a in left and b in right for left, right in splits):
            return (("a", a), ("b", b))
    return None


def check_exchange(ring: Ring, bound: int | None = DEFAULT_PAIR_BOUND) -> PropertyReport:
    """For every comaximal (a, b) some idempotent e lies in aR with 1 - e in bR."""
    return _sweep(ring, RingProperty.EXCHANGE, bound)


def _gelfand_violation(ring: Ring, tuples):
    one = ring._one()
    zero = ring._zero()
    cosets: dict = {}  # x -> 1 + xR, built once per call: each b = 1 - a is an a too
    for (a,) in tuples:
        b = ring._sub(one, a)
        # 1 + a*x and 1 + b*y range over the cosets 1 + aR and 1 + bR
        for x in (a, b):
            if x not in cosets:
                cosets[x] = {ring._add(one, r) for r in {ring._mul(x, y) for y in ring._payloads}}
        if not any(ring._mul(left, right) == zero for left in cosets[a] for right in cosets[b]):
            return (("a", a), ("b", b))
    return None


def check_gelfand(ring: Ring, bound: int | None = DEFAULT_PAIR_BOUND) -> PropertyReport:
    """For every a + b = 1 there are x, y with (1 + a*x)(1 + b*y) = 0.

    The domain is parameterized by a (b = 1 - a), so checked counts the
    cardinality of the ring.
    """
    return _sweep(ring, RingProperty.GELFAND, bound)


def _quotients_by(ring: Ring, g) -> dict:
    """target payload -> tuple of q with g*q = target, in canonical order."""
    table: dict = {}
    for q in ring._payloads:
        table.setdefault(ring._mul(g, q), []).append(q)
    return {t: tuple(qs) for t, qs in table.items()}


def _hermite_violation(ring: Ring, tuples):
    # (a b) completes to (g, 0) under an invertible Q iff a = g*a1, b = g*b1
    # with (a1, b1) comaximal; then Q is built from a1*u + b1*v = 1.  The
    # keys of g's quotient table make up gR.
    tables = [_quotients_by(ring, g) for g in ring._payloads]
    has_one = ring._ideal_has_one
    for a, b in tuples:
        for quot in tables:
            if a in quot and b in quot and any(map(has_one, itertools.product(quot[a], quot[b]))):
                break
        else:
            return (("a", a), ("b", b))
    return None


def check_hermite(ring: Ring, bound: int | None = DEFAULT_PAIR_BOUND) -> PropertyReport:
    """Every 1x2 row (a, b) admits (a b)Q = (g, 0) with Q invertible.

    Commutativity makes the 2x1 side automatic by transposition, so one
    sweep decides both.
    """
    return _sweep(ring, RingProperty.HERMITE, bound)


# ---------------------------------------------------------------------------
# Diadems
# ---------------------------------------------------------------------------


def _is_diadem_payload(ring: Ring, w) -> bool:
    """Whether w is a diadem of the finite ring: whether R/wR has stable range 1.

    The definition asks that for all (c, d) with (w, c, d) comaximal some m
    make (w, c + d*m) comaximal.  Both clauses see c, d and m only through
    their images in R/wR: (w, c, d) is comaximal iff (c̄, d̄) is comaximal
    in R/wR, and (w, c + d*m) is comaximal iff c̄ + d̄*m̄ is a unit there.
    Every element of R/wR lifts, so the definition is word for word the
    stable-range-1 sweep of R/wR: |R/wR|^2 pairs, each trying at most
    |R/wR| multipliers, where the quantifiers over R cost |R|^3.

    The verdicts are memoized in the ring's own memo table, keyed by this
    function, so they are freed with the ring instead of keeping every ring
    alive for the life of the process.
    """
    table = ring._memo.setdefault(_is_diadem_payload, {})
    if w not in table:
        table[w] = check_stable_range_1(quotient_ring(ring, RingElement(ring, w)), bound=None).holds
    return table[w]


def is_diadem_direct(
    ring: Ring,
    a: RingElement,
    b: RingElement,
    multiplier: RingElement,
    bound: int | None = DEFAULT_TRIPLE_BOUND,
) -> bool:
    """Decide whether a + b*multiplier is a diadem of the comaximal pair
    (a, b) by evaluating the definition exhaustively on a finite ring of at
    most bound elements, through the identity of _is_diadem_payload."""
    _require_finite(ring, bound)
    if not is_comaximal(ring, (a, b)):
        raise ValueError("pair is not comaximal")
    w = ring._add(a.payload, ring._mul(b.payload, multiplier.payload))
    return _is_diadem_payload(ring, w)


def is_diadem_via_quotient(
    ring: Ring,
    a: RingElement,
    b: RingElement,
    multiplier: RingElement,
    bound: int | None = DEFAULT_PAIR_BOUND,
) -> bool:
    """Quotient criterion: a + b*t is a diadem iff ring/(a + b*t) has stable
    range 1.  This is the computable test over Z and GF(p)[x], where any
    nonzero value leaves a finite quotient.

    The stable-range-1 sweep of the quotient is quadratic in its
    cardinality, which must not exceed bound (None lifts the guard).
    Verdicts are memoized per ring only on finite rings, whose size
    bounds the memo.
    """
    ring._check(a)
    ring._check(b)
    ring._check(multiplier)
    w = ring._add(a.payload, ring._mul(b.payload, multiplier.payload))
    if ring.finite:
        _require_finite(quotient_ring(ring, RingElement(ring, w)), bound)
        return _is_diadem_payload(ring, w)
    if not isinstance(ring, EuclideanRing):
        raise UnsupportedRingError(f"no quotient criterion on {ring.spec()}")
    if w == ring._zero():
        raise InfiniteRingError("infinite quotient: a + b*t is 0")
    return check_stable_range_1(quotient_ring(ring, RingElement(ring, w)), bound=bound).holds


def find_diadem(
    ring: Ring, a: RingElement, b: RingElement, bound: int | None = None
) -> DiademWitness:
    """First multiplier (in canonical order) whose combination a + b*t is a
    diadem of the comaximal pair (a, b).

    Over Z the order is 0, 1, -1, 2, -2, ... and the first t with a
    nonzero combination wins: every nonzero integer leaves a finite
    quotient, which has stable range 1.  Over GF(p)[x] the canonical
    enumeration plays the same role.  On finite rings each candidate is
    certified by the definition, evaluated exhaustively as the
    stable-range-1 sweep of R/wR; an R/wR of more than bound elements
    (None lifts the guard) raises CardinalityBoundError before it is swept.
    """
    ring._check(a)
    ring._check(b)
    if not is_comaximal(ring, (a, b)):
        raise ValueError("pair is not comaximal")
    zero = ring._zero()
    for t in ring._enumerate_payloads():
        w = ring._add(a.payload, ring._mul(b.payload, t))
        if ring._is_unit(w):
            evidence = DiademEvidence.TRIVIAL_UNIT
        elif not ring.finite:
            if w == zero:
                continue
            evidence = DiademEvidence.QUOTIENT_STABLE_RANGE_1
        else:
            _require_finite(quotient_ring(ring, RingElement(ring, w)), bound)
            if not _is_diadem_payload(ring, w):
                continue
            evidence = DiademEvidence.EXHAUSTIVE_DEFINITION
        return DiademWitness(a, b, RingElement(ring, t), RingElement(ring, w), evidence)
    raise ValueError("diadem search exhausted")  # unreachable: finite commutative


def _dyadic_range_1_violation(ring: Ring, tuples):
    elems = ring._payloads
    for a, b in tuples:
        if ring._ideal_has_one((a, b)) and not any(
            _is_diadem_payload(ring, ring._add(a, ring._mul(b, t))) for t in elems
        ):
            return (("a", a), ("b", b))
    return None


def check_dyadic_range_1(
    ring: Ring, bound: int | None = DEFAULT_TRIPLE_BOUND
) -> PropertyReport:
    """Every comaximal pair has a diadem, decided by _is_diadem_payload.

    The |R|^2 pairs try at most |R| multipliers each, and the ring's memo
    sweeps R/wR once per w, at most |R/wR|^3 steps.  As |R/wR| = |R|/|wR|
    and at most |I| elements generate a principal ideal I, the sweeps sum
    to at most |R|^3 times the sum of |I|^-2 over the principal ideals.  On
    a chain ring with residue field F that sum is below
    1 + 1/(|F|^2 - 1) <= 4/3, and it multiplies over a product; every
    carrier here is a product of k such rings, so the whole check costs at
    most (1 + (4/3)^k) |R|^3 steps: cubic up to (4/3)^k <= |R|^0.42.
    """
    return _sweep(ring, RingProperty.DYADIC_RANGE_1, bound)


def _associate_diadems_violation(ring: Ring, tuples):
    elems = ring._payloads
    for a, b in tuples:
        if ring._divides(a, b) is None or ring._divides(b, a) is None:
            continue  # aR != bR
        if not (
            any(ring._mul(a, d) == b and _is_diadem_payload(ring, d) for d in elems)
            and any(ring._mul(b, d) == a and _is_diadem_payload(ring, d) for d in elems)
        ):
            return (("a", a), ("b", b))
    return None


def verify_associate_diadems(
    ring: Ring, bound: int | None = DEFAULT_PAIR_BOUND
) -> PropertyReport:
    """Whenever aR = bR, some diadems d1, d2 satisfy a*d1 = b and b*d2 = a.

    Any element d is realized as the diadem d + 1*0 of the comaximal pair
    (d, 1), so the search reduces to diadem elements.
    """
    if not check_dyadic_range_1(ring, bound=bound).holds:
        raise ValueError(f"{ring.spec()} does not have dyadic range 1")
    return _sweep(ring, RingProperty.ASSOCIATE_DIADEMS, bound)


# ---------------------------------------------------------------------------
# Coprime splittings and Gelfand witnesses over Z
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


def gelfand_range_1_witness(a: int, b: int) -> int:
    """Multiplier t with a + b*t nonzero and Z/(a + b*t) a Gelfand ring.

    Same search order as find_diadem over Z; every nonzero quotient of Z
    is finite and the exhaustive Gelfand check decides it.
    """
    if math.gcd(a, b) != 1:
        raise ValueError("gcd(a, b) must be 1")
    integers = IntegerRing()
    for t in integers._enumerate_payloads():
        w = a + b * t
        if w == 0:
            continue
        quotient = quotient_ring(integers, integers.element(w))
        if check_gelfand(quotient, bound=None).holds:
            return t
    raise AssertionError("gelfand witness search cannot fail")


# ---------------------------------------------------------------------------
# Radical quotient and counterexample replay
# ---------------------------------------------------------------------------


def radical_quotient(ring: Ring) -> Ring:
    """R/J(R), the quotient_ring by a generator of the Jacobson radical folded
    from its members (all the finite carriers here are principal ideal rings,
    and every generator gives the same structural quotient)."""
    members = jacobson_radical(ring).members
    return quotient_ring(ring, RingElement(ring, _generator(ring, (e.payload for e in members))))


def counterexample_is_genuine(report: PropertyReport) -> bool:
    """Replay a negative report through the checker's own search.

    The property's search runs on the one recorded outer tuple; True means
    it flags that tuple and reproduces the recorded counterexample, labels
    included.  A fabricated counterexample, or one whose labels are not the
    checker's own, comes back False; elements of another ring raise
    RingMismatchError.
    """
    if report.holds or report.counterexample is None:
        raise ValueError("report carries no counterexample")
    for _, elem in report.counterexample:
        report.ring._check(elem)
    arity, search = _SEARCHES[report.property]
    recorded = tuple((label, elem.payload) for label, elem in report.counterexample)
    if len(recorded) < arity:
        return False
    outer = tuple(x for _, x in recorded[:arity])
    return search(report.ring, (outer,)) == recorded


# property -> (arity of the outer quantifier domain, search)
_SEARCHES = {
    RingProperty.STABLE_RANGE_1: (2, _stable_range_1_violation),
    RingProperty.STABLE_RANGE_2: (3, _stable_range_2_violation),
    RingProperty.IDEMPOTENT_STABLE_RANGE_1: (2, _idempotent_stable_range_1_violation),
    RingProperty.CLEAN: (1, _clean_violation),
    RingProperty.EXCHANGE: (2, _exchange_violation),
    RingProperty.GELFAND: (1, _gelfand_violation),
    RingProperty.HERMITE: (2, _hermite_violation),
    RingProperty.DYADIC_RANGE_1: (2, _dyadic_range_1_violation),
    RingProperty.ASSOCIATE_DIADEMS: (2, _associate_diadems_violation),
}

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
