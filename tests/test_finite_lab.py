import functools
import gc
import io
import math
import random
import time
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edrkit import (
    CardinalityBoundError,
    DiademEvidence,
    InfiniteRingError,
    IntegerModRing,
    IntegerRing,
    PolynomialQuotientRing,
    ProductRing,
    PropertyReport,
    RingElement,
    RingMismatchError,
    RingProperty,
    UnsupportedRingError,
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
    gelfand_range_1_witness,
    ideal_generated,
    is_comaximal,
    is_diadem_direct,
    is_diadem_via_quotient,
    jacobson_radical,
    quotient_ring,
    radical_quotient,
    ring_parse,
    verify_associate_diadems,
)
from edrkit.cli import main
from edrkit.finite_lab import CHECKERS, _is_diadem_payload

from oracles import (
    LocalNonPrincipalRing,
    brute_coprime_splitting,
    brute_hermite_pair,
    brute_ideal_span,
    definition_is_diadem,
    first_generator_radical_quotient,
)

Z = IntegerRing()
R12 = IntegerModRing(12)


SMALL_RINGS = [
    IntegerModRing(6),
    IntegerModRing(8),
    IntegerModRing(12),
    IntegerModRing(5),
    ring_parse("Z/2 x Z/3"),
    ring_parse("GF(2)[x]/(0,0,1)"),
    ring_parse("GF(2)[x]/(1,1,1)"),
]


# -- ideals and comaximality ----------------------------------------------------


def test_ideal_generated_examples():
    gens = [R12.element(4), R12.element(6)]
    assert {e.payload for e in ideal_generated(R12, gens)} == {0, 2, 4, 6, 8, 10}
    assert len(ideal_generated(R12, [R12.element(5)])) == 12
    assert {e.payload for e in ideal_generated(R12, [])} == {0}


def test_ideal_generated_is_closed():
    ring = ring_parse("Z/4 x Z/3")
    gens = [ring.element((2, 0)), ring.element((0, 1))]
    ideal = {e.payload for e in ideal_generated(ring, gens)}
    elems = [e.payload for e in ring.elements()]
    for x in ideal:
        for y in ideal:
            assert ring._add(x, y) in ideal
        for r in elems:
            assert ring._mul(x, r) in ideal


def test_is_comaximal_examples():
    assert is_comaximal(Z, [Z.element(6), Z.element(10), Z.element(15)])
    assert not is_comaximal(Z, [Z.element(4), Z.element(6)])
    assert not is_comaximal(R12, [R12.element(4), R12.element(6)])
    g5 = ring_parse("GF(5)[x]")
    x2_1, x_1, x_2 = g5.element([4, 0, 1]), g5.element([4, 1]), g5.element([3, 1])
    assert is_comaximal(g5, [x2_1, x_2])  # x^2 - 1 and x - 2 share no root
    assert not is_comaximal(g5, [x2_1, x_1])
    zz = ring_parse("Z x Z")
    with pytest.raises(UnsupportedRingError, match="not decidable"):
        is_comaximal(zz, [zz.element((1, 1))])


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: r.spec())
def test_is_comaximal_matches_ideal_generated(ring):
    rng = random.Random(11)
    elems = list(ring.elements())
    whole = set(ring._payloads)
    for _ in range(40):
        picked = [rng.choice(elems) for _ in range(rng.randint(1, 3))]
        expected = brute_ideal_span(ring, tuple(e.payload for e in picked)) == whole
        assert is_comaximal(ring, picked) == expected


PRODUCT_RINGS = [ProductRing(left, right) for left in SMALL_RINGS for right in SMALL_RINGS]


def test_ideal_generated_matches_breadth_first_closure():
    rng = random.Random("ideal-span")
    for ring in SMALL_RINGS + PRODUCT_RINGS[::4]:
        elems = list(ring.elements())
        for _ in range(30):
            picked = [rng.choice(elems) for _ in range(rng.randint(0, 3))]
            want = brute_ideal_span(ring, tuple(e.payload for e in picked))
            assert {e.payload for e in ideal_generated(ring, picked)} == want, ring.spec()


# -- property checkers -----------------------------------------------------------


EXPECTED_DOMAIN = {
    RingProperty.STABLE_RANGE_1: lambda n: n * n,
    RingProperty.STABLE_RANGE_2: lambda n: n**3,
    RingProperty.IDEMPOTENT_STABLE_RANGE_1: lambda n: n * n,
    RingProperty.CLEAN: lambda n: n,
    RingProperty.EXCHANGE: lambda n: n * n,
    RingProperty.GELFAND: lambda n: n,
    RingProperty.HERMITE: lambda n: n * n,
    RingProperty.DYADIC_RANGE_1: lambda n: n * n,
}


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: r.spec())
def test_all_properties_hold_with_full_domains(ring):
    for prop, checker in CHECKERS.items():
        report = checker(ring, bound=None)
        assert report.holds, report.line()
        assert report.checked == EXPECTED_DOMAIN[prop](ring.cardinality)
        assert report.counterexample is None


# the arity-3 sweep and the diadem search cost about 100 times more than
# the other checkers: up to seconds each on a ring of 48 elements
_COSTLY = {RingProperty.STABLE_RANGE_2, RingProperty.DYADIC_RANGE_1}


def _small_factors(limit):
    """Z/n and GF(p)[x]/(f) with at most limit elements."""
    moduli = st.integers(2, limit).map(IntegerModRing)
    shapes = [(p, d) for p in (2, 3, 5, 7) for d in range(1, 6) if p**d <= limit]
    polys = st.sampled_from(shapes).flatmap(
        lambda pd: st.tuples(
            st.lists(st.integers(0, pd[0] - 1), min_size=pd[1], max_size=pd[1]),
            st.integers(1, pd[0] - 1),
        ).map(lambda fl: PolynomialQuotientRing(pd[0], (*fl[0], fl[1])))
    )
    return st.one_of(moduli, polys)


@st.composite
def _small_rings(draw, limit=48):
    """A ring of at most limit elements: one factor, or a left-associated
    product ((A x B) x C) of them."""
    ring = draw(_small_factors(limit))
    for _ in range(draw(st.integers(0, 2))):
        room = limit // ring.cardinality
        if room < 2:
            break
        ring = ProductRing(ring, draw(_small_factors(room)))
    return ring


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(_small_rings())
@example(LocalNonPrincipalRing())  # where hermite fails
def test_every_negative_report_replays_as_genuine(ring):
    for prop, checker in CHECKERS.items():
        if prop in _COSTLY and ring.cardinality > 12:
            continue
        report = checker(ring, bound=None)
        assert report.checked == EXPECTED_DOMAIN[prop](ring.cardinality)
        if report.holds:
            assert report.counterexample is None, report.line()
        else:
            assert counterexample_is_genuine(report) is True, report.line()


def test_checkers_reject_infinite_rings_and_bounds():
    with pytest.raises(InfiniteRingError):
        check_stable_range_1(Z)
    with pytest.raises(CardinalityBoundError):
        check_stable_range_2(IntegerModRing(40))  # default triple bound is 16
    assert check_stable_range_2(IntegerModRing(40), bound=40).holds


def test_zero_ring_satisfies_everything_vacuously():
    zero_ring = quotient_ring(Z, Z.element(1))
    for checker in CHECKERS.values():
        assert checker(zero_ring, bound=None).holds


def test_chen_equivalence_on_small_rings():
    for ring in SMALL_RINGS:
        assert (
            check_clean(ring, bound=None).holds
            == check_idempotent_stable_range_1(ring, bound=None).holds
        )


def test_clean_decomposition_example():
    # 6 = 5 + 1 in Z/12 with 5 a unit and 1 idempotent
    assert R12.is_unit(R12.element(5))
    assert R12.element(1) * R12.element(1) == R12.element(1)
    assert R12.element(5) + R12.element(1) == R12.element(6)
    assert check_clean(R12, bound=None).holds


def test_hermite_matches_brute_force_on_tiny_rings():
    for ring in (IntegerModRing(4), IntegerModRing(6), ring_parse("GF(2)[x]/(0,0,1)")):
        for a in ring.elements():
            for b in ring.elements():
                assert brute_hermite_pair(ring, a, b)
        assert check_hermite(ring, bound=None).holds


def test_report_line_format():
    line = check_gelfand(R12, bound=None).line()
    assert line == "property=gelfand ring=Z/12 holds=true checked=12"


def test_counterexample_replay_flags_fabricated_reports():
    # every package carrier satisfies the properties, so these
    # counterexamples are fabricated and must replay as bogus
    fake = PropertyReport(
        RingProperty.STABLE_RANGE_1,
        R12,
        False,
        (("a", R12.element(1)), ("b", R12.element(0))),
        144,
    )
    assert not counterexample_is_genuine(fake)
    fake2 = PropertyReport(
        RingProperty.GELFAND,
        R12,
        False,
        (("a", R12.element(4)), ("b", R12.element(9))),
        12,
    )
    assert not counterexample_is_genuine(fake2)
    with pytest.raises(ValueError):
        counterexample_is_genuine(check_gelfand(R12, bound=None))


def test_hermite_fails_on_a_non_principal_local_ring():
    # in GF(2)[x,y]/(x,y)^2 the row (y x) generates the non-principal (x, y)
    ring = LocalNonPrincipalRing()
    report = check_hermite(ring, bound=None)
    assert not report.holds
    assert report.line() == (
        "property=hermite ring=GF(2)[x,y]/(x,y)^2 holds=false "
        "counterexample=[a=(0,0,1) b=(0,1,0)] checked=64"
    )
    assert counterexample_is_genuine(report)


def test_other_properties_hold_on_a_non_principal_local_ring():
    ring = LocalNonPrincipalRing()
    for prop, checker in CHECKERS.items():
        if prop is RingProperty.HERMITE:
            continue
        report = checker(ring, bound=None)
        assert report.holds, report.line()
        assert report.checked == EXPECTED_DOMAIN[prop](ring.cardinality)


def test_hermite_replay_matches_brute_force_on_a_non_principal_local_ring():
    ring = LocalNonPrincipalRing()
    genuine = 0
    for a in ring.elements():
        for b in ring.elements():
            fake = PropertyReport(RingProperty.HERMITE, ring, False, (("a", a), ("b", b)), 64)
            verdict = counterexample_is_genuine(fake)
            assert verdict == (not brute_hermite_pair(ring, a, b)), (a, b)
            genuine += verdict
    assert genuine == 6  # the ordered pairs of distinct nonzero elements of (x, y)


def test_mislabeled_counterexample_is_not_genuine():
    report = check_hermite(LocalNonPrincipalRing(), bound=None)
    (_, a), (_, b) = report.counterexample
    for labels in ((("b", a), ("a", b)), (("x", a), ("y", b)), (("a", a),)):
        fake = PropertyReport(RingProperty.HERMITE, report.ring, False, labels, 64)
        assert not counterexample_is_genuine(fake)


def test_replay_rejects_elements_of_another_ring():
    foreign = (("a", R12.element(7)), ("b", R12.element(9)))
    fake = PropertyReport(RingProperty.EXCHANGE, IntegerModRing(5), False, foreign, 25)
    with pytest.raises(RingMismatchError):
        counterexample_is_genuine(fake)


@pytest.mark.parametrize("prop", list(RingProperty), ids=lambda p: p.value)
def test_every_property_has_a_replay(prop):
    fake = PropertyReport(
        prop, R12, False, tuple((label, R12.element(0)) for label in "abc"), 0
    )
    assert counterexample_is_genuine(fake) is False


# -- diadems ----------------------------------------------------------------------


def test_is_diadem_direct_examples():
    assert is_diadem_direct(R12, R12.element(3), R12.element(4), R12.element(1))
    assert is_diadem_direct(R12, R12.element(3), R12.element(4), R12.element(0))
    gf5 = IntegerModRing(5)
    assert is_diadem_direct(gf5, gf5.element(2), gf5.element(3), gf5.element(1))


def test_is_diadem_direct_requires_comaximal_pair():
    with pytest.raises(ValueError, match="not comaximal"):
        is_diadem_direct(R12, R12.element(4), R12.element(6), R12.element(0))


def test_diadem_memos_do_not_keep_rings_alive():
    ring = IntegerModRing(10)
    assert is_diadem_direct(ring, ring.element(3), ring.element(4), ring.element(1))
    assert is_diadem_via_quotient(ring, ring.element(3), ring.element(4), ring.element(1))
    assert check_hermite(ring).holds
    ref = weakref.ref(ring)
    del ring
    gc.collect()
    assert ref() is None


def test_ring_memo_keeps_only_the_diadem_helpers():
    # ideals are answered by divisibility, so no checker leaves a payload-set
    # ideal (or a quotient table) on the ring once it returns: the one memo
    # is the diadem verdicts, which every diadem path shares
    for ring in (IntegerModRing(12), ring_parse("Z/4 x GF(3)[x]/(1,0,1)")):
        for checker in CHECKERS.values():
            checker(ring, bound=None)
        verify_associate_diadems(ring, bound=None)
        ideal_generated(ring, [ring.element(ring._payloads[2]), ring.element(ring._payloads[3])])
        jacobson_radical(ring)
        assert [key.__name__ for key in ring._memo] == ["_is_diadem_payload"], ring.spec()


def test_is_diadem_via_quotient_examples():
    assert is_diadem_via_quotient(Z, Z.element(3), Z.element(5), Z.element(0))
    assert is_diadem_via_quotient(Z, Z.element(4), Z.element(1), Z.element(-3))
    with pytest.raises(InfiniteRingError, match="infinite quotient"):
        is_diadem_via_quotient(Z, Z.element(10), Z.element(5), Z.element(-2))


def test_is_diadem_via_quotient_bound_guard():
    args = (Z.element(101), Z.element(1), Z.element(0))
    with pytest.raises(CardinalityBoundError, match="above the bound 50"):
        is_diadem_via_quotient(Z, *args)
    assert is_diadem_via_quotient(Z, *args, bound=None)


def test_is_diadem_via_quotient_memo_stays_empty_on_integers():
    ring = IntegerRing()
    for w in [w for w in range(-50, 51) if w]:  # 100 distinct w within the bound
        assert is_diadem_via_quotient(ring, ring.element(w), ring.element(1), ring.element(0))
    assert ring._memo == {}


def test_quotient_criterion_matches_direct_definition():
    for ring in (IntegerModRing(8), IntegerModRing(12), ring_parse("Z/2 x Z/3")):
        definition = functools.cache(functools.partial(definition_is_diadem, ring))
        for a in ring.elements():
            for b in ring.elements():
                if not is_comaximal(ring, (a, b)):
                    continue
                for lam in ring.elements():
                    assert definition((a + b * lam).payload) == (
                        is_diadem_via_quotient(ring, a, b, lam)
                    )


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(_small_rings(limit=24))
@example(LocalNonPrincipalRing())  # not principal: its quotients are coset rings
def test_diadems_through_the_quotient_match_the_definition(ring):
    for w in ring._payloads:
        assert _is_diadem_payload(ring, w) == definition_is_diadem(ring, w), (ring.spec(), w)


def test_diadem_verdicts_sweep_r_mod_wr(monkeypatch):
    # a verdict can agree with the definition on these rings while sweeping
    # the wrong quotient (R/w^2R, say), so record the rings swept: exactly
    # one, quotient_ring(R, w), with |R|/|wR| elements
    import edrkit.finite_lab as finite_lab

    swept = []
    sweep = finite_lab.check_stable_range_1

    def recorded(ring, bound):
        swept.append(ring)
        return sweep(ring, bound=bound)

    monkeypatch.setattr(finite_lab, "check_stable_range_1", recorded)
    for ring in (IntegerModRing(12), ring_parse("Z/2 x Z/4"), ring_parse("GF(2)[x]/(0,0,0,1)")):
        for w in ring._payloads:
            swept.clear()
            _is_diadem_payload(ring, w)
            quotient = quotient_ring(ring, RingElement(ring, w))
            assert swept == [quotient], (ring.spec(), w)
            multiples = {ring._mul(w, r) for r in ring._payloads}
            assert quotient.cardinality * len(multiples) == ring.cardinality, (ring.spec(), w)


def test_diadems_of_a_large_ring_never_enumerate_it(no_enumeration):
    # R/2R is Z/2 for the even modulus, so w = 2 is decided on two elements
    ring = ring_parse("Z/2000000000078")
    a, b, zero = ring.element(2), ring.element(3), ring.zero
    w = find_diadem(ring, a, b)
    assert (w.multiplier, w.diadem, w.evidence) == (
        zero,
        a,
        DiademEvidence.EXHAUSTIVE_DEFINITION,
    )
    assert is_diadem_via_quotient(ring, a, b, zero)
    assert is_diadem_direct(ring, a, b, zero, bound=None)
    out = io.StringIO()
    assert main(["diadem", "Z/2000000000078", "2", "3"], out=out) == 0
    assert out.getvalue() == "# edr-kit v1\nmultiplier=0 diadem=2 evidence=exhaustive\n"


def test_find_diadem_refuses_a_quotient_past_its_bound(no_enumeration):
    # w = 0 + 1*0 = 0 leaves R/wR = R, refused before its sweep enumerates R
    ring = ring_parse("Z/2000000000078")
    with pytest.raises(CardinalityBoundError):
        find_diadem(ring, ring.zero, ring.one, bound=100)
    for argv in (["Z/2000", "0", "1", "--bound", "100"], ["Z/2000000000078", "0", "1"]):
        out = io.StringIO()
        assert main(["diadem", *argv], out=out) == 2
        assert out.getvalue() == ""
    # within the bound the answer and its bytes are unchanged
    small = ring_parse("Z/12")
    w = find_diadem(small, small.zero, small.one, bound=12)
    assert (w.multiplier, w.diadem, w.evidence) == (small.zero, small.zero, DiademEvidence.EXHAUSTIVE_DEFINITION)
    with pytest.raises(CardinalityBoundError):
        find_diadem(small, small.zero, small.one, bound=11)
    out = io.StringIO()
    assert main(["diadem", "Z/12", "0", "1", "--bound", "12"], out=out) == 0
    assert out.getvalue() == "# edr-kit v1\nmultiplier=0 diadem=0 evidence=exhaustive\n"
    # R/2R = Z/2 is within any bound from 2 up
    out = io.StringIO()
    assert main(["diadem", "Z/2000000000078", "2", "3", "--bound", "2"], out=out) == 0
    assert out.getvalue() == "# edr-kit v1\nmultiplier=0 diadem=2 evidence=exhaustive\n"


def test_find_diadem_over_integers():
    w = find_diadem(Z, Z.element(3), Z.element(5))
    assert (w.multiplier.payload, w.diadem.payload) == (0, 3)
    assert w.evidence is DiademEvidence.QUOTIENT_STABLE_RANGE_1
    assert is_diadem_via_quotient(Z, w.a, w.b, w.multiplier)

    w = find_diadem(Z, Z.element(4), Z.element(5))
    assert (w.multiplier.payload, w.diadem.payload) == (0, 4)

    # first nonzero combination in spiral order when a = 0
    w = find_diadem(Z, Z.element(0), Z.element(-1))
    assert (w.multiplier.payload, w.diadem.payload) == (1, -1)
    assert w.evidence is DiademEvidence.TRIVIAL_UNIT


def test_trivial_pair_construction_yields_unit_diadem():
    # pair (a, u) with u invertible: the multiplier -a*u^{-1} + 1 turns the
    # combination into the unit u itself
    for a in (0, 3, -9, 14):
        u = -1
        mult = Z.element(-a * (-1) + 1)  # u^{-1} = -1
        combo = Z.element(a) + Z.element(u) * mult
        assert combo.payload == u
        assert Z.is_unit(combo)
        assert is_diadem_via_quotient(Z, Z.element(a), Z.element(u), mult)


def test_shifted_unit_pair_has_unit_diadem():
    # pair (a + u, a) with u invertible: multiplier -1 gives back the unit u
    for a in (0, 4, -7, 25):
        for u in (1, -1):
            pair = (Z.element(a + u), Z.element(a))
            combo = pair[0] + pair[1] * Z.element(-1)
            assert combo.payload == u and Z.is_unit(combo)
            assert is_diadem_via_quotient(Z, pair[0], pair[1], Z.element(-1))


def test_find_diadem_on_finite_ring():
    w = find_diadem(R12, R12.element(3), R12.element(4))
    assert (w.multiplier.payload, w.diadem.payload) == (0, 3)
    assert w.evidence is DiademEvidence.EXHAUSTIVE_DEFINITION
    w = find_diadem(R12, R12.element(5), R12.element(3))
    assert w.diadem.payload == 5 and w.evidence is DiademEvidence.TRIVIAL_UNIT


def test_find_diadem_rejects_non_comaximal():
    with pytest.raises(ValueError, match="not comaximal"):
        find_diadem(Z, Z.element(4), Z.element(6))


def test_find_diadem_deterministic():
    a, b = Z.element(17), Z.element(39)
    first = find_diadem(Z, a, b)
    second = find_diadem(Z, a, b)
    assert first == second


def test_find_diadem_witness_certifies_on_sampled_pairs():
    rng = random.Random(13)
    count = 0
    while count < 40:
        a, b = rng.randint(-40, 40), rng.randint(-40, 40)
        if math.gcd(a, b) != 1:
            continue
        count += 1
        w = find_diadem(Z, Z.element(a), Z.element(b))
        assert w.diadem == w.a + w.b * w.multiplier
        assert is_diadem_via_quotient(Z, w.a, w.b, w.multiplier)
        if w.evidence is DiademEvidence.TRIVIAL_UNIT:
            assert Z.is_unit(w.diadem)


def test_dyadic_range_1_examples():
    assert check_dyadic_range_1(R12, bound=None).holds
    assert check_dyadic_range_1(IntegerModRing(7), bound=None).holds
    assert check_dyadic_range_1(ring_parse("Z/4 x Z/9"), bound=36).holds


# -- coprime splittings --------------------------------------------------------------


def test_coprime_splitting_examples():
    s = find_coprime_splitting(12, 2, 3)
    assert (s.r, s.s) == (3, 4)
    s = find_coprime_splitting(1, 7, 11)
    assert (s.r, s.s) == (1, 1)
    s = find_coprime_splitting(30, 6, 35)
    assert (s.r, s.s) == (5, 6)


def test_coprime_splitting_conditions_on_random_inputs():
    rng = random.Random(17)
    done = 0
    while done < 150:
        c = rng.randint(2, 400)
        a, b = rng.randint(-500, 500), rng.randint(-500, 500)
        if math.gcd(a, math.gcd(b, c)) != 1:
            continue
        done += 1
        s = find_coprime_splitting(c, a, b)
        assert s.r * s.s == c
        assert math.gcd(s.r, s.s) == 1
        assert math.gcd(s.r, a) == 1
        assert math.gcd(s.s, b) == 1


def test_coprime_splitting_matches_divisor_scan():
    rng = random.Random(19)
    for c in [c for k in range(2, 401) for c in (k, -k)]:
        while True:
            a, b = rng.randint(-500, 500), rng.randint(-500, 500)
            if math.gcd(a, b, c) == 1:
                break
        s = find_coprime_splitting(c, a, b)
        assert (s.r, s.s) == brute_coprime_splitting(c, a, b), (c, a, b)


def test_coprime_splitting_is_fast_for_large_c():
    # a divisor scan up to |c| takes seconds here and never ends at 10^18
    start = time.perf_counter()
    s = find_coprime_splitting(2**8 * 3**5 * 5**3 * 13, 7, 6)
    assert (s.r, s.s) == (2**8 * 3**5, 5**3 * 13)
    s = find_coprime_splitting(-(2**40) * 3**20, 5, 3)
    assert (s.r, s.s) == (3**20, -(2**40))
    assert time.perf_counter() - start < 0.5


def test_coprime_splitting_rejects_bad_inputs():
    with pytest.raises(ValueError):
        find_coprime_splitting(0, 1, 1)
    with pytest.raises(ValueError):
        find_coprime_splitting(12, 2, 4)


# -- gelfand witnesses ----------------------------------------------------------------------


def test_gelfand_witness_examples():
    assert gelfand_range_1_witness(3, 5) == 0
    assert gelfand_range_1_witness(1, 0) == 0
    assert gelfand_range_1_witness(4, 9) == 0
    assert gelfand_range_1_witness(0, 1) == 1


def test_gelfand_witness_requires_coprime_inputs():
    with pytest.raises(ValueError):
        gelfand_range_1_witness(4, 6)


# -- associates via diadems (finite rings) ---------------------------------------------


def test_associate_diadems_on_small_rings():
    for ring in (R12, IntegerModRing(5), IntegerModRing(8), ring_parse("GF(2)[x]/(0,0,1)")):
        report = verify_associate_diadems(ring, bound=None)
        assert report.holds, report.line()
        assert report.checked == ring.cardinality**2


def test_associate_diadems_witness_example():
    # 4R = 8R in Z/12 and 4*2 = 8 with 2 a diadem of the comaximal pair (2, 1)
    assert {(R12.element(4) * x).payload for x in R12.elements()} == {
        (R12.element(8) * x).payload for x in R12.elements()
    }
    assert is_diadem_direct(R12, R12.element(2), R12.element(1), R12.element(0))


# -- radical quotient and closure sweeps -------------------------------------------------


def test_radical_quotient_shapes():
    q = radical_quotient(R12)
    assert q.cardinality == 6
    assert radical_quotient(IntegerModRing(5)).cardinality == 5
    assert radical_quotient(ring_parse("GF(2)[x]/(0,0,1)")).cardinality == 2


def test_radical_quotient_matches_first_generator_search():
    rings = [IntegerModRing(n) for n in range(1, 81)] + SMALL_RINGS + PRODUCT_RINGS
    for ring in rings:
        got, want = radical_quotient(ring), first_generator_radical_quotient(ring)
        assert got == want and got.spec() == want.spec(), ring.spec()


def test_dyadic_range_invariant_under_radical_quotient():
    for ring in SMALL_RINGS:
        assert (
            check_dyadic_range_1(ring, bound=None).holds
            == check_dyadic_range_1(radical_quotient(ring), bound=None).holds
        )


def test_dyadic_range_passes_to_principal_quotients():
    for ring in (IntegerModRing(8), IntegerModRing(12), ring_parse("Z/2 x Z/3")):
        assert check_dyadic_range_1(ring, bound=None).holds
        for c in ring.elements():
            q = quotient_ring(ring, c)
            assert check_dyadic_range_1(q, bound=None).holds


def test_dyadic_range_implies_stable_range_2():
    for ring in SMALL_RINGS:
        if check_dyadic_range_1(ring, bound=None).holds:
            assert check_stable_range_2(ring, bound=None).holds
