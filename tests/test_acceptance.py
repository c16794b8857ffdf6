"""Acceptance suite: ten oracle- and property-based criteria, one test each.

Every test prints a single PASS/FAIL line (visible under `pytest -s` or on
failure) and enforces its runtime budget.  Run with:

    pytest tests/test_acceptance.py -v -s
"""

import functools
import math
import random
import time

from edrkit import (
    IntegerModRing,
    IntegerRing,
    Matrix,
    PolynomialRing,
    check_exchange,
    find_coprime_splitting,
    is_diadem_via_quotient,
    jacobson_radical,
    quotient_ring,
    radical_quotient,
    reduce_2x2_comaximal,
    ring_parse,
    smith_normal_form,
    stable_range_2_witness,
    verify_certificate,
    check_dyadic_range_1,
    is_comaximal,
)
from edrkit.finite_lab import CHECKERS, RingProperty

from oracles import (
    definition_is_diadem,
    int_determinantal_divisors,
    p_mul,
    poly_determinantal_divisors,
    squarefree_kernel,
)

Z = IntegerRing()
G5 = PolynomialRing(5)


def report(number: int, name: str, ok: bool, elapsed: float, budget: float) -> None:
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"[acceptance {number:2d}] {name}: {verdict} ({elapsed:.2f}s, budget {budget:.0f}s)"
    )
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s: {elapsed:.2f}s"


def comaximal_triples(rng, count, span=1000):
    out = []
    while len(out) < count:
        triple = tuple(rng.randint(-span, span) for _ in range(3))
        if math.gcd(triple[0], math.gcd(triple[1], triple[2])) == 1:
            out.append(triple)
    return out


CARD16_SUITE_SPECS = (
    ["Z/%d" % n for n in range(2, 17)]
    + ["Z/2 x Z/2", "Z/2 x Z/3", "Z/4 x Z/3"]
    + ["GF(2)[x]/(0,0,1)", "GF(2)[x]/(1,1,1)"]
)

PRODUCT_QUOTIENT_SUITE_SPECS = (
    "Z/2 x Z/2",
    "Z/2 x Z/3",
    "Z/4 x Z/3",
    "Z/4 x Z/9",
    "GF(2)[x]/(0,0,1)",
    "GF(2)[x]/(1,1,1)",
    "GF(3)[x]/(0,0,1)",
)


def product_quotient_suite():
    rings = [ring_parse(spec) for spec in PRODUCT_QUOTIENT_SUITE_SPECS]
    r12 = IntegerModRing(12)
    rings.append(quotient_ring(r12, r12.element(4)))
    r36 = IntegerModRing(36)
    rings.append(quotient_ring(r36, r36.element(6)))
    prod = ring_parse("Z/4 x Z/9")
    rings.append(quotient_ring(prod, prod.element((2, 3))))
    return rings


def test_criterion_01_snf_round_trip_over_z():
    rng = random.Random(1001)
    start = time.perf_counter()
    ok = True
    for _ in range(1000):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        grid = [[rng.randint(-999, 999) for _ in range(cols)] for _ in range(rows)]
        matrix = Matrix.from_rows(Z, grid)
        cert = smith_normal_form(Z, matrix)
        diag = [e.payload for e in cert.D.diagonal()]
        oracle = int_determinantal_divisors(grid)
        prod = 1
        chain_ok = True
        for k, d in enumerate(diag):
            prod *= abs(d)
            chain_ok = chain_ok and prod == oracle[k]
        if not (verify_certificate(Z, matrix, cert) and chain_ok):
            ok = False
            break
    report(1, "SNF round-trip over Z, 1000 matrices", ok, time.perf_counter() - start, 10.0)


def test_criterion_02_snf_over_gf5x():
    rng = random.Random(1002)
    start = time.perf_counter()
    ok = True
    for _ in range(200):
        grid = [
            [tuple(rng.randrange(5) for _ in range(rng.randint(0, 4))) for _ in range(4)]
            for _ in range(4)
        ]
        matrix = Matrix.from_rows(G5, grid)
        cert = smith_normal_form(G5, matrix)
        diag = [e.payload for e in cert.D.diagonal()]
        monic_ok = all(not d or d[-1] == 1 for d in diag)
        oracle = poly_determinantal_divisors(
            [[matrix.entry(i, j).payload for j in range(4)] for i in range(4)], 5
        )
        prod = (1,)
        chain_ok = True
        for k, d in enumerate(diag):
            prod = p_mul(prod, d, 5)
            chain_ok = chain_ok and prod == oracle[k]
        if not (verify_certificate(G5, matrix, cert) and monic_ok and chain_ok):
            ok = False
            break
    report(2, "SNF over GF(5)[x], 200 matrices", ok, time.perf_counter() - start, 10.0)


def test_criterion_03_comaximal_2x2_core():
    rng = random.Random(1003)
    start = time.perf_counter()
    ok = True
    for a, b, c in comaximal_triples(rng, 1000):
        matrix = Matrix.from_rows(Z, [[a, 0], [b, c]])
        cert = reduce_2x2_comaximal(Z, matrix)
        grid = cert.D.payload_grid()
        if not (
            grid[0][0] == 1
            and grid[0][1] == 0
            and grid[1][0] == 0
            and abs(grid[1][1]) == abs(a * c)
            and verify_certificate(Z, matrix, cert)
        ):
            ok = False
            break
    report(3, "2x2 comaximal core, 1000 triples", ok, time.perf_counter() - start, 5.0)


def test_criterion_04_diadem_quotient_equivalence():
    start = time.perf_counter()
    mismatches = 0
    for spec in CARD16_SUITE_SPECS:
        ring = ring_parse(spec)
        definition = functools.cache(functools.partial(definition_is_diadem, ring))
        for a in ring.elements():
            for b in ring.elements():
                if not is_comaximal(ring, (a, b)):
                    continue
                for lam in ring.elements():
                    direct = definition((a + b * lam).payload)
                    via_quotient = is_diadem_via_quotient(ring, a, b, lam)
                    if direct != via_quotient:
                        mismatches += 1
    report(
        4,
        "diadem direct == quotient stable-range-1 (card <= 16 suite)",
        mismatches == 0,
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_05_sr2_witness_construction():
    rng = random.Random(1005)
    start = time.perf_counter()
    ok = True
    for a, b, c in comaximal_triples(rng, 1000):
        witness = stable_range_2_witness(Z, Z.element(a), Z.element(b), Z.element(c))
        if math.gcd(a + c * witness.p.payload, b + c * witness.q.payload) != 1:
            ok = False
            break
    report(5, "constructive SR2 witnesses, 1000 triples", ok, time.perf_counter() - start, 5.0)


@functools.cache
def _baseline_sweep():
    """property -> ring spec -> holds, across Z/2..Z/50 and the product/quotient suite."""
    rings = [IntegerModRing(n) for n in range(2, 51)] + product_quotient_suite()
    results = {}
    for ring in rings:
        for prop, checker in CHECKERS.items():
            results[(prop, ring.spec())] = checker(ring, bound=None).holds
    return results


def test_criterion_06_finite_commutative_baseline():
    start = time.perf_counter()
    results = _baseline_sweep()
    failures = [key for key, holds in results.items() if not holds]
    report(
        6,
        "baseline sweep: 8 properties on Z/2..Z/50 + product/quotient suite",
        not failures,
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_07_chen_cross_check():
    start = time.perf_counter()
    results = _baseline_sweep()
    specs = {spec for (_, spec) in results}
    ok = all(
        results[(RingProperty.CLEAN, spec)]
        == results[(RingProperty.IDEMPOTENT_STABLE_RANGE_1, spec)]
        for spec in specs
    )
    report(7, "clean == idempotent stable range 1 across the sweep", ok, time.perf_counter() - start, 60.0)


def test_criterion_08_dyadic_invariance_under_quotients():
    start = time.perf_counter()
    ok = True
    for spec in CARD16_SUITE_SPECS:
        ring = ring_parse(spec)
        base = check_dyadic_range_1(ring, bound=None).holds
        if check_dyadic_range_1(radical_quotient(ring), bound=None).holds != base:
            ok = False
        for c in ring.elements():
            if not check_dyadic_range_1(quotient_ring(ring, c), bound=None).holds:
                ok = False
    report(
        8,
        "dyadic range 1 invariant under J(R) and principal quotients",
        ok,
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_09_coprime_splitting_and_exchange():
    rng = random.Random(1009)
    start = time.perf_counter()
    ok = True
    for c in range(2, 201):
        done = 0
        while done < 200:
            a, b = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
            if math.gcd(a, math.gcd(b, c)) != 1:
                continue
            done += 1
            s = find_coprime_splitting(c, a, b)
            if not (
                s.r * s.s == c
                and math.gcd(s.r, s.s) == 1
                and math.gcd(s.r, a) == 1
                and math.gcd(s.s, b) == 1
            ):
                ok = False
        if not check_exchange(IntegerModRing(c), bound=None).holds:
            ok = False
    report(9, "coprime splittings and exchange quotients, c in [2, 200]", ok, time.perf_counter() - start, 30.0)


def test_criterion_10_jacobson_radical_oracle():
    start = time.perf_counter()
    ok = True
    for n in range(2, 51):
        members = {e.payload for e in jacobson_radical(IntegerModRing(n)).members}
        rad = squarefree_kernel(n)
        if members != {(rad * k) % n for k in range(n)}:
            ok = False
    report(10, "jacobson_radical(Z/n) == (rad n)Z/n for n <= 50", ok, time.perf_counter() - start, 10.0)
