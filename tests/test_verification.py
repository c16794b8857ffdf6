import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edrkit import (
    EuclideanRing,
    IntegerModRing,
    IntegerRing,
    Matrix,
    PolynomialRing,
    ReductionCertificate,
    check_certificate,
    quotient_ring,
    ring_parse,
    smith_normal_form,
    verify_certificate,
)
from edrkit.matrices import from_payload_grid
from edrkit.rings import Ring

from oracles import berkowitz_determinant, laplace_determinant

Z = IntegerRing()
G5 = PolynomialRing(5)
Z4_Z9 = ring_parse("Z/4 x Z/9")

RINGS = {
    "Z": Z,
    "GF(5)[x]": G5,
    "Z/12": IntegerModRing(12),
    "Z/4 x Z/9": Z4_Z9,
    "(Z/4 x Z/9)/((2|3))": quotient_ring(Z4_Z9, Z4_Z9.element((2, 3))),
    "Z/(1)": quotient_ring(Z, Z.one),
    "(Z/4 x Z/9)/((1|3))": quotient_ring(Z4_Z9, Z4_Z9.element((1, 3))),
    "GF(3)[x]/(x^2+1)": ring_parse("GF(3)[x]/(1,0,1)"),
    "Z/4 x GF(3)[x]/(x^2+1)": ring_parse("Z/4 x GF(3)[x]/(1,0,1)"),
    "Z/2 x Z/2 x Z/3": ring_parse("Z/2 x Z/2 x Z/3"),
}


def _elements(ring):
    if isinstance(ring, IntegerRing):
        return st.integers(-60, 60)
    if isinstance(ring, PolynomialRing):
        return st.lists(st.integers(0, 4), max_size=4).map(ring._canonical)
    return st.sampled_from(sorted(ring._payloads, key=ring._sort_key))


@st.composite
def _square_grids(draw, ring, sparse):
    n = draw(st.integers(0, 7))
    elements = _elements(ring)
    if sparse:
        # about three entries in four are zero
        zero = st.just(ring._zero())
        elements = st.one_of(zero, zero, zero, elements)
    return [[draw(elements) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
@pytest.mark.parametrize("name", list(RINGS))
def test_determinant_matches_laplace(name, sparse):
    ring = RINGS[name]

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(_square_grids(ring, sparse))
    def check(grid):
        expected = laplace_determinant(ring, grid)
        assert ring._det(grid) == expected
        # Berkowitz is exact over every carrier, the domains included
        assert berkowitz_determinant(ring, grid) == expected

    check()


def test_verify_24x24_certificate_is_fast():
    # the memoized Laplace expansion this replaced took minutes at n = 24
    rng = random.Random("verify-24")
    m = Matrix.from_rows(Z, [[rng.randint(-99, 99) for _ in range(24)] for _ in range(24)])
    cert = smith_normal_form(Z, m)
    start = time.perf_counter()
    assert verify_certificate(Z, m, cert)
    assert time.perf_counter() - start < 1.0


def _seeded_certificates(ring, rng, count):
    """(A, certificate) pairs for seeded matrices of sides 2..7, with about
    one in three rank-deficient (two equal rows)."""
    out = []
    for _ in range(count):
        m, n = rng.randint(2, 7), rng.randint(2, 7)
        if isinstance(ring, IntegerRing):
            rows = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(m)]
        else:
            rows = [[[rng.randrange(ring.p) for _ in range(3)] for _ in range(n)] for _ in range(m)]
        if rng.random() < 1 / 3:
            rows[1] = list(rows[0])
        a = Matrix.from_rows(ring, rows)
        out.append((a, smith_normal_form(ring, a)))
    return out


def _tampered(ring, a, cert):
    """(certificate, clause it fails) for the genuine certificate, then for
    copies with one flipped P entry, a row of P and D scaled by a non-unit,
    and two distinct diagonal entries of D swapped along with the matching
    rows of P and columns of Q."""
    p, d, q = cert.P.payload_grid(), cert.D.payload_grid(), cert.Q.payload_grid()
    out = [(cert, None)]
    j = next(j for j, row in enumerate(a.payload_grid()) if any(row))  # a nonzero row of A
    flipped = [list(row) for row in p]
    flipped[0][j] = ring._add(flipped[0][j], ring._one())
    out.append((ReductionCertificate(from_payload_grid(ring, flipped), cert.D, cert.Q), "product"))
    factor = 2 if isinstance(ring, IntegerRing) else (0, 1)
    scaled_p, scaled_d = [list(row) for row in p], [list(row) for row in d]
    scaled_p[0] = [ring._mul(factor, x) for x in p[0]]
    scaled_d[0] = [ring._mul(factor, x) for x in d[0]]
    scaled = ReductionCertificate(*(from_payload_grid(ring, g) for g in (scaled_p, scaled_d, q)))
    out.append((scaled, "unit-determinant"))
    diag = [d[i][i] for i in range(min(a.rows, a.cols))]
    pair = next(((i, k) for i in range(len(diag)) for k in range(i) if diag[i] != diag[k]), None)
    if pair is not None:
        i, k = pair
        sp, sd, sq = ([list(row) for row in g] for g in (p, d, q))
        sp[i], sp[k], sd[i], sd[k] = sp[k], sp[i], sd[k], sd[i]
        for row in sd + sq:
            row[i], row[k] = row[k], row[i]
        swapped = ReductionCertificate(*(from_payload_grid(ring, g) for g in (sp, sd, sq)))
        out.append((swapped, "chain"))
    return out


@pytest.mark.parametrize("ring", [Z, PolynomialRing(2), PolynomialRing(3), G5], ids=str)
def test_verdicts_are_identical_under_generic_kernels(ring, monkeypatch):
    # Z's native matrix product, subtraction and exact division, and
    # GF(p)[x]'s packed matrix product, must not change a single verdict
    rng = random.Random(f"generic-kernels/{ring}")
    cases = [
        (a, tampered, clause)
        for a, cert in _seeded_certificates(ring, rng, 12)
        for tampered, clause in _tampered(ring, a, cert)
    ]

    def verdicts():
        return [check_certificate(ring, a, cert) for a, cert, _ in cases]

    fast = verdicts()
    assert fast == [clause for _, _, clause in cases]
    for carrier in (IntegerRing, PolynomialRing):
        monkeypatch.setattr(carrier, "_matmul", Ring._matmul)
        monkeypatch.setattr(carrier, "_sub", Ring._sub)
        monkeypatch.setattr(carrier, "_divides", EuclideanRing._divides)
    assert verdicts() == fast
    assert set(fast) == {None, "product", "unit-determinant", "chain"}
