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
    format_certificate,
    quotient_ring,
    ring_parse,
    smith_normal_form,
    verify_certificate,
)
from edrkit.matrices import from_payload_grid
from edrkit.rings import EuclideanQuotientRing, ProductRing, Ring

from oracles import (
    LoopTableau,
    berkowitz_determinant,
    int_determinantal_divisors,
    laplace_determinant,
    loop_add_col,
    loop_bareiss_rows,
    loop_matmul,
    poly_determinantal_divisors,
    two_determinant_verdict,
)

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


DET_PRIMES = (2, 3, 5, 7, 31, 251, 65537, 4294967311, 2**61 - 1, 3317044064679887385961813)


@st.composite
def _bareiss_cases(draw):
    """(ring, grid) over Z or GF(p)[x], sides 0-8.  Polynomial entries reach
    40 coefficients of p - 1, which fill the packed kernel's slots; a shift
    by x^s makes every pivot's constant term zero; a row copying a prefix of
    the first row makes a leading minor zero (a swap) or the grid singular."""
    carrier = draw(st.sampled_from(("Z",) + DET_PRIMES))
    n = draw(st.integers(0, 8))
    if carrier == "Z":
        ring = Z
        entries = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**70), 2**70))
    else:
        p = carrier
        ring = PolynomialRing(p)
        coeffs = st.one_of(st.just(p - 1), st.integers(0, p - 1))
        entries = st.one_of(
            st.just(()),
            st.integers(1, 40).map(lambda length: (p - 1,) * length),
            st.lists(coeffs, max_size=6).map(ring._canonical),
        )
    grid = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        i, width = draw(st.integers(1, n - 1)), draw(st.integers(1, n))
        grid[i][:width] = grid[0][:width]
    if n and draw(st.booleans()):
        for row in grid[: draw(st.integers(1, n))]:
            row[0] = ring._zero()
    if carrier != "Z":
        shift = (0,) * draw(st.integers(0, 2))
        grid = [[x and shift + x for x in row] for row in grid]
    return ring, grid


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_bareiss_cases())
def test_bareiss_row_kernels_match_the_generic_update(case):
    ring, grid = case
    assert ring._det(grid) == berkowitz_determinant(ring, grid)
    # each step of the carrier's kernel against the per-entry loop, on the
    # same elimination state
    a, prev, zero = [list(row) for row in grid], ring._one(), ring._zero()
    for k in range(len(a) - 1):
        swap = next((i for i in range(k, len(a)) if a[i][k] != zero), None)
        if swap is None:
            break
        a[k], a[swap] = a[swap], a[k]
        fast = [list(row) for row in a]
        ring._bareiss_rows(fast, k, prev)
        loop_bareiss_rows(ring, a, k, prev)
        assert fast == a
        prev = a[k][k]


def test_verify_24x24_certificate_is_fast():
    # the memoized Laplace expansion this replaced took minutes at n = 24
    rng = random.Random("verify-24")
    m = Matrix.from_rows(Z, [[rng.randint(-99, 99) for _ in range(24)] for _ in range(24)])
    cert = smith_normal_form(Z, m)
    start = time.perf_counter()
    assert verify_certificate(Z, m, cert)
    assert time.perf_counter() - start < 1.0


CLAUSE_RINGS = (Z, PolynomialRing(2), PolynomialRing(3), G5)


def _clause_elements(ring):
    if isinstance(ring, IntegerRing):
        return st.integers(-9, 9)
    return st.lists(st.integers(0, ring.p - 1), max_size=3).map(ring._canonical)


def _non_units(ring):
    # zero included: a row or column times zero leaves P or Q singular
    if isinstance(ring, IntegerRing):
        return st.sampled_from((0, 2, -3, 6))
    return st.sampled_from(((), (0, 1), (1, 1), (1, 0, 1)))


@st.composite
def _low_rank_grids(draw):
    """(ring, grid, cols) over Z or GF(p)[x], p in {2, 3, 5}, sides 0-7:
    grid = B*C through an inner side k <= min(m, n), k = min(m, n) about half
    the time, and with about one entry in three of B and C zero, so zero
    columns send the elimination to its column search."""
    ring = draw(st.sampled_from(CLAUSE_RINGS))
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    k = draw(st.one_of(st.just(min(m, n)), st.integers(0, min(m, n))))
    elements = _clause_elements(ring)
    elements = st.one_of(st.just(ring._zero()), elements, elements)
    b = [[draw(elements) for _ in range(k)] for _ in range(m)]
    c = [[draw(elements) for _ in range(n)] for _ in range(k)]
    grid = loop_matmul(ring, b, c) if k else [[ring._zero()] * n for _ in range(m)]
    return ring, grid, n


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_low_rank_grids())
def test_rank_profile_matches_the_minors(case):
    ring, grid, cols = case
    rank, t, s, delta = ring._rank_profile(grid, cols)
    if isinstance(ring, IntegerRing):
        divisors = int_determinantal_divisors(grid)
    else:
        divisors = poly_determinantal_divisors(grid, ring.p)
    # the rank is the number of nonzero determinantal divisors
    assert rank == sum(g != ring._zero() for g in divisors)
    assert len(set(t)) == len(set(s)) == rank
    assert set(t) <= set(range(len(grid))) and set(s) <= set(range(cols))
    minor = laplace_determinant(ring, [[grid[i][j] for j in s] for i in t])
    assert minor != ring._zero()
    assert delta in (minor, ring._neg(minor))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_low_rank_grids(), st.data())
def test_unit_determinant_clause_matches_two_determinants(case, data):
    # tampers that keep P*A*Q = D, so the unit-determinant clause (and then
    # chain) decides: a non-unit times a row of P and D or a column of Q and
    # D, and row i += c * row k of P and D (unimodular: chain once D changes)
    # or row i := u * row i + c * row k with u a non-unit
    ring, a, cols = case
    source = from_payload_grid(ring, a, cols)
    cert = smith_normal_form(ring, source)
    p, d, q = cert.P.payload_grid(), cert.D.payload_grid(), cert.Q.payload_grid()
    m, n = len(p), len(q)
    zero, one = ring._zero(), ring._one()

    def row_op(rows, i, k, u, c):
        rows = [list(row) for row in rows]
        rows[i] = [ring._add(ring._mul(u, x), ring._mul(c, y)) for x, y in zip(rows[i], rows[k])]
        return rows

    def col_scaled(rows, j, u):
        return [[ring._mul(u, x) if col == j else x for col, x in enumerate(row)] for row in rows]

    cases = [(p, d, q, None)]
    if m:
        i, u = data.draw(st.integers(0, m - 1)), data.draw(_non_units(ring))
        cases.append((row_op(p, i, i, u, zero), row_op(d, i, i, u, zero), q, "unit-determinant"))
    if n:
        j, u = data.draw(st.integers(0, n - 1)), data.draw(_non_units(ring))
        cases.append((p, col_scaled(d, j, u), col_scaled(q, j, u), "unit-determinant"))
    if m >= 2:
        i, k = data.draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        c, u = data.draw(_clause_elements(ring)), data.draw(_non_units(ring))
        sheared = row_op(d, i, k, one, c)
        cases.append((row_op(p, i, k, one, c), sheared, q, None if sheared == d else "chain"))
        cases.append((row_op(p, i, k, u, c), row_op(d, i, k, u, c), q, "unit-determinant"))
    for p_t, d_t, q_t, expected in cases:
        blocks = (from_payload_grid(ring, g, width) for g, width in ((p_t, m), (d_t, n), (q_t, n)))
        assert check_certificate(ring, source, ReductionCertificate(*blocks)) == expected
        assert two_determinant_verdict(ring, a, p_t, d_t, q_t) == expected


def test_unit_determinant_clause_eliminates_only_small_grids(monkeypatch):
    # apart from A, the clause eliminates only blocks of P and Q with at most
    # max(m - r, n - r) rows: none on a nonsingular 24 x 24 matrix over Z,
    # 4 x 4 and 8 x 8 ones on a 10 x 14 matrix of rank 6 over GF(5)[x]
    rng = random.Random("small-grids")
    square = [[rng.randint(-99, 99) for _ in range(24)] for _ in range(24)]
    b, c = (
        [[G5._canonical([rng.randrange(5), rng.randrange(5)]) for _ in range(n)] for _ in range(m)]
        for m, n in ((10, 6), (6, 14))
    )
    wide = loop_matmul(G5, b, c)
    profile = EuclideanRing._rank_profile
    for ring, grid, rank in ((Z, square, 24), (G5, wide, 6)):
        a = from_payload_grid(ring, grid)
        cert = smith_normal_form(ring, a)
        assert profile(ring, grid, a.cols)[0] == rank
        seen = []

        def spy(self, rows, cols):
            seen.append(rows)
            return profile(self, rows, cols)

        monkeypatch.setattr(EuclideanRing, "_rank_profile", spy)
        assert check_certificate(ring, a, cert) is None
        monkeypatch.undo()
        assert seen[0] == grid
        assert max(map(len, seen[1:])) == max(a.rows - rank, a.cols - rank)


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
    # the carriers' own kernels (Z's native matrix product, Bareiss rows,
    # tableau, subtraction and exact division; GF(p)[x]'s packed matrix
    # product, Bareiss rows and tableau) must not change a single
    # certificate or verdict
    def outcomes():
        rng = random.Random(f"generic-kernels/{ring}")
        return [
            (format_certificate(tampered), clause, check_certificate(ring, a, tampered))
            for a, cert in _seeded_certificates(ring, rng, 12)
            for tampered, clause in _tampered(ring, a, cert)
        ]

    fast = outcomes()
    assert [verdict for _, _, verdict in fast] == [clause for _, clause, _ in fast]
    for carrier in (IntegerRing, PolynomialRing):
        monkeypatch.setattr(carrier, "_matmul", loop_matmul)
        monkeypatch.setattr(carrier, "_tableau", lambda self, grid: LoopTableau(self, grid))
        monkeypatch.setattr(carrier, "_bareiss_rows", loop_bareiss_rows)
        monkeypatch.setattr(carrier, "_sub", Ring._sub)
        monkeypatch.setattr(carrier, "_divides", EuclideanRing._divides)
    assert outcomes() == fast
    assert {verdict for _, _, verdict in fast} == {None, "product", "unit-determinant", "chain"}


def _unimodular_pair(ring, rng, n, elems, units):
    """(U, U^-1), n x n: U is the identity after seeded row additions and
    unit scalings, and U^-1 takes each inverse as a column operation."""
    one = ring._one()
    u = [[one if i == j else ring._zero() for j in range(n)] for i in range(n)]
    u_inv = [list(row) for row in u]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c, s = rng.choice(elems), rng.choice(units)
        # row i += c * row j, then row i *= s
        u[i] = [ring._mul(s, ring._add(x, ring._mul(c, y))) for x, y in zip(u[i], u[j])]
        loop_add_col(ring, u_inv, j, i, ring._neg(c))
        s_inv = next(v for v in units if ring._mul(s, v) == one)
        for row in u_inv:
            row[i] = ring._mul(row[i], s_inv)
    return u, u_inv


@pytest.mark.parametrize("name", ["Z/12", "GF(3)[x]/(x^2+1)", "Z/4 x GF(3)[x]/(x^2+1)"])
def test_finite_verdicts_are_identical_under_the_loop_matmul(name, monkeypatch):
    # a quotient reduces its base ring's product and a product pairs its
    # components' products; on valid certificates (P, D, Q) built with
    # A = P^-1 D Q^-1, and on copies with a flipped P entry or a row of P and
    # D scaled by a non-unit, the verdicts must be the schoolbook loop's
    ring = RINGS[name]
    rng = random.Random(f"finite-verdicts/{name}")
    elems = sorted(ring._payloads, key=ring._sort_key)
    units = [x for x in elems if ring._is_unit(x)]
    non_unit, zero = [x for x in elems if x not in units][-1], ring._zero()
    cases = []
    for _ in range(12):
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        d = [[zero] * n for _ in range(m)]
        entry = rng.choice(elems)
        for i in range(min(m, n)):
            d[i][i], entry = entry, ring._mul(entry, rng.choice(elems))
        (p, p_inv), (q, q_inv) = (_unimodular_pair(ring, rng, k, elems, units) for k in (m, n))
        a = loop_matmul(ring, loop_matmul(ring, p_inv, d), q_inv)
        cases.append((a, p, d, q, None))
        j = next((j for j, row in enumerate(a) if any(x != zero for x in row)), None)
        if j is not None:
            flipped = [list(row) for row in p]
            flipped[0][j] = ring._add(flipped[0][j], ring._one())
            cases.append((a, flipped, d, q, "product"))
        scaled_p, scaled_d = [list(row) for row in p], [list(row) for row in d]
        scaled_p[0] = [ring._mul(non_unit, x) for x in p[0]]
        scaled_d[0] = [ring._mul(non_unit, x) for x in d[0]]
        cases.append((a, scaled_p, scaled_d, q, "unit-determinant"))

    def verdicts():
        return [
            check_certificate(
                ring,
                from_payload_grid(ring, a),
                ReductionCertificate(*(from_payload_grid(ring, g) for g in (p, d, q))),
            )
            for a, p, d, q, _ in cases
        ]

    kernel = verdicts()
    assert kernel == [clause for *_, clause in cases]
    monkeypatch.setattr(EuclideanQuotientRing, "_matmul", loop_matmul)
    monkeypatch.setattr(ProductRing, "_matmul", loop_matmul)
    assert verdicts() == kernel
