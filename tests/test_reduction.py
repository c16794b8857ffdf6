import hashlib
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edrkit import (
    CertificateShapeError,
    IntegerModRing,
    IntegerRing,
    Matrix,
    PolynomialRing,
    ReductionCertificate,
    UnsupportedRingError,
    check_certificate,
    diadem_step,
    format_certificate,
    format_matrix,
    hermite_reduce_1x2,
    hermite_reduce_2x1,
    is_comaximal,
    is_diadem_via_quotient,
    parse_certificate,
    parse_matrix,
    reduce_2x2_comaximal,
    smith_normal_form,
    stable_range_2_witness,
    verify_certificate,
)
from oracles import (
    LoopTableau,
    int_determinantal_divisors,
    p_add,
    p_divmod,
    p_mul,
    p_trim,
    poly_determinantal_divisors,
)

Z = IntegerRing()
G5 = PolynomialRing(5)


def int_matrix(rows):
    return Matrix.from_rows(Z, rows)


def random_comaximal_triple(rng, span=1000):
    while True:
        a, b, c = (rng.randint(-span, span) for _ in range(3))
        if math.gcd(a, math.gcd(b, c)) == 1:
            return a, b, c


# -- hermite steps -------------------------------------------------------------


def test_hermite_1x2_frozen_example():
    q, g = hermite_reduce_1x2(Z, Z.element(4), Z.element(6))
    assert g.payload == 2
    assert q.payload_grid() == [[-1, -3], [1, 2]]


def test_hermite_1x2_zero_case():
    q, g = hermite_reduce_1x2(Z, Z.element(0), Z.element(0))
    assert g.payload == 0
    assert q.payload_grid() == [[1, 0], [0, 1]]


def test_hermite_1x2_polynomial_example():
    a = G5.element([4, 0, 1])  # x^2 - 1 over GF(5)
    b = G5.element([4, 1])  # x - 1
    q, g = hermite_reduce_1x2(G5, a, b)
    assert g.payload == (4, 1)
    row = Matrix(G5, 1, 2, (a, b)) * q
    assert row.payload_grid() == [[(4, 1), ()]]


def test_hermite_1x2_properties_random():
    rng = random.Random(21)
    for _ in range(200):
        a, b = Z.element(rng.randint(-500, 500)), Z.element(rng.randint(-500, 500))
        q, g = hermite_reduce_1x2(Z, a, b)
        row = Matrix(Z, 1, 2, (a, b)) * q
        assert row.payload_grid() == [[g.payload, 0]]
        det = q.entry(0, 0) * q.entry(1, 1) - q.entry(0, 1) * q.entry(1, 0)
        assert Z.is_unit(det) or (a.payload == b.payload == 0)
        assert g.payload == math.gcd(a.payload, b.payload)


def test_hermite_2x1_is_transpose_symmetric():
    rng = random.Random(22)
    for _ in range(100):
        a, b = Z.element(rng.randint(-500, 500)), Z.element(rng.randint(-500, 500))
        p, g = hermite_reduce_2x1(Z, a, b)
        col = p * Matrix(Z, 2, 1, (a, b))
        assert col.payload_grid() == [[g.payload], [0]]


def test_hermite_rejects_non_bezout_carrier():
    r = IntegerModRing(12)
    with pytest.raises(UnsupportedRingError, match="Bezout domain"):
        hermite_reduce_1x2(r, r.element(2), r.element(3))


# -- diadem step -----------------------------------------------------------------


def test_diadem_step_frozen_examples():
    x, y, w = diadem_step(Z, Z.element(6), Z.element(10), Z.element(15))
    assert (x.payload, y.payload, w.payload) == (0, 0, 10)
    x, y, w = diadem_step(Z, Z.element(0), Z.element(1), Z.element(0))
    assert w.payload == 1
    x, y, w = diadem_step(Z, Z.element(2), Z.element(0), Z.element(3))
    assert w.payload == 1
    assert (Z.element(0) + Z.element(2) * x + Z.element(3) * y) == w


def test_diadem_step_soundness_sampled():
    rng = random.Random(23)
    for _ in range(60):
        a, b, c = random_comaximal_triple(rng, span=30)
        x, y, w = diadem_step(Z, Z.element(a), Z.element(b), Z.element(c))
        assert Z.element(b) + Z.element(a) * x + Z.element(c) * y == w
        assert w.payload != 0
        # quotient certificate: Z/(w) has stable range 1
        assert is_diadem_via_quotient(Z, w, Z.element(0), Z.element(0))


def test_diadem_step_rejects_non_comaximal():
    with pytest.raises(ValueError, match="not comaximal"):
        diadem_step(Z, Z.element(2), Z.element(4), Z.element(6))


# -- 2x2 comaximal core -------------------------------------------------------------


def test_reduce_2x2_frozen_example():
    a = int_matrix([[6, 0], [10, 15]])
    cert = reduce_2x2_comaximal(Z, a)
    assert cert.D.payload_grid() == [[1, 0], [0, 90]]
    assert verify_certificate(Z, a, cert)


def test_reduce_2x2_identity_passthrough():
    a = int_matrix([[1, 0], [0, 1]])
    cert = reduce_2x2_comaximal(Z, a)
    assert cert.D.payload_grid() == [[1, 0], [0, 1]]
    assert cert.P.payload_grid() == [[1, 0], [0, 1]]
    assert cert.Q.payload_grid() == [[1, 0], [0, 1]]


def test_reduce_2x2_polynomial_example():
    a = Matrix.from_rows(G5, [[(0, 1), ()], [(1,), (1, 1)]])
    cert = reduce_2x2_comaximal(G5, a)
    assert cert.D.payload_grid() == [[(1,), ()], [(), (0, 1, 1)]]
    assert verify_certificate(G5, a, cert)


def test_reduce_2x2_shape_and_precondition_errors():
    with pytest.raises(ValueError, match="2x2"):
        reduce_2x2_comaximal(Z, int_matrix([[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(ValueError, match=r"\[\[a, 0\], \[b, c\]\]"):
        reduce_2x2_comaximal(Z, int_matrix([[1, 5], [0, 1]]))
    with pytest.raises(ValueError, match="not comaximal"):
        reduce_2x2_comaximal(Z, int_matrix([[2, 0], [4, 6]]))


def test_reduce_2x2_random_sweep():
    rng = random.Random(24)
    for _ in range(250):
        a, b, c = random_comaximal_triple(rng)
        m = int_matrix([[a, 0], [b, c]])
        cert = reduce_2x2_comaximal(Z, m)
        grid = cert.D.payload_grid()
        assert grid[0][0] == 1 and grid[0][1] == 0 and grid[1][0] == 0
        assert abs(grid[1][1]) == abs(a * c)
        assert grid[1][1] >= 0
        assert verify_certificate(Z, m, cert)


def test_reduce_2x2_deterministic():
    m = int_matrix([[396, 0], [-715, 810]])
    first = reduce_2x2_comaximal(Z, m)
    second = reduce_2x2_comaximal(Z, m)
    assert format_certificate(first) == format_certificate(second)


# -- smith normal form -----------------------------------------------------------------


def test_snf_frozen_examples():
    cases = [
        ([[2, 0], [0, 3]], [1, 6]),
        ([[4, 6], [6, 9]], [1, 0]),
        ([[-7]], [7]),
    ]
    for grid, diag in cases:
        m = int_matrix(grid)
        cert = smith_normal_form(Z, m)
        assert [e.payload for e in cert.D.diagonal()] == diag
        assert verify_certificate(Z, m, cert)


def test_snf_empty_and_zero_matrices():
    empty = Matrix(Z, 0, 0, ())
    cert = smith_normal_form(Z, empty)
    assert cert.D.shape == (0, 0) and verify_certificate(Z, empty, cert)
    tall = Matrix(Z, 3, 0, ())
    cert = smith_normal_form(Z, tall)
    assert cert.D.shape == (3, 0) and verify_certificate(Z, tall, cert)
    zero = int_matrix([[0, 0, 0], [0, 0, 0]])
    cert = smith_normal_form(Z, zero)
    assert cert.D.payload_grid() == [[0, 0, 0], [0, 0, 0]]
    assert verify_certificate(Z, zero, cert)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
def test_snf_empty_certificates_keep_their_shapes(shape):
    empty = Matrix(Z, *shape, ())
    cert = smith_normal_form(Z, empty)
    m, n = shape
    assert (cert.P.shape, cert.D.shape, cert.Q.shape) == ((m, m), (m, n), (n, n))
    assert verify_certificate(Z, empty, cert)
    assert parse_certificate(Z, format_certificate(cert)) == cert


def test_snf_rectangular_shapes():
    rng = random.Random(25)
    for shape in [(1, 4), (4, 1), (2, 5), (5, 2), (3, 3)]:
        for _ in range(40):
            grid = [
                [rng.randint(-99, 99) for _ in range(shape[1])] for _ in range(shape[0])
            ]
            m = int_matrix(grid)
            cert = smith_normal_form(Z, m)
            assert verify_certificate(Z, m, cert)
            diag = [e.payload for e in cert.D.diagonal()]
            prod = 1
            for k, d in enumerate(diag, start=1):
                prod *= d
                assert prod == int_determinantal_divisors(grid)[k - 1]


def test_snf_transpose_coherence():
    rng = random.Random(26)
    for _ in range(60):
        m = int_matrix([[rng.randint(-99, 99) for _ in range(3)] for _ in range(4)])
        direct = smith_normal_form(Z, m)
        flipped = smith_normal_form(Z, m.transpose())
        assert [e.payload for e in direct.D.diagonal()] == [
            e.payload for e in flipped.D.diagonal()
        ]


def test_snf_over_polynomials():
    rng = random.Random(27)
    for _ in range(40):
        grid = [
            [tuple(rng.randrange(5) for _ in range(rng.randint(0, 3))) for _ in range(3)]
            for _ in range(3)
        ]
        m = Matrix.from_rows(G5, grid)
        cert = smith_normal_form(G5, m)
        assert verify_certificate(G5, m, cert)
        canonical = [G5.element(list(entry)).payload for row in grid for entry in row]
        oracle = poly_determinantal_divisors(
            [canonical[i * 3 : i * 3 + 3] for i in range(3)], 5
        )
        prod = (1,)
        for k, d in enumerate(e.payload for e in cert.D.diagonal()):
            prod = p_mul(prod, d, 5)
            assert prod == oracle[k]


SNF_RINGS = {
    "Z": Z,
    "GF(2)[x]": PolynomialRing(2),
    "GF(3)[x]": PolynomialRing(3),
    "GF(5)[x]": G5,
}


def _power(ring, base, k):
    out = ring._one()
    for _ in range(k):
        out = ring._mul(out, base)
    return out


def _snf_entries(ring, prime_powers):
    if isinstance(ring, IntegerRing):
        if prime_powers:
            return st.builds(
                lambda unit, base, k: unit * base**k,
                st.sampled_from([1, -1]),
                st.sampled_from([2, 3]),
                st.integers(0, 6),
            )
        return st.integers(-30, 30)
    if prime_powers:
        # unit multiples of powers of the primes x and x + 1
        return st.builds(
            lambda unit, base, k: ring._mul((unit,), _power(ring, base, k)),
            st.integers(1, ring.p - 1),
            st.sampled_from([(0, 1), (1, 1)]),
            st.integers(0, 4),
        )
    return st.lists(st.integers(0, ring.p - 1), max_size=3).map(ring._canonical)


@st.composite
def _snf_grids(draw, ring, kind):
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    zero = ring._zero()
    entries = _snf_entries(ring, kind == "prime-power")
    if kind == "sparse":
        # about three entries in four are zero
        entries = st.one_of(st.just(zero), st.just(zero), st.just(zero), entries)
    if kind == "rank-deficient":
        r = draw(st.integers(0, min(m, n) - 1))
        left = [[draw(entries) for _ in range(r)] for _ in range(m)]
        right = [[draw(entries) for _ in range(n)] for _ in range(r)]
        grid = [[zero] * n for _ in range(m)]
        for i in range(m):
            for j in range(n):
                for k in range(r):
                    grid[i][j] = ring._add(grid[i][j], ring._mul(left[i][k], right[k][j]))
        return grid
    if kind == "non-chain-diagonal":
        # a random diagonal, seldom a chain d_1 | d_2 | ..., hidden by unimodular shears
        grid = [[zero] * n for _ in range(m)]
        for i in range(min(m, n)):
            grid[i][i] = draw(entries)
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
            f = draw(entries)
            if i != j:
                grid[i] = [ring._add(x, ring._mul(f, y)) for x, y in zip(grid[i], grid[j])]
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            if i != j:
                for row in grid:
                    row[i] = ring._add(row[i], ring._mul(f, row[j]))
        return grid
    return [[draw(entries) for _ in range(n)] for _ in range(m)]


def _determinantal_divisors(ring, grid):
    if isinstance(ring, IntegerRing):
        return int_determinantal_divisors(grid)
    return poly_determinantal_divisors(grid, ring.p)


@pytest.mark.parametrize(
    "kind", ["dense", "sparse", "rank-deficient", "prime-power", "non-chain-diagonal"]
)
@pytest.mark.parametrize("name", list(SNF_RINGS))
def test_snf_diagonal_matches_determinantal_divisors(name, kind):
    ring = SNF_RINGS[name]

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(_snf_grids(ring, kind))
    def check(grid):
        m = Matrix.from_rows(ring, grid)
        cert = smith_normal_form(ring, m)
        assert verify_certificate(ring, m, cert)
        prod = ring._one()
        for d, expected in zip(cert.D.diagonal(), _determinantal_divisors(ring, grid)):
            prod = ring._mul(prod, d.payload)
            assert prod == expected

    check()


def _seeded_poly_grid(rng, p, m, n, rank):
    """An m x n GF(p)[x] grid of degree <= 1 entries, or, for rank < min(m, n),
    a product of m x rank and rank x n such grids (built with the oracles)."""

    def entries(rows, cols):
        return [[p_trim((rng.randrange(p), rng.randrange(p))) for _ in range(cols)] for _ in range(rows)]

    if rank >= min(m, n):
        return entries(m, n)
    left, right = entries(m, rank), entries(rank, n)
    grid = [[() for _ in range(n)] for _ in range(m)]
    for i in range(m):
        for j in range(n):
            for k in range(rank):
                grid[i][j] = p_add(grid[i][j], p_mul(left[i][k], right[k][j], p), p)
    return grid


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_poly_snf_is_identical_under_schoolbook_kernels(p, monkeypatch):
    # the packed products, column shears, row reductions and zip-based sums
    # of PolynomialRing must not change a single P, D or Q entry, nor a verdict
    ring = PolynomialRing(p)
    rng = random.Random(f"schoolbook-kernels/{p}")
    shapes = [(12, 12, 12), (12, 12, 5)]
    for _ in range(3):
        m, n = rng.randint(2, 12), rng.randint(2, 12)
        shapes.append((m, n, rng.choice([min(m, n), rng.randint(0, min(m, n) - 1)])))
    matrices = [Matrix.from_rows(ring, _seeded_poly_grid(rng, p, *shape)) for shape in shapes]

    def outcomes():
        out = []
        for m in matrices:
            cert = smith_normal_form(ring, m)
            d_grid = cert.D.payload_grid()
            d_grid[0][0] = ring._add(d_grid[0][0], ring._one())
            tampered = ReductionCertificate(cert.P, Matrix.from_rows(ring, d_grid), cert.Q)
            verdicts = check_certificate(ring, m, cert), check_certificate(ring, m, tampered)
            out.append((format_certificate(cert), *verdicts))
        return out

    packed = outcomes()
    monkeypatch.setattr(PolynomialRing, "_add", lambda self, x, y: p_add(x, y, self.p))
    monkeypatch.setattr(PolynomialRing, "_mul", lambda self, x, y: p_mul(x, y, self.p))
    monkeypatch.setattr(PolynomialRing, "_divmod", lambda self, x, d: p_divmod(x, d, self.p))
    monkeypatch.setattr(PolynomialRing, "_tableau", lambda self, grid: LoopTableau(self, grid))
    assert outcomes() == packed
    assert {verdict for _, verdict, _ in packed} == {None}
    assert {verdict for _, _, verdict in packed} == {"product"}


def _pinned_corpus():
    """(ring, grid) pairs: seeded Z matrices of sides 1-8 (dense,
    rank-deficient, wide, tall) and GF(2/3/5)[x] ones of sides 1-5."""
    rng = random.Random("pinned-certificates")

    def z_grid(m, n):
        return [[rng.randint(-99, 99) for _ in range(n)] for _ in range(m)]

    out = []
    for side in range(1, 9):
        rank = rng.randint(0, side - 1)
        left, right = z_grid(side, rank), z_grid(rank, side)
        deficient = [
            [sum(left[i][k] * right[k][j] for k in range(rank)) for j in range(side)]
            for i in range(side)
        ]
        wide = z_grid(side, side + rng.randint(1, 4))
        tall = z_grid(side + rng.randint(1, 4), side)
        out += [(Z, grid) for grid in (z_grid(side, side), deficient, wide, tall)]
    for p in (2, 3, 5):
        for k in range(1, 6):
            for m, n, rank in ((k, k, k), (k, k, k - 1), (k, k + 1, k), (k + 1, k, k)):
                out.append((PolynomialRing(p), _seeded_poly_grid(rng, p, m, n, rank)))
    return out


def test_snf_certificates_match_pinned_digest():
    # D is pinned by the chain; P and Q may change only when a change says
    # so, and this digest of whole formatted certificates is where it shows
    digest = hashlib.sha256()
    for ring, grid in _pinned_corpus():
        cert = smith_normal_form(ring, Matrix.from_rows(ring, grid))
        digest.update(format_certificate(cert).encode())
    assert digest.hexdigest() == (
        "f2e6cb6d7e7fd30f0dcf198f0d1fd1e06a687880af2ec6d0f4da81ddc178d3e5"
    )


def _wide_slot_corpus():
    """(ring, grid) pairs whose column shears need 2-, 4- and 8-byte Kronecker
    slots: seeded GF(7/31/251/65537)[x] matrices of sides 1-8 and entry
    degree <= 3 (every third with a last row that is a constant multiple of
    the first), and eight 10 x 10 GF(5)[x] ones of degree <= 1."""
    rng = random.Random("pinned-wide-slots")

    def entry(p, degree):
        return p_trim(tuple(rng.randrange(p) for _ in range(rng.randint(0, degree + 1))))

    out = []
    for p in (7, 31, 251, 65537):
        for k in range(12):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            grid = [[entry(p, 3) for _ in range(n)] for _ in range(m)]
            if k % 3 == 2 and m > 1:
                c = rng.randrange(p)
                grid[-1] = [p_trim(tuple(c * a % p for a in x)) for x in grid[0]]
            out.append((PolynomialRing(p), grid))
    for _ in range(8):
        out.append((PolynomialRing(5), [[entry(5, 1) for _ in range(10)] for _ in range(10)]))
    return out


def test_snf_certificates_match_pinned_wide_slot_digest():
    # the pinned corpus above has p <= 5 only; this one pins certificates
    # whose packed column shears use every slot width
    digest = hashlib.sha256()
    for ring, grid in _wide_slot_corpus():
        cert = smith_normal_form(ring, Matrix.from_rows(ring, grid))
        digest.update(format_certificate(cert).encode())
    assert digest.hexdigest() == (
        "a71741960cdbaf459bfa72893587d4a1e82241868227ee7b1be2676f6c8a485a"
    )


def _size_reduction_corpus():
    """(ring, grid) pairs whose Hermite passes size-reduce long rows: twelve
    seeded GF(5)[x] and twelve GF(3)[x] matrices with sides 6-14 and entry
    degree <= 2, every third with a last row that is a constant multiple of
    the first."""
    rng = random.Random("pinned-size-reduction")
    out = []
    for p in (5, 3):
        for k in range(12):
            m, n = rng.randint(6, 14), rng.randint(6, 14)
            grid = [[p_trim(tuple(rng.randrange(p) for _ in range(3))) for _ in range(n)] for _ in range(m)]
            if k % 3 == 2:
                c = rng.randrange(1, p)
                grid[-1] = [tuple(c * a % p for a in x) for x in grid[0]]
            out.append((PolynomialRing(p), grid))
    return out


def test_snf_certificates_match_pinned_size_reduction_digest():
    # the row kernel Tableau.reduce_row must leave every shear, and so P, D
    # and Q, as the per-entry division and column shears made them
    digest = hashlib.sha256()
    for ring, grid in _size_reduction_corpus():
        cert = smith_normal_form(ring, Matrix.from_rows(ring, grid))
        digest.update(format_certificate(cert).encode())
    assert digest.hexdigest() == (
        "20e56ea8366543e1f6da9341f208cafc9723f4a2e6b6b26780ded2f74de7deb3"
    )


def test_snf_later_hermite_passes(monkeypatch):
    import edrkit.reduction as reduction

    # the first pass leaves 2 below the diagonal; the passes on the transpose
    # shrink the pivots 4 -> 2 -> 1 before the matrix is diagonal
    passes = []
    inner = reduction._column_hermite

    def counted(ring, tab, m, n):
        passes.append((m, n))
        return inner(ring, tab, m, n)

    monkeypatch.setattr(reduction, "_column_hermite", counted)
    m = int_matrix([[4, 0], [2, 3]])
    cert = smith_normal_form(Z, m)
    assert len(passes) >= 3
    assert cert.D.payload_grid() == [[1, 0], [0, 12]]
    assert verify_certificate(Z, m, cert)


def test_snf_deterministic():
    m = int_matrix([[12, 8, -30], [0, 9, 14], [7, 7, 7]])
    assert format_certificate(smith_normal_form(Z, m)) == format_certificate(
        smith_normal_form(Z, m)
    )


def test_snf_rejects_finite_carriers():
    r = IntegerModRing(12)
    with pytest.raises(UnsupportedRingError, match="Bezout domain"):
        smith_normal_form(r, Matrix.from_rows(r, [[2, 0], [0, 3]]))


def _adjugate_inverse(grid):
    """Exact inverse of an integer matrix with unit determinant, by cofactors."""
    from oracles import _minor_det

    n = len(grid)
    memo = {}
    det = _minor_det(grid, tuple(range(n)), tuple(range(n)), memo)
    assert det in (1, -1)
    inv = []
    for i in range(n):
        row = []
        for j in range(n):
            rs = tuple(r for r in range(n) if r != j)
            cs = tuple(c for c in range(n) if c != i)
            cof = _minor_det(grid, rs, cs, memo) if n > 1 else 1
            row.append(cof * (-1) ** (i + j) * det)
        inv.append(row)
    return inv, det


def _seeded_int_grid(label, rows, cols):
    rng = random.Random(f"swell-{label}")
    return [[rng.randint(-99, 99) for _ in range(cols)] for _ in range(rows)]


def _rank_deficient_grid(n, rank):
    """n x n with entries in [-99, 99] whose last rows repeat the first ones."""
    top = _seeded_int_grid(f"deficient-{n}", rank, n)
    return top + [list(top[i % rank]) for i in range(n - rank)]


@pytest.mark.parametrize(
    "grid",
    [
        pytest.param(_seeded_int_grid("z32", 32, 32), id="square-32"),
        pytest.param(_seeded_int_grid("z48", 48, 48), id="square-48"),
        pytest.param(_seeded_int_grid("wide", 20, 32), id="wide-20x32"),
        pytest.param(_seeded_int_grid("tall", 32, 20), id="tall-32x20"),
        pytest.param(_rank_deficient_grid(32, 20), id="rank-20-of-32"),
    ],
)
def test_snf_transform_entries_stay_polynomial_over_z(grid):
    # A polynomial bound: twice the bits of Hadamard's bound n^(n/2) * 99^n,
    # padded to 2n(log2 99 + log2 n), whatever the shape or rank.  Without
    # size reduction the entries reach 10^5 bits at n = 32.
    m = int_matrix(grid)
    n = max(m.shape)
    cert = smith_normal_form(Z, m)
    bits = max(abs(e.payload).bit_length() for b in (cert.P, cert.Q) for e in b.entries)
    assert bits <= 2 * n * (math.log2(99) + math.log2(n))
    assert verify_certificate(Z, m, cert)
    # the certificate text stays under CPython's default int/str digit limit
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert parse_certificate(Z, format_certificate(cert)) == cert
    finally:
        sys.set_int_max_str_digits(previous)


def test_snf_transform_degrees_stay_polynomial_over_gf5x():
    n = 14
    rng = random.Random("swell-gf5-14")
    grid = [[tuple(rng.randrange(5) for _ in range(2)) for _ in range(n)] for _ in range(n)]
    m = Matrix.from_rows(G5, grid)
    cert = smith_normal_form(G5, m)
    degree = max(len(e.payload) - 1 for b in (cert.P, cert.Q) for e in b.entries)
    # entry degree <= 1, so a k x k minor has degree <= k; two minors bound P, Q
    assert degree <= 2 * n
    assert verify_certificate(G5, m, cert)


def test_transforms_have_exact_inverses():
    rng = random.Random(31)
    for _ in range(30):
        m = int_matrix([[rng.randint(-60, 60) for _ in range(3)] for _ in range(3)])
        cert = smith_normal_form(Z, m)
        for block in (cert.P, cert.Q):
            grid = block.payload_grid()
            inv, det = _adjugate_inverse(grid)
            product = Matrix.from_rows(Z, inv) * block
            assert product.payload_grid() == Matrix.identity(Z, 3).payload_grid()
            inv_det = _adjugate_inverse(inv)[1]
            assert det * inv_det == 1


# -- certificate verification -----------------------------------------------------------


def test_verify_round_trip():
    m = int_matrix([[2, 0], [0, 3]])
    cert = smith_normal_form(Z, m)
    assert check_certificate(Z, m, cert) is None


def test_verify_chain_violation():
    m = int_matrix([[2, 0], [0, 3]])
    swap = int_matrix([[0, 1], [1, 0]])
    bad = ReductionCertificate(swap, int_matrix([[3, 0], [0, 2]]), swap)
    assert check_certificate(Z, m, bad) == "chain"


def test_verify_product_violation():
    m = int_matrix([[2, 0], [0, 3]])
    cert = smith_normal_form(Z, m)
    tampered_p = Matrix(
        Z,
        2,
        2,
        (cert.P.entry(0, 0) + Z.one,) + cert.P.entries[1:],
    )
    assert check_certificate(Z, m, ReductionCertificate(tampered_p, cert.D, cert.Q)) == "product"


def test_verify_unit_determinant_violation():
    m = int_matrix([[0]])
    bad = ReductionCertificate(int_matrix([[2]]), int_matrix([[0]]), int_matrix([[1]]))
    assert check_certificate(Z, m, bad) == "unit-determinant"


def test_verify_normalization_violation():
    m = int_matrix([[2, 0], [0, 4]])
    cert = smith_normal_form(Z, m)
    flip = int_matrix([[1, 0], [0, -1]])
    bad = ReductionCertificate(flip * cert.P, flip * cert.D, cert.Q)
    assert check_certificate(Z, m, bad) == "normalization"


def test_verify_off_diagonal_violation():
    m = int_matrix([[1, 1], [0, 1]])
    bad = ReductionCertificate(Matrix.identity(Z, 2), m, Matrix.identity(Z, 2))
    assert check_certificate(Z, m, bad) == "chain"


def test_verify_shape_mismatch_raises():
    m = int_matrix([[1, 0], [0, 1]])
    with pytest.raises(CertificateShapeError):
        check_certificate(
            Z,
            m,
            ReductionCertificate(Matrix.identity(Z, 3), m, Matrix.identity(Z, 2)),
        )


def test_verifier_accepts_finite_ring_certificates():
    r = IntegerModRing(12)
    m = Matrix.from_rows(r, [[2, 0], [0, 6]])
    cert = ReductionCertificate(Matrix.identity(r, 2), m, Matrix.identity(r, 2))
    assert verify_certificate(r, m, cert)


def test_verify_mutation_sweep():
    rng = random.Random(28)
    m = int_matrix([[rng.randint(-50, 50) for _ in range(3)] for _ in range(3)])
    cert = smith_normal_form(Z, m)
    assert verify_certificate(Z, m, cert)
    for idx in range(9):
        entries = list(cert.P.entries)
        entries[idx] = entries[idx] + Z.one
        mutated = ReductionCertificate(Matrix(Z, 3, 3, tuple(entries)), cert.D, cert.Q)
        assert not verify_certificate(Z, m, mutated)


def test_certificate_text_round_trip():
    m = int_matrix([[4, 6], [6, 9]])
    cert = smith_normal_form(Z, m)
    text = format_certificate(cert)
    parsed = parse_certificate(Z, text)
    assert parsed == cert


@pytest.mark.parametrize(
    "shape, text", [((3, 0), "3 0\n\n\n\n"), ((0, 3), "0 3\n"), ((0, 0), "0 0\n")]
)
def test_empty_matrix_text_round_trip(shape, text):
    # a zero-width row is written as a blank line; the header alone says
    # that no row line follows
    for ring in (Z, G5):
        empty = Matrix(ring, *shape, ())
        assert format_matrix(empty) == text
        assert parse_matrix(ring, text) == empty


# -- stable range 2 witnesses ------------------------------------------------------------


def test_sr2_witness_frozen_examples():
    w = stable_range_2_witness(Z, Z.element(1), Z.element(0), Z.element(0))
    assert (w.p.payload, w.q.payload) == (0, 0)
    w = stable_range_2_witness(Z, Z.element(2), Z.element(3), Z.element(0))
    assert (w.p.payload, w.q.payload) == (0, 0)
    w = stable_range_2_witness(Z, Z.element(6), Z.element(10), Z.element(15))
    assert math.gcd(6 + 15 * w.p.payload, 10 + 15 * w.q.payload) == 1


def test_sr2_witness_random_sweep():
    rng = random.Random(29)
    for _ in range(300):
        a, b, c = random_comaximal_triple(rng)
        w = stable_range_2_witness(Z, Z.element(a), Z.element(b), Z.element(c))
        assert math.gcd(a + c * w.p.payload, b + c * w.q.payload) == 1


def test_sr2_witness_over_polynomials():
    rng = random.Random(30)
    done = 0
    while done < 40:
        a = G5.element([rng.randrange(5) for _ in range(rng.randint(0, 3))])
        b = G5.element([rng.randrange(5) for _ in range(rng.randint(0, 3))])
        c = G5.element([rng.randrange(5) for _ in range(rng.randint(0, 3))])
        if not is_comaximal(G5, (a, b, c)):
            continue
        done += 1
        w = stable_range_2_witness(G5, a, b, c)
        assert is_comaximal(G5, (a + c * w.p, b + c * w.q))


def test_sr2_witness_residue_check_raises(monkeypatch):
    import edrkit.reduction as reduction

    # an off-by-one residue no longer divides out; the check must raise even
    # under python -O, which strips assert statements
    good = reduction._reduce_mod
    monkeypatch.setattr(
        reduction, "_reduce_mod", lambda ring, v, m: good(ring, v, m) + ring.one
    )
    with pytest.raises(AssertionError, match="does not divide"):
        stable_range_2_witness(Z, Z.element(5), Z.element(7), Z.element(11))


def test_reduce_mod_is_nonnegative_for_a_negative_integer_modulus():
    import edrkit.reduction as reduction

    for value, modulus, residue in [(7, -5, 2), (-7, -5, 3), (-7, 5, 3), (10, -5, 0)]:
        got = reduction._reduce_mod(Z, Z.element(value), Z.element(modulus))
        assert got == Z.element(residue)


def test_sr2_witness_rejects_non_comaximal():
    with pytest.raises(ValueError, match="not comaximal"):
        stable_range_2_witness(Z, Z.element(2), Z.element(4), Z.element(6))
