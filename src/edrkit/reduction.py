"""Certificate-producing diagonal reduction over Z and GF(p)[x].

The 2x2 comaximal core follows a fixed five-step sequence: replace the
lower-left entry by a diadem with unipotent shears, send the bottom row to
(0, g) with a column Hermite step, use the divisor-of-a-diadem completion
to make the first column comaximal, bring a 1 into the corner with a row
Hermite step, and clear.  The full Smith form diagonalizes with one
routine, a Kannan-Bachem column Hermite pass that keeps every entry
bounded by the input's minors, run alternately on the matrix and its
transpose until nothing is left below the diagonal (polynomially many
passes); divisibility chains are repaired by delegating diagonal pairs
back to the comaximal core.  Both work on one tableau [[A, P], [Q, 0]],
whose transpose is the tableau of the transposed problem; the ring holds it
in its own layout, and the reducer reads and changes it only through the
tableau's operations.  These are column operations and the transpose: a
row operation runs as the matching column operation on the transposed
tableau (_row_steps), and a swap is the column block [[0, 1], [1, 0]].
"""

from __future__ import annotations

from .finite_lab import find_diadem, is_comaximal
from .matrices import Matrix, ReductionCertificate, from_payload_grid
from .rings import (
    EuclideanRing,
    Ring,
    RingElement,
    Tableau,
    UnsupportedRingError,
    bezout_gcd,
    quotient_ring,
    value_class,
)


@value_class
class SR2Witness:
    """p, q with (a + c*p)R + (b + c*q)R = R for a comaximal triple (a, b, c)."""

    a: RingElement
    b: RingElement
    c: RingElement
    p: RingElement
    q: RingElement


def _require_bezout_domain(ring: Ring) -> None:
    if not isinstance(ring, EuclideanRing):
        raise UnsupportedRingError(
            f"producer requires a Bezout domain (Z or GF(p)[x]), not {ring.spec()}"
        )


# ---------------------------------------------------------------------------
# Hermite steps for 1x2 rows and 2x1 columns
# ---------------------------------------------------------------------------


def _hermite_blocks(ring: Ring, x, y):
    """(T, g) with (x y) * T = (g, 0); T is a payload 2x2 with unit determinant.

    The row step is the transpose: T^t * (x y)^t = (g, 0)^t.
    """
    if x == ring._zero() and y == ring._zero():
        one, zero = ring._one(), ring._zero()
        return ((one, zero), (zero, one)), zero
    cert = bezout_gcd(ring, RingElement(ring, x), RingElement(ring, y))
    u, v = cert.u.payload, cert.v.payload
    a1, b1 = cert.a1.payload, cert.b1.payload
    return ((u, ring._neg(b1)), (v, a1)), cert.g.payload


def hermite_reduce_1x2(
    ring: Ring, a: RingElement, b: RingElement
) -> tuple[Matrix, RingElement]:
    """Q and g with (a b) * Q = (g, 0); det(Q) = 1 unless a = b = 0 (Q = I).

    g is the gcd of a and b, nonnegative over Z and monic over GF(p)[x].
    """
    _require_bezout_domain(ring)
    ring._check(a)
    ring._check(b)
    blocks, g = _hermite_blocks(ring, a.payload, b.payload)
    q = from_payload_grid(ring, [list(blocks[0]), list(blocks[1])])
    return q, RingElement(ring, g)


def hermite_reduce_2x1(
    ring: Ring, a: RingElement, b: RingElement
) -> tuple[Matrix, RingElement]:
    """P and g with P * (a b)^T = (g, 0)^T; the transpose-side Hermite step."""
    q, g = hermite_reduce_1x2(ring, a, b)
    return q.transpose(), g


# ---------------------------------------------------------------------------
# The tableau [[A, P], [Q, 0]]
# ---------------------------------------------------------------------------


def _start(ring: Ring, source: Matrix) -> Tableau:
    """The tableau [[A, P], [Q, 0]] of source, with P = I and Q = I, so that
    every operation keeps P * A0 * Q = A.

    The ring holds it (ring._tableau), in its own layout, as m + n rows: the
    first m hold A (m x n) followed by P (m x m), the last n hold Q (n x n)
    followed by n x m zeros, so entry (i, j) with i < m and j < n is the
    working matrix.  A row operation on rows below m moves A and P together,
    a column operation on columns below n moves A and Q together, and
    neither touches the zero block.  The tableau's transpose is the tableau
    [[A^t, Q^t], [P^t, 0]] of the transposed problem Q^t * A0^t * P^t = A^t,
    whose column operations are row operations on the original; the
    callers swap m and n with it.
    """
    m, n = source.rows, source.cols
    grid = [row + _unit_row(ring, i, m) for i, row in enumerate(source.payload_grid())]
    grid += [_unit_row(ring, j, n + m) for j in range(n)]
    return ring._tableau(grid)


def _certificate(ring: Ring, tab: Tableau, m: int, n: int) -> ReductionCertificate:
    """P, D and Q read off the tableau of an m x n problem, shaped even when empty."""
    return ReductionCertificate(
        from_payload_grid(ring, tab.block(0, m, n, m + n), m),
        from_payload_grid(ring, tab.block(0, m, 0, n), n),
        from_payload_grid(ring, tab.block(m, m + n, 0, n), n),
    )


def _row_steps(tab: Tableau, *steps) -> None:
    """Row operations, run as the matching column operations on the
    transposed tableau: each step is a column operation and its arguments.
    Rows i, j becoming t times the old pair is (tab.col_block, i, j, t^t),
    so a row swap is (tab.col_block, i, j, [[0, 1], [1, 0]]), and row i
    times the unit u is (tab.add_col, i, i, u - 1)."""
    tab.transpose()
    for step, *args in steps:
        step(*args)
    tab.transpose()


def _unit_row(ring: Ring, i: int, size: int) -> list:
    one, zero = ring._one(), ring._zero()
    return [one if k == i else zero for k in range(size)]


# ---------------------------------------------------------------------------
# Diadem step and the 2x2 comaximal core
# ---------------------------------------------------------------------------


def diadem_step(
    ring: Ring, a: RingElement, b: RingElement, c: RingElement
) -> tuple[RingElement, RingElement, RingElement]:
    """(x, y, w) with w = b + a*x + c*y a diadem, for a comaximal triple.

    w is found as a diadem of the pair (b, gcd(a, c)); x and y are the
    gcd cofactors scaled by the diadem multiplier.  The quotient by w has
    stable range 1 (checkable with is_diadem_via_quotient).
    """
    _require_bezout_domain(ring)
    if not is_comaximal(ring, (a, b, c)):
        raise ValueError("triple is not comaximal")
    cert = bezout_gcd(ring, a, c)
    witness = find_diadem(ring, b, cert.g)
    t = witness.multiplier
    return cert.u * t, cert.v * t, witness.diadem


def _comaximal_completion(ring: Ring, w, c1, d1):
    """First m (in canonical order) with gcd(w, c1 + d1*m) a unit.

    Exists because the finite quotient by w has stable range 1 and the
    images of (c1, d1) stay comaximal there.
    """
    for m in ring._enumerate_payloads():
        cand = ring._add(c1, ring._mul(d1, m))
        if ring._ideal_has_one((w, cand)):
            return m
    raise AssertionError("comaximal completion search cannot fail")


def reduce_2x2_comaximal(ring: Ring, source: Matrix) -> ReductionCertificate:
    """Diagonal reduction of [[a, 0], [b, c]] with (a, b, c) comaximal.

    Returns a certificate with D = diag(1, e) and e associated to a*c.
    """
    _require_bezout_domain(ring)
    if source.ring != ring:
        raise ValueError("matrix ring mismatch")
    if source.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {source.shape}")
    zero, one = ring._zero(), ring._one()
    (a, upper), (b, c) = source.payload_grid()
    if upper != zero:
        raise ValueError("matrix must have shape [[a, 0], [b, c]]")
    if not ring._ideal_has_one((a, b, c)):
        raise ValueError("entries are not comaximal")
    tab = _start(ring, source)
    if ring._is_unit(a):
        # Degenerate input: one row step scales the corner to 1 and shears
        # b away.
        inv = ring._unit_inverse(a)
        _row_steps(tab, (tab.col_block, 0, 1, ((inv, ring._neg(ring._mul(b, inv))), (zero, one))))
    elif a == zero:
        # Row (b, c) is itself comaximal: one Hermite step leaves the unit
        # corner directly.
        t, g = _hermite_blocks(ring, b, c)
        tab.col_block(0, 1, t)
        _row_steps(tab, (tab.col_block, 0, 1, ((zero, one), (one, zero))))
    else:
        x, y, w = diadem_step(
            ring, RingElement(ring, a), RingElement(ring, b), RingElement(ring, c)
        )
        _row_steps(tab, (tab.col_block, 0, 1, ((one, x.payload), (zero, one))))
        tab.col_block(0, 1, ((one, zero), (y.payload, one)))
        # bottom row (w, c) -> (0, alpha): column-swapped Hermite block with
        # the first column negated to keep the determinant at 1
        t, alpha = _hermite_blocks(ring, w.payload, c)
        ((t00, t01), (t10, t11)) = t
        tab.col_block(0, 1, ((ring._neg(t01), t00), (ring._neg(t11), t10)))
        a_top, c_top = tab.entry(0, 0), tab.entry(0, 1)
        # divisor-of-a-diadem completion: alpha divides w, so a multiplier m
        # with gcd(w, c1 + d1*m) unit also makes (c_top + a_top*m, alpha) comaximal
        k_cert = bezout_gcd(
            ring, RingElement(ring, c_top), RingElement(ring, a_top)
        )
        m = _comaximal_completion(
            ring, w.payload, k_cert.a1.payload, k_cert.b1.payload
        )
        tab.col_block(0, 1, ((m, one), (one, zero)))
        t, g = _hermite_blocks(ring, tab.entry(0, 0), tab.entry(1, 0))
        _row_steps(tab, (tab.col_block, 0, 1, t))
    # the corner is now 1, the canonical gcd of a comaximal pair; clear the rest
    beta = tab.entry(0, 1)
    if beta != zero:
        tab.col_block(0, 1, ((one, ring._neg(beta)), (zero, one)))
    norm = ring._normalizer(tab.entry(1, 1))
    if norm is not None:
        _row_steps(tab, (tab.add_col, 1, 1, ring._sub(norm, one)))
    return _certificate(ring, tab, 2, 2)


# ---------------------------------------------------------------------------
# Full Smith normal form
# ---------------------------------------------------------------------------


def _column_hermite(ring: Ring, tab: Tableau, m: int, n: int) -> int:
    """Kannan-Bachem pass: a size-reduced column Hermite form, minor by minor.

    Each new column is cleared above the diagonal against the pivots found
    so far (a shear when the pivot divides, else a Hermite block), then the
    leading minor is size-reduced, so no entry outgrows the minors of the
    input (Kannan & Bachem, SIAM J. Comput. 8(4), 1979).  A column left
    with no nonzero entry at or below the diagonal is zero; it is swapped
    to the end and the next column tried, and a later nonzero row is
    swapped up when the diagonal entry alone vanished.  Either swap is the
    block [[0, 1], [1, 0]] (built once per pass), the row swap on the
    transpose, and a zero column already at the end stays put.  Returns
    the rank r: afterwards rows 0..r-1 of columns 0..r-1 are lower
    triangular with a nonzero diagonal, and columns r.. are zero.

    Size reduction takes each entry left of the diagonal modulo its row's
    diagonal entry by a column shear: one reduce_row per row.  Column r is
    zero above row r, so the shear only touches rows r and below of the
    reduced column; going top-down leaves every finished row reduced.
    """
    entry = tab.entry
    zero, one = ring._zero(), ring._one()
    swap = ((zero, one), (one, zero))
    # pivots[j] is entry (j, j): only a Hermite block on column j changes
    # it, as rows above a pivot are zero in every later column
    pivots = []
    rank, end = 0, n
    while rank < end:
        i = rank
        start = i
        for j in range(i):
            x = entry(j, i)
            if x == zero:
                continue
            q = ring._divides(pivots[j], x)
            if q is not None:
                tab.add_col(i, j, ring._neg(q))
            else:
                t, _ = _hermite_blocks(ring, pivots[j], x)
                tab.col_block(j, i, t)
                pivots[j] = entry(j, j)
                start = min(start, j)
        row = next((r for r in range(i, m) if entry(r, i) != zero), None)
        if row is None:
            end -= 1
            if i != end:
                tab.col_block(i, end, swap)
            continue
        if row != i:
            _row_steps(tab, (tab.col_block, i, row, swap))
        pivots.append(entry(i, i))
        rank += 1
        for r in range(start, rank):
            tab.reduce_row(r)
    return rank


def _merge_diagonal_pair(ring: Ring, tab: Tableau, i: int, j: int) -> None:
    """Replace diag entries (d_i, d_j) by (gcd, lcm-associate) via the core."""
    di, dj = tab.entry(i, i), tab.entry(j, j)
    if ring._divides(di, dj) is not None:
        return
    cert = bezout_gcd(ring, RingElement(ring, di), RingElement(ring, dj))
    zero, add = ring._zero(), ring._add
    # adding row i to row j makes the (i, j) block g * [[di1, 0], [di1, dj1]]
    # with (di1, dj1) coprime and the core's P follows: one row step by
    # P * [[1, 0], [1, 1]], given transposed
    sub = from_payload_grid(
        ring,
        [[cert.a1.payload, zero], [cert.a1.payload, cert.b1.payload]],
    )
    sub_cert = reduce_2x2_comaximal(ring, sub)
    (p00, p01), (p10, p11) = sub_cert.P.payload_grid()
    _row_steps(tab, (tab.col_block, i, j, ((add(p00, p01), add(p10, p11)), (p01, p11))))
    tab.col_block(i, j, sub_cert.Q.payload_grid())


def smith_normal_form(ring: Ring, source: Matrix) -> ReductionCertificate:
    """Full diagonal reduction with the divisibility chain d_1 | d_2 | ...

    Elimination (Kannan & Bachem, SIAM J. Comput. 8(4), 1979): run the
    column Hermite pass, and while an entry below the diagonal survives,
    run it again on the transpose.  Every pass keeps entries bounded by
    the minors of the input, and the number of passes is polynomial.
    After the first pass, let d_k be the product of the first k diagonal
    entries; it is the gcd of the k x k minors of the (row-permuted)
    input's first k rows, so it divides a nonzero minor.  The next pass
    works on the transpose, whose leading k x k block still has
    determinant d_k; column operations within the first k columns keep it
    up to a unit, so when the pass has finished column k its first k
    pivots multiply to d_k.  Shears leave pivots alone, and a Hermite
    block (a pivot not dividing the entry it clears) replaces a pivot by
    a proper divisor, so d_k drops to a proper divisor for every k past
    that pivot.  A pass that needs only shears clears the transposed
    triangle down to its diagonal.  So every pass but the first and the
    last lowers sum_k Omega(d_k) (prime factors with multiplicity), and
    there are at most 2 + sum_k Omega(d_k) passes: fewer than the bit
    size (or degree) of those minors.

    Chain repair: when two neighbouring diagonal entries break
    divisibility, every diagonal pair breaking it is rewritten as a
    comaximal 2x2 problem (factor out the gcd, add one row) and delegated
    to reduce_2x2_comaximal.  Zero diagonal entries end up as a
    suffix; entries are normalized nonnegative (Z) or monic (GF(p)[x]).
    """
    _require_bezout_domain(ring)
    if source.ring != ring:
        raise ValueError("matrix ring mismatch")
    tab = _start(ring, source)
    m, n = source.rows, source.cols
    rank = _column_hermite(ring, tab, m, n)
    flipped = False
    # columns rank.. are zero after a pass, so only the first rank can hold
    # entries below the diagonal
    zero = ring._zero()
    while any(tab.entry(i, j) != zero for j in range(rank) for i in range(j + 1, m)):
        tab.transpose()
        m, n = n, m
        flipped = not flipped
        _column_hermite(ring, tab, m, n)
    if flipped:
        tab.transpose()
        m, n = n, m
    # divisibility is transitive: when each entry divides the next, every
    # pair divides and no merge would change the tableau
    diag = [tab.entry(i, i) for i in range(rank)]
    if any(ring._divides(x, y) is None for x, y in zip(diag, diag[1:])):
        for i in range(rank):
            for j in range(i + 1, rank):
                _merge_diagonal_pair(ring, tab, i, j)
    one = ring._one()
    norms = [(i, ring._normalizer(tab.entry(i, i))) for i in range(rank)]
    scales = [(tab.add_col, i, i, ring._sub(u, one)) for i, u in norms if u is not None]
    if scales:
        _row_steps(tab, *scales)
    return _certificate(ring, tab, m, n)


# ---------------------------------------------------------------------------
# Constructive stable-range-2 witnesses
# ---------------------------------------------------------------------------


def stable_range_2_witness(
    ring: Ring, a: RingElement, b: RingElement, c: RingElement
) -> SR2Witness:
    """Shorten a comaximal triple: p, q with gcd(a + c*p, b + c*q) a unit.

    Construction: write bR + cR = dR, take from diadem_step a diadem
    nu = a + d*t of the pair (a, d) (so nu = a + b*x + c*y with x, y the
    scaled cofactors), complete to gcd(nu, b + c*m) = 1, split
    1 = nu*s + (b + c*m)*w, and resolve u*s + h*(x*s + w) = y*s + m*w; then
    (p, q) = (u, h).  The witness equation is checked before returning.
    """
    _require_bezout_domain(ring)
    if not is_comaximal(ring, (a, b, c)):
        raise ValueError("triple is not comaximal")
    zero = ring.zero
    if b == c == zero:
        witness = SR2Witness(a, b, c, zero, zero)
    else:
        x, y, nu = diadem_step(ring, b, a, c)
        m = RingElement(
            ring, _comaximal_completion(ring, nu.payload, b.payload, c.payload)
        )
        s_cert = bezout_gcd(ring, nu, b + c * m)
        s, w = s_cert.u, s_cert.v
        rhs = y * s + m * w
        modulus = x * s + w
        if modulus == zero:
            # gcd(s, x*s + w) = gcd(s, w) = 1 forces s to be a unit here
            u = rhs * RingElement(ring, ring._unit_inverse(s.payload))
            h = zero
        else:
            inv_cert = bezout_gcd(ring, s, modulus)
            u = _reduce_mod(ring, rhs * inv_cert.u, modulus)
            h = ring.divides(modulus, rhs - u * s)
            if h is None:
                raise AssertionError("stable-range-2 witness: residue does not divide")
        witness = SR2Witness(a, b, c, u, h)
    shortened = (a + c * witness.p, b + c * witness.q)
    if not is_comaximal(ring, shortened):
        raise AssertionError("constructed witness failed its comaximality check")
    return witness


def _reduce_mod(ring: Ring, value: RingElement, modulus: RingElement) -> RingElement:
    """Canonical residue of value modulo a nonzero modulus (keeps entries small):
    its representative in ring/(modulus), so nonnegative over Z."""
    return RingElement(ring, quotient_ring(ring, modulus)._reduce(value.payload))

