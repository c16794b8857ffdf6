"""Independent checking of diagonal-reduction certificates.

Deliberately shares no matrix algebra with the producer: the product is
recomputed by the ring's own matrix-product kernel (Ring._matmul: native
int sums on Z, dot products of Kronecker-packed entries on GF(p)[x], the
schoolbook loop elsewhere), and determinants come from fraction-free
Bareiss elimination over the integral domains Z and GF(p)[x] and from
Berkowitz's division-free algorithm over the finite carriers, whose zero
divisors rule out Bareiss's exact division.  Both are polynomial in the
matrix size and exact over their rings.
"""

from __future__ import annotations

from .matrices import Matrix, ReductionCertificate
from .rings import (
    EuclideanRing,
    IntegerRing,
    PolynomialRing,
    Ring,
)


class CertificateShapeError(ValueError):
    """Certificate block shapes do not fit the matrix being verified."""


def _dot(ring: Ring, xs, ys):
    acc = ring._zero()
    for x, y in zip(xs, ys):
        acc = ring._add(acc, ring._mul(x, y))
    return acc


def _bareiss_determinant(ring: Ring, grid: list[list]):
    """Fraction-free Gaussian elimination (Bareiss 1968) over Z or GF(p)[x].

    Every division by the previous pivot is exact in an integral domain, so
    intermediate entries stay minors of the input: O(n^3) ring operations.
    """
    a = [list(row) for row in grid]
    n = len(a)
    zero, one = ring._zero(), ring._one()
    sub, mul, divides = ring._sub, ring._mul, ring._divides
    sign, prev = one, one
    for k in range(n - 1):
        if a[k][k] == zero:
            swap = next((i for i in range(k + 1, n) if a[i][k] != zero), None)
            if swap is None:
                return zero
            a[k], a[swap] = a[swap], a[k]
            sign = ring._neg(sign)
        pivot, row_k = a[k][k], a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = divides(prev, sub(mul(pivot, row_i[j]), mul(lead, row_k[j])))
        prev = pivot
    return ring._mul(sign, a[n - 1][n - 1]) if n else one


def _berkowitz_determinant(ring: Ring, grid: list[list]):
    """Division-free determinant (Berkowitz 1984), exact in any commutative ring.

    Builds the characteristic polynomial of the trailing principal
    submatrices from the bottom-right corner outwards: splitting the block
    at row r as [[a, R], [C, A]], the new coefficients are the old ones
    times the lower-triangular Toeplitz matrix of 1, -a, -R*C, -R*A*C, ...
    O(n^4) ring operations and no division, so zero divisors do no harm.
    """
    n = len(grid)
    one = ring._one()
    coeffs = [one]  # det(t*I - M), leading coefficient first, M empty
    for r in range(n - 1, -1, -1):
        row = grid[r][r + 1 :]
        vec = [grid[i][r] for i in range(r + 1, n)]
        toeplitz = [one, ring._neg(grid[r][r])]
        for k in range(n - r - 1):
            if k:
                vec = [_dot(ring, grid[i][r + 1 :], vec) for i in range(r + 1, n)]
            toeplitz.append(ring._neg(_dot(ring, row, vec)))
        coeffs = [_dot(ring, toeplitz[i::-1], coeffs) for i in range(len(toeplitz))]
    return ring._neg(coeffs[n]) if n % 2 else coeffs[n]


def _determinant(ring: Ring, grid: list[list]):
    """Polynomial-time exact determinant: Bareiss on the integral domains Z and
    GF(p)[x], Berkowitz on the finite carriers, which have zero divisors."""
    if isinstance(ring, EuclideanRing):
        return _bareiss_determinant(ring, grid)
    return _berkowitz_determinant(ring, grid)


def _normalized(ring: Ring, d) -> bool:
    if isinstance(ring, IntegerRing):
        return d >= 0
    if isinstance(ring, PolynomialRing):
        return not d or d[-1] == 1
    return True


def check_certificate(ring: Ring, source: Matrix, cert: ReductionCertificate) -> str | None:
    """None when the certificate is valid, else the first failed clause:
    "product", "unit-determinant", "chain", or "normalization"."""
    p, d, q = cert.P, cert.D, cert.Q
    if source.ring != ring or any(m.ring != ring for m in (p, d, q)):
        raise CertificateShapeError("certificate ring does not match")
    if (
        p.shape != (source.rows, source.rows)
        or d.shape != source.shape
        or q.shape != (source.cols, source.cols)
    ):
        raise CertificateShapeError(
            f"blocks {p.shape}/{d.shape}/{q.shape} do not fit a {source.shape} matrix"
        )
    product = ring._matmul(ring._matmul(p.payload_grid(), source.payload_grid()), q.payload_grid())
    if product != d.payload_grid():
        return "product"
    for block in (p, q):
        if not ring._is_unit(_determinant(ring, block.payload_grid())):
            return "unit-determinant"
    zero = ring._zero()
    grid = d.payload_grid()
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j and grid[i][j] != zero:
                return "chain"
    diag = [grid[i][i] for i in range(min(d.rows, d.cols))]
    for prev, nxt in zip(diag, diag[1:]):
        if ring._divides(prev, nxt) is None:
            return "chain"
    if not all(_normalized(ring, v) for v in diag):
        return "normalization"
    return None


def verify_certificate(ring: Ring, source: Matrix, cert: ReductionCertificate) -> bool:
    """Entry-exact validity of P*A*Q = D with unit determinants, a diagonal
    D obeying the divisibility chain, and canonical normalization."""
    return check_certificate(ring, source, cert) is None
