"""Independent checking of diagonal-reduction certificates.

Deliberately shares no matrix algebra with the producer: the product and
the determinants come from the ring's own kernels, which the reducer never
calls.  Ring._matmul sums native ints on Z and dot products of
Kronecker-packed entries on GF(p)[x].  Ring._det is fraction-free Bareiss
elimination on the integral domains Z and GF(p)[x] (each row update one
native-int comprehension on Z and one Kronecker-packed expression with a
power-series division on GF(p)[x]).  On Z/n and GF(p)[x]/(f) both are the
base ring's result reduced mod m, and on products the pair of the
components' results.  Both are polynomial in the matrix
size and exact over their rings.  The normalization clause asks
Ring._is_normalized, which the producer does not call either.
"""

from __future__ import annotations

from .matrices import Matrix, ReductionCertificate
from .rings import CertificateShapeError, Ring


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
    p_grid, d_grid, q_grid = p.payload_grid(), d.payload_grid(), q.payload_grid()
    if ring._matmul(ring._matmul(p_grid, source.payload_grid()), q_grid) != d_grid:
        return "product"
    for grid in (p_grid, q_grid):
        if not ring._is_unit(ring._det(grid)):
            return "unit-determinant"
    zero = ring._zero()
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j and d_grid[i][j] != zero:
                return "chain"
    diag = [d_grid[i][i] for i in range(min(d.rows, d.cols))]
    for prev, nxt in zip(diag, diag[1:]):
        if ring._divides(prev, nxt) is None:
            return "chain"
    if not all(map(ring._is_normalized, diag)):
        return "normalization"
    return None


def verify_certificate(ring: Ring, source: Matrix, cert: ReductionCertificate) -> bool:
    """Entry-exact validity of P*A*Q = D with unit determinants, a diagonal
    D obeying the divisibility chain, and canonical normalization."""
    return check_certificate(ring, source, cert) is None
