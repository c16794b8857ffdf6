"""Independent checking of diagonal-reduction certificates.

Deliberately shares no matrix algebra with the producer: the product and
the determinants come from the ring's own kernels, which the reducer never
calls.  Ring._matmul sums native ints on Z and dot products of
Kronecker-packed entries on GF(p)[x].  EuclideanRing._rank_profile is
fraction-free Bareiss elimination with row and column pivoting on the
integral domains Z and GF(p)[x] (each row update one native-int
comprehension on Z and one Kronecker-packed expression with a power-series
division on GF(p)[x]), and Ring._det is its square case.  On Z/n and
GF(p)[x]/(f) the determinant is the base ring's result reduced mod m, and
on products the pair of the components' results.  All are polynomial in
the matrix size and exact over their rings.  The normalization clause asks
Ring._is_normalized, which the producer does not call either.

The unit-determinant clause on Z and GF(p)[x] eliminates A, whose entries
are small, instead of P and Q, whose entries are not (_unit_determinants).
The finite carriers have zero divisors, so they take det P and det Q.
"""

from __future__ import annotations

from functools import reduce

from .matrices import Matrix, ReductionCertificate
from .rings import CertificateShapeError, EuclideanRing, Ring


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
    p_grid, d_grid, q_grid, a_grid = (m.payload_grid() for m in (p, d, q, source))
    if ring._matmul(ring._matmul(p_grid, a_grid), q_grid) != d_grid:
        return "product"
    zero = ring._zero()
    diagonal = all(x == zero for i, row in enumerate(d_grid) for j, x in enumerate(row) if i != j)
    diag = [d_grid[i][i] for i in range(min(d.rows, d.cols))]
    if not _unit_determinants(ring, a_grid, p_grid, q_grid, diag if diagonal else None):
        return "unit-determinant"
    if not diagonal:
        return "chain"
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


def _unit_determinants(ring: Ring, a: list[list], p: list[list], q: list[list], diag: list | None) -> bool:
    """Whether det P and det Q are units, given P*A*Q = D and D's diagonal
    (None when D is not diagonal).

    On an integral domain, with r = rank A and delta = +-det A[T, S] != 0
    from one elimination of A, and R the rows (and columns) of a diagonal D
    holding a nonzero entry:

        det P * det Q * delta = +-prod(D[R, R]) * det P[~R, ~T] * det Q[~S, ~R]

    where ~ takes the complement.  Proof: border A with the unit columns e_t
    (t not in T) and the unit rows e_s (s not in S); the bordered matrix has
    determinant +-delta, and diag(P, I) times it times diag(Q, I) is
    [[D, P[:, ~T]], [Q[~S, :], 0]], whose rows ~R and columns ~R split off
    the two blocks.  So both determinants are units exactly when the right
    side is a unit times delta.  |R| = rank D <= r, with equality when P and
    Q are invertible.  A D that is not diagonal keeps det P and det Q: the
    verdict there is "unit-determinant" or "chain", and no valid certificate
    reaches it.  So do the finite carriers, whose zero divisors would not
    let delta cancel.  Apart from A, every grid eliminated has at most
    max(m - r, n - r) rows.
    """
    if diag is None or not isinstance(ring, EuclideanRing):
        return all(ring._is_unit(ring._det(grid)) for grid in (p, q))
    zero = ring._zero()
    kept = [i for i, x in enumerate(diag) if x != zero]
    rank, t, s, delta = ring._rank_profile(a, len(q))
    if len(kept) != rank:
        return False
    p_rows, p_cols = _outside(len(p), kept), _outside(len(p), t)
    q_rows, q_cols = _outside(len(q), s), _outside(len(q), kept)
    p_block = [[p[i][j] for j in p_cols] for i in p_rows]
    q_block = [[q[i][j] for j in q_cols] for i in q_rows]
    right = reduce(ring._mul, [diag[i] for i in kept], ring._mul(ring._det(p_block), ring._det(q_block)))
    quotient = ring._divides(delta, right)
    return quotient is not None and ring._is_unit(quotient)


def _outside(size: int, taken: list) -> list:
    taken = set(taken)
    return [i for i in range(size) if i not in taken]
