"""Independent test oracles.

These deliberately re-derive results with different algorithms than the
package under test: determinantal divisors and determinants from raw minor
expansion and from Berkowitz's division-free algorithm, the verifier's
unit-determinant clause from det P and det Q by Berkowitz, polynomial
arithmetic, matrix products, the ring kernels (_matmul, _bareiss_rows) and
the reducer's tableau (LoopTableau) from per-entry loops, Hermite completions from
brute force over invertible 2x2 matrices, units, quotients, ideals,
Jacobson radicals, diadems and gcd certificates of finite rings from
exhaustive search, primality from trial division.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

from edrkit.rings import (
    Ring,
    RingElement,
    RowTableau,
    UnsupportedRingError,
    quotient_ring,
)


# -- integer determinantal divisors -----------------------------------------


def _minor_det(grid, rs, cs, memo):
    if len(rs) == 1:
        return grid[rs[0]][cs[0]]
    key = (rs, cs)
    got = memo.get(key)
    if got is not None:
        return got
    acc = 0
    for idx, c in enumerate(cs):
        v = grid[rs[0]][c]
        if v:
            sub = _minor_det(grid, rs[1:], cs[:idx] + cs[idx + 1 :], memo)
            acc += v * sub if idx % 2 == 0 else -v * sub
    memo[key] = acc
    return acc


def int_determinantal_divisors(grid):
    """d_k = gcd of all k x k minors, k = 1..min(m, n); zeros once the rank ends."""
    m = len(grid)
    n = len(grid[0]) if m else 0
    memo = {}
    out = []
    exhausted = False
    for k in range(1, min(m, n) + 1):
        if exhausted:
            out.append(0)
            continue
        g = 0
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                g = math.gcd(g, _minor_det(grid, rs, cs, memo))
                if g == 1:
                    break
            if g == 1:
                break
        out.append(g)
        exhausted = g == 0
    return out


# -- schoolbook polynomial arithmetic over GF(p) ------------------------------


def p_trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def p_add(f, g, p):
    n = max(len(f), len(g))
    return p_trim(
        ((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)) % p
        for i in range(n)
    )


def p_mul(f, g, p):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i in range(len(f)):
        for j in range(len(g)):
            out[i + j] = (out[i + j] + f[i] * g[j]) % p
    return p_trim(out)


def p_neg(f, p):
    return tuple(-c % p for c in f)


def p_divmod(f, g, p):
    assert g, "division by zero polynomial"
    rem = list(f)
    if len(f) < len(g):
        return (), p_trim(f)
    inv = pow(g[-1], -1, p)
    quot = [0] * (len(f) - len(g) + 1)
    for k in range(len(quot) - 1, -1, -1):
        coef = (rem[k + len(g) - 1] * inv) % p
        quot[k] = coef
        for j in range(len(g)):
            rem[k + j] = (rem[k + j] - coef * g[j]) % p
    return p_trim(quot), p_trim(rem)


def p_monic(f, p):
    if not f:
        return ()
    inv = pow(f[-1], -1, p)
    return tuple(c * inv % p for c in f)


def p_gcd(f, g, p):
    a, b = p_trim(f), p_trim(g)
    while b:
        a, b = b, p_divmod(a, b, p)[1]
    return p_monic(a, p)


def poly_determinantal_divisors(grid, p):
    """Monic d_k over GF(p)[x]; () marks a vanished rank."""
    m = len(grid)
    n = len(grid[0]) if m else 0
    one = (1,)

    def minor(rs, cs, memo):
        if len(rs) == 1:
            return grid[rs[0]][cs[0]]
        key = (rs, cs)
        got = memo.get(key)
        if got is not None:
            return got
        acc = ()
        for idx, c in enumerate(cs):
            v = grid[rs[0]][c]
            if v:
                sub = minor(rs[1:], cs[:idx] + cs[idx + 1 :], memo)
                term = p_mul(v, sub, p)
                if idx % 2:
                    term = p_neg(term, p)
                acc = p_add(acc, term, p)
        memo[key] = acc
        return acc

    memo = {}
    out = []
    exhausted = False
    for k in range(1, min(m, n) + 1):
        if exhausted:
            out.append(())
            continue
        g = ()
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                g = p_gcd(g, minor(rs, cs, memo), p)
                if g == one:
                    break
            if g == one:
                break
        out.append(g)
        exhausted = g == ()
    return out


# -- determinants over any ring ------------------------------------------------


def laplace_determinant(ring, grid):
    """Laplace expansion along rows, memoized on the surviving column set.

    Exact over every carrier (zero divisors included) but exponential in n,
    so it only serves as a small-n reference.
    """
    n = len(grid)
    if n == 0:
        return ring._one()
    zero = ring._zero()
    memo = {}

    def expand(cols):
        if len(cols) == 1:
            return grid[n - 1][cols[0]]
        got = memo.get(cols)
        if got is not None:
            return got
        row = n - len(cols)
        acc = zero
        for idx, c in enumerate(cols):
            v = grid[row][c]
            if v == zero:
                continue
            term = ring._mul(v, expand(cols[:idx] + cols[idx + 1 :]))
            if idx % 2:
                term = ring._neg(term)
            acc = ring._add(acc, term)
        memo[cols] = acc
        return acc

    return expand(tuple(range(n)))


def _dot(ring, xs, ys):
    acc = ring._zero()
    for x, y in zip(xs, ys):
        acc = ring._add(acc, ring._mul(x, y))
    return acc


def berkowitz_determinant(ring, grid):
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


# -- matrix products -------------------------------------------------------------


def matmul(left, right, add, mul, zero):
    """Schoolbook product of payload grids, one add(acc, mul(x, y)) per term.

    Like the kernel, it reads the width off right's first row, so a k = 0
    product has no columns.
    """
    k = len(right)
    n = len(right[0]) if k else 0
    out = []
    for row in left:
        out_row = []
        for j in range(n):
            acc = zero
            for t in range(k):
                acc = add(acc, mul(row[t], right[t][j]))
            out_row.append(acc)
        out.append(out_row)
    return out


# -- per-entry ring kernels ------------------------------------------------------
#
# Each takes the ring first, so it can stand in for the kernel method of the
# same name; every step goes through the ring's _add, _sub, _mul and
# _divides.


def loop_matmul(ring, left, right):
    """The payload grid left * right by the schoolbook loop."""
    return matmul(left, right, ring._add, ring._mul, ring._zero())


def loop_add_col(ring, rows, i, j, f):
    """Column i of the payload rows += f * column j, skipping zero entries of
    column j."""
    zero = ring._zero()
    for row in rows:
        v = row[j]
        if v != zero:
            row[i] = ring._add(row[i], ring._mul(f, v))


def loop_col_block(ring, rows, i, j, t):
    """Columns i, j of the payload rows become the old pair times t."""
    (t00, t01), (t10, t11) = t
    for row in rows:
        x, y = row[i], row[j]
        row[i] = ring._add(ring._mul(x, t00), ring._mul(y, t10))
        row[j] = ring._add(ring._mul(x, t01), ring._mul(y, t11))


def loop_reduce_row(ring, rows, r):
    """Size-reduce row r: every column c < r -= (rows[r][c] div rows[r][r])
    * column r, dividing entry by entry; every quotient is that of the row
    as given."""
    zero = ring._zero()
    row = rows[r]
    d = row[r]
    for c in range(r):
        x = row[c]
        if x == zero:
            continue
        f = ring._divmod(x, d)[0]
        if f != zero:
            loop_add_col(ring, rows, c, r, ring._neg(f))


class LoopTableau(RowTableau):
    """The reducer's tableau as a list of payload rows, changed entry by
    entry through the ring's own arithmetic."""

    def __init__(self, ring, grid):
        super().__init__(grid)
        self.ring = ring

    def is_zero(self, i, j):
        return self.rows[i][j] == self.ring._zero()

    def add_col(self, i, j, f):
        loop_add_col(self.ring, self.rows, i, j, f)

    def col_block(self, i, j, t):
        loop_col_block(self.ring, self.rows, i, j, t)

    def reduce_row(self, r):
        loop_reduce_row(self.ring, self.rows, r)


def loop_ext_gcd(ring, x, y):
    """(g, u, v) with x*u + y*v = g and g canonical (zero when x = y = 0),
    by the extended Euclidean loop through the ring's _divmod."""
    zero = ring._zero()
    old_r, r = x, y
    old_s, s = ring._one(), zero
    old_t, t = zero, ring._one()
    while r != zero:
        q, rem = ring._divmod(old_r, r)
        old_r, r = r, rem
        old_s, s = s, ring._sub(old_s, ring._mul(q, s))
        old_t, t = t, ring._sub(old_t, ring._mul(q, t))
    norm = ring._normalizer(old_r)
    if norm is None:
        return old_r, old_s, old_t
    return ring._mul(norm, old_r), ring._mul(norm, old_s), ring._mul(norm, old_t)


def loop_bareiss_rows(ring, rows, k, prev):
    """One Bareiss step: entry j > k of each row i > k becomes
    (pivot * rows[i][j] - rows[i][k] * rows[k][j]) / prev."""
    row_k = rows[k]
    pivot = row_k[k]
    for row_i in rows[k + 1 :]:
        lead = row_i[k]
        for j in range(k + 1, len(row_k)):
            numerator = ring._sub(ring._mul(pivot, row_i[j]), ring._mul(lead, row_k[j]))
            row_i[j] = ring._divides(prev, numerator)


def two_determinant_verdict(ring, a, p, d, q):
    """check_certificate's verdict on payload grids, clause by clause, with
    the unit-determinant clause as det P and det Q by Berkowitz and the
    product by the schoolbook loop: the first failed clause, or None."""
    if loop_matmul(ring, loop_matmul(ring, p, a), q) != d:
        return "product"
    if not all(ring._is_unit(berkowitz_determinant(ring, grid)) for grid in (p, q)):
        return "unit-determinant"
    zero = ring._zero()
    if any(x != zero for i, row in enumerate(d) for j, x in enumerate(row) if i != j):
        return "chain"
    diag = [d[i][i] for i in range(min(len(p), len(q)))]
    if any(ring._divides(x, y) is None for x, y in zip(diag, diag[1:])):
        return "chain"
    if not all(map(ring._is_normalized, diag)):
        return "normalization"
    return None


# -- finite rings answered by exhaustive search --------------------------------


class ExhaustiveRing(Ring):
    """A finite ring whose units, divisibility and gcd certificates come
    from exhaustive search, whose enumeration sorts _all_payloads, and whose
    determinant is Berkowitz's."""

    finite = True

    def _enumerate_payloads(self):
        return sorted(self._all_payloads(), key=self._sort_key)

    _matmul = loop_matmul

    def _det(self, grid):
        return berkowitz_determinant(self, grid)

    def _is_unit(self, x):
        return brute_divides(self, x, self._one()) is not None

    def _divides(self, x, y):
        return brute_divides(self, x, y)

    def _bezout(self, x, y):
        got = brute_bezout(self, x, y)
        if got is None:
            raise UnsupportedRingError(f"aR + bR is not principal in {self.spec()}")
        return got

    def _quotient(self, x):
        return CosetQuotientRing(self, RingElement(self, x))


class LocalNonPrincipalRing(ExhaustiveRing):
    """GF(2)[x,y]/(x,y)^2: payload (c0, c1, c2) is c0 + c1*x + c2*y.

    Eight elements, local with maximal ideal (x, y), which is not principal,
    so the Hermite property fails here while every carrier in the package
    satisfies it.
    """

    cardinality = 8

    def spec(self):
        return "GF(2)[x,y]/(x,y)^2"

    def _canonical(self, value):
        return tuple(c % 2 for c in value)

    def _zero(self):
        return (0, 0, 0)

    def _one(self):
        return (1, 0, 0)

    def _add(self, x, y):
        return tuple((a + b) % 2 for a, b in zip(x, y))

    def _neg(self, x):
        return x

    def _mul(self, x, y):
        return (x[0] * y[0], (x[0] * y[1] + x[1] * y[0]) % 2, (x[0] * y[2] + x[2] * y[0]) % 2)

    def _sort_key(self, x):
        return x

    def _format(self, x):
        return "(%d,%d,%d)" % x

    def _parse(self, text):
        return self._canonical(int(c) for c in text.strip("()").split(","))

    def _all_payloads(self):
        return product((0, 1), repeat=3)

    def _ideal_has_one(self, xs):
        return any(x[0] for x in xs)  # local: comaximal iff some generator is a unit


@dataclass(frozen=True)
class CosetQuotientRing(ExhaustiveRing):
    """base/(modulus) of a finite base ring, realized by enumerating the cosets.

    Payloads are the canonically least representatives of the cosets.  The
    reference for the structural quotients quotient_ring builds.
    """

    base: Ring
    modulus: RingElement

    def __post_init__(self):
        if not self.base.finite:
            raise UnsupportedRingError("coset-enumeration quotients need a finite base ring")
        self.base._check(self.modulus)

    @cached_property
    def _rep_map(self):
        ideal = {self.base._mul(self.modulus.payload, r) for r in self.base._payloads}
        reps = {}
        for x in self.base._payloads:  # canonical order: first hit is least
            if x not in reps:
                for i in ideal:
                    reps[self.base._add(x, i)] = x
        return reps

    @property
    def cardinality(self):
        return len(self._all_payloads())

    def spec(self):
        return f"{self.base.spec()}/({self.base._format(self.modulus.payload)})"

    def _canonical(self, value):
        if isinstance(value, RingElement):
            self._check(value)
            return value.payload
        return self._rep_map[self.base._canonical(value)]

    def _zero(self):
        return self._rep_map[self.base._zero()]

    def _one(self):
        return self._rep_map[self.base._one()]

    def _add(self, x, y):
        return self._rep_map[self.base._add(x, y)]

    def _neg(self, x):
        return self._rep_map[self.base._neg(x)]

    def _mul(self, x, y):
        return self._rep_map[self.base._mul(x, y)]

    def _sort_key(self, x):
        return self.base._sort_key(x)

    def _format(self, x):
        return self.base._format(x)

    def _parse(self, text):
        return self._rep_map[self.base._parse(text)]

    def _all_payloads(self):
        return set(self._rep_map.values())

    def _ideal_has_one(self, xs):
        return self.base._ideal_has_one(xs + (self.modulus.payload,))


# -- misc ---------------------------------------------------------------------


def squarefree_kernel(n):
    """Product of the distinct primes dividing n."""
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            out *= d
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out *= n
    return out


def brute_coprime_splitting(c, a, b):
    """Least positive r (and s = c / r) with gcd(r, s) = gcd(r, a) = gcd(s, b) = 1.

    Trial division over every divisor of c: O(|c|), a small-c reference.
    """
    for r in range(1, abs(c) + 1):
        if c % r:
            continue
        s = c // r
        if math.gcd(r, s) == 1 and math.gcd(r, a) == 1 and math.gcd(s, b) == 1:
            return r, s
    return None


def brute_hermite_pair(ring, a, b):
    """Search all invertible 2x2 matrices Q for (a b)Q = (g, 0)."""
    elems = [e.payload for e in ring.elements()]
    units = {e.payload for e in ring.elements() if ring.is_unit(e)}
    ap, bp = a.payload, b.payload
    for q00, q01, q10, q11 in product(elems, repeat=4):
        det = ring._sub(ring._mul(q00, q11), ring._mul(q01, q10))
        if det not in units:
            continue
        if ring._add(ring._mul(ap, q01), ring._mul(bp, q11)) == ring._zero():
            return True
    return False


# -- exhaustive units, divisibility and gcds on finite rings --------------------


def brute_unit_set(ring):
    """Units found by exhaustive inverse search."""
    one = ring._one()
    elems = ring._payloads
    return frozenset(x for x in elems if any(ring._mul(x, y) == one for y in elems))


def brute_ideal_span(ring, payloads):
    """The ideal generated by the payloads, by breadth-first closure: each
    generator g takes the span S to {s + g*r : s in S, r in R}."""
    span = {ring._zero()}
    for g in payloads:
        span = {ring._add(s, ring._mul(g, r)) for s in span for r in ring._payloads}
    return frozenset(span)


def definition_jacobson_radical(ring):
    """J(R) from its definition: every x with 1 - x*r a unit for all r,
    with units found by exhaustive inverse search."""
    one = ring._one()
    units = brute_unit_set(ring)
    elems = ring._payloads
    return frozenset(
        x for x in elems if all(ring._sub(one, ring._mul(x, r)) in units for r in elems)
    )


def definition_is_diadem(ring, w):
    """Whether w is a diadem of a finite ring, from the definition: for all
    (c, d) with (w, c, d) comaximal there is m with (w, c + d*m) comaximal."""
    elems = ring._payloads
    for c in elems:
        for d in elems:
            if not ring._ideal_has_one((w, c, d)):
                continue
            if not any(
                ring._ideal_has_one((w, ring._add(c, ring._mul(d, m)))) for m in elems
            ):
                return False
    return True


def first_generator_radical_quotient(ring):
    """R/J(R) as quotient_ring by the first payload in canonical order whose
    principal ideal is the Jacobson radical, found by enumeration."""
    members = definition_jacobson_radical(ring)
    for g in ring._payloads:
        if frozenset(ring._mul(g, r) for r in ring._payloads) == members:
            return quotient_ring(ring, RingElement(ring, g))
    raise UnsupportedRingError(f"Jacobson radical of {ring.spec()} is not principal")


def brute_divides(ring, x, y):
    """The canonically least q with x*q = y, or None, by scanning every payload."""
    return next((q for q in ring._payloads if ring._mul(x, q) == y), None)


def brute_bezout(ring, x, y):
    """(g, u, v, a1, b1) by enumeration: g is the first generator of xR + yR
    in canonical order, (u, v) the first pair reaching it, a1 and b1 the
    least quotients; None when xR + yR is not principal."""
    elems = ring._payloads
    reach = {}
    for u in elems:
        for v in elems:
            reach.setdefault(ring._add(ring._mul(x, u), ring._mul(y, v)), (u, v))
    span = frozenset(reach)
    for g in elems:
        if frozenset(ring._mul(g, r) for r in elems) == span:
            u, v = reach[g]
            return g, u, v, brute_divides(ring, g, x), brute_divides(ring, g, y)
    return None


def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True
