"""The benchmark's own checking arithmetic; it shares no code with edrkit.

Payloads are the plain values edrkit exposes: ints over Z, and coefficient
tuples (low to high, trimmed) over GF(5)[x].  A certificate is checked
modulo fixed large primes over Z, and modulo the primitive polynomial
x^6 + x + 2 over GF(5)[x], i.e. in the field GF(5^6).
"""

from __future__ import annotations

import hashlib

Z_PRIMES = (2**61 - 1, 2**89 - 1)
FREIVALDS_VECTORS = 2


# ---------------------------------------------------------------------------
# GF(5^6) by log tables; elements are ints whose base-5 digits are the
# coefficients of a polynomial of degree < 6 in the class of x
# ---------------------------------------------------------------------------


def _build_field():
    size = 5**6
    modulus_low = (2, 1, 0, 0, 0, 0)  # x^6 = -(x + 2)
    exp = []
    coeffs = [1, 0, 0, 0, 0, 0]
    for _ in range(size - 1):
        exp.append(sum(c * 5**i for i, c in enumerate(coeffs)))
        top = coeffs[5]
        coeffs = [(([0] + coeffs[:5])[i] - top * modulus_low[i]) % 5 for i in range(6)]
    if len(set(exp)) != size - 1:
        raise RuntimeError("x^6 + x + 2 is not primitive over GF(5)")
    log = [0] * size
    for k, e in enumerate(exp):
        log[e] = k
    add3 = [0] * (125 * 125)
    for a in range(125):
        for b in range(125):
            add3[a * 125 + b] = sum(
                ((a // 5**i + b // 5**i) % 5) * 5**i for i in range(3)
            )
    neg = [sum((-(u // 5**i) % 5) * 5**i for i in range(6)) for u in range(size)]
    return exp + exp, log, add3, neg


_EXP, _LOG, _ADD3, _NEG = _build_field()
_ORDER = 5**6 - 1


def _fadd(u: int, v: int) -> int:
    return _ADD3[(u % 125) * 125 + v % 125] + 125 * _ADD3[(u // 125) * 125 + v // 125]


def _fmul(u: int, v: int) -> int:
    if not u or not v:
        return 0
    return _EXP[_LOG[u] + _LOG[v]]


def _finv(u: int) -> int:
    return _EXP[(_ORDER - _LOG[u]) % _ORDER]


_X6 = _EXP[6]  # the class of x^6


def poly_to_field(coeffs: tuple) -> int:
    """Image of a GF(5)[x] payload in GF(5^6), six coefficients at a time."""
    digits = "".join(str(c) for c in reversed(coeffs))
    digits = "0" * (-len(digits) % 6) + digits
    acc = 0
    for k in range(0, len(digits), 6):
        acc = _fadd(_fmul(acc, _X6), int(digits[k : k + 6], 5))
    return acc


class _ZModP:
    def __init__(self, p: int):
        self.p = self.size = p
        self.zero, self.one = 0, 1

    def lift(self, x: int) -> int:
        return x % self.p

    def add(self, u, v):
        return (u + v) % self.p

    def mul(self, u, v):
        return u * v % self.p

    def neg(self, u):
        return -u % self.p

    def inv(self, u):
        return pow(u, self.p - 2, self.p)


class _GF5Ext:
    zero, one = 0, 1
    size = 5**6

    lift = staticmethod(poly_to_field)
    add = staticmethod(_fadd)
    mul = staticmethod(_fmul)
    inv = staticmethod(_finv)

    @staticmethod
    def neg(u):
        return _NEG[u]


def _fields(carrier: str):
    if carrier == "Z":
        return [_ZModP(p) for p in Z_PRIMES]
    return [_GF5Ext()]


def _matvec(f, grid, vec):
    out = []
    for row in grid:
        acc = f.zero
        for a, x in zip(row, vec):
            if a and x:
                acc = f.add(acc, f.mul(a, x))
        out.append(acc)
    return out


def _det(f, grid):
    a = [list(row) for row in grid]
    n = len(a)
    det = f.one
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return f.zero
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = f.neg(det)
        det = f.mul(det, a[c][c])
        inv = f.inv(a[c][c])
        for r in range(c + 1, n):
            if a[r][c]:
                factor = f.neg(f.mul(a[r][c], inv))
                a[r] = [f.add(x, f.mul(factor, y)) for x, y in zip(a[r], a[c])]
    return det


def _is_unit_image(carrier: str, f, value) -> bool:
    if carrier == "Z":
        return value in (1, f.p - 1)
    return 1 <= value <= 4  # a nonzero constant of GF(5)


def check_product_and_units(carrier: str, a, p, d, q) -> str | None:
    """None when P*A*Q = D and det P, det Q are units modulo every fixed
    prime; otherwise the name of the failed congruence.

    The product is compared on fixed pseudo-random vectors v (Freivalds):
    P(A(Qv)) = Dv, which a wrong product passes with probability at most
    1/|field| per vector."""
    for f in _fields(carrier):
        lift = f.lift
        pf, af, df, qf = ([[lift(x) for x in row] for row in m] for m in (p, a, d, q))
        for k in range(FREIVALDS_VECTORS):
            vec = [_EXP[(7919 * (k + 1) * (j + 1)) % _ORDER] % f.size for j in range(len(qf))]
            if _matvec(f, pf, _matvec(f, af, _matvec(f, qf, vec))) != _matvec(f, df, vec):
                return "product"
        for block in (pf, qf):
            if not _is_unit_image(carrier, f, _det(f, block)):
                return "unit-determinant"
    return None


# ---------------------------------------------------------------------------
# Exact shape, chain and normalization of D
# ---------------------------------------------------------------------------


def _poly_rem(f: tuple, g: tuple) -> tuple:
    rem = list(f)
    inv = pow(g[-1], 3, 5)
    while len(rem) >= len(g):
        coef = rem[-1] * inv % 5
        shift = len(rem) - len(g)
        for i, c in enumerate(g):
            rem[shift + i] = (rem[shift + i] - coef * c) % 5
        while rem and rem[-1] == 0:
            rem.pop()
    return tuple(rem)


def _divides(carrier: str, x, y) -> bool:
    if carrier == "Z":
        return y == 0 if x == 0 else y % x == 0
    return not y if not x else not _poly_rem(y, x)


def check_diagonal(carrier: str, d) -> str | None:
    """None when D is diagonal with d_1 | d_2 | ... and canonical entries
    (nonnegative over Z, monic over GF(5)[x])."""
    zero = 0 if carrier == "Z" else ()
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j and x != zero:
                return "chain"
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for prev, nxt in zip(diag, diag[1:]):
        if not _divides(carrier, prev, nxt):
            return "chain"
    for x in diag:
        if (carrier == "Z" and x < 0) or (carrier == "F" and x and x[-1] != 1):
            return "normalization"
    return None


def digest(grid) -> str:
    """Short stable digest of a payload grid (shape and every entry)."""
    rows = len(grid)
    cols = len(grid[0]) if rows else 0
    text = f"{rows}x{cols}:" + ";".join(
        ",".join(str(x) if isinstance(x, int) else "[" + ",".join(map(str, x)) + "]" for x in row)
        for row in grid
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def parse_z_certificate(text: str) -> tuple[list, list, list]:
    """P, D, Q integer grids from certificate text (comment lines skipped)."""
    lines = [line for line in text.splitlines() if line.strip() and not line.startswith("#")]
    blocks = {}
    pos = 0
    for name in ("P", "D", "Q"):
        if lines[pos].strip() != name:
            raise ValueError(f"expected block {name}, got {lines[pos]!r}")
        rows, cols = (int(t) for t in lines[pos + 1].split())
        grid = [[int(t) for t in lines[pos + 2 + r].split()] for r in range(rows)]
        if any(len(row) != cols for row in grid):
            raise ValueError(f"block {name} has ragged rows")
        blocks[name] = grid
        pos += 2 + rows
    return blocks["P"], blocks["D"], blocks["Q"]
