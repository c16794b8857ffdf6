"""GF(p)[x] and its quotients GF(p)[x]/(f): payloads are trimmed
low-to-high coefficient tuples.

This carrier lives apart from edrkit.rings so that a process working over
Z or Z/n never loads its kernels: ring_parse imports this module when it
reads a GF( literal.

GF(p)[x] multiplies by Kronecker substitution once the shorter operand has
_KRONECKER_MIN_LEN coefficients: the coefficients are packed into slots of
one integer per operand, and one integer product is unpacked and reduced
modulo p.  Shorter operands take the schoolbook loop.  A slot is as wide as
its bound needs, for any p, so every kernel below has one path.  A matrix
product (_matmul) sums each dot product over entries packed once into such
slots.  The reducer's column shears (_add_col, _col_block) work the same
way: each column of the tableau is packed into one integer, so a shear is
one bignum expression per column.  The size-reduction row kernel
(_reduce_row) takes a whole row of the tableau modulo its pivot in two
products: one of the reversed dividends with the power-series inverse of
the reversed pivot gives every quotient, and one 2-D packing of the
target columns against the pivot's column applies every shear.  The
Bareiss row kernel (_bareiss_rows) packs each row's numerator likewise and
does the exact division by the previous pivot as a product with its
power-series inverse.  Division by a unit is one scaling pass.
"""

from __future__ import annotations

import itertools
import operator
import struct
from functools import cache
from typing import Iterator

from .rings import (
    EuclideanQuotientRing,
    EuclideanRing,
    RingElement,
    RingParseError,
    _excerpt,
    _parse_int,
    is_prime,
    value_class,
)


def _poly_trim(coeffs) -> tuple:
    """coeffs as a tuple without trailing zeros; a trimmed tuple comes back as is."""
    cs = tuple(coeffs)
    end = len(cs)
    while end and not cs[end - 1]:
        end -= 1
    return cs if end == len(cs) else cs[:end]


# Kronecker substitution (Harvey, "Faster polynomial multiplication via
# multipoint Kronecker substitution", JSC 44, 2009): each operand's
# coefficients fill fixed-width little-endian slots of one integer, and one
# bignum product holds the integer convolution, one coefficient per slot.
# A slot must hold (p - 1)^2 times the shorter operand's length.  Slots are
# a power of two bytes wide: 1-byte slots pack with bytes() and are reduced
# mod p by one bytes.translate, 2-, 4- and 8-byte slots pack with struct,
# and wider ones (p above about 2^32) with int.to_bytes and int.from_bytes.
# A whole column packs the same way, one block of equal length per entry
# (_pack_column): blocks long enough for every product leave each block of
# the result column its own entry.
_SLOT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}

# Shorter operands take the schoolbook loop: 6 is the least length at which
# packing won at every slot width.  Packed over schoolbook time per call
# (Python 3.11, 2-vCPU x86 VM, min of 11 interleaved runs of 3000 calls, two
# runs, equal lengths, p = 5, 31, 251, 65537 for slots of 1, 2, 4, 8 bytes):
# length 2 x1.48-2.61, 3 x1.15-2.20, 4 x0.82-1.70, 5 x0.68-1.22,
# 6 x0.70-0.94, 8 x0.41-0.63.
_KRONECKER_MIN_LEN = 6


def _slot(bound: int) -> tuple[int, str | None]:
    """(width, struct code) of the narrowest slot holding 0..bound; the
    code is None for slots wider than 8 bytes."""
    needed = max(1, (bound.bit_length() + 7) // 8)
    width = 1 << (needed - 1).bit_length()
    return width, _SLOT_CODES.get(width)


def _pack(coeffs: tuple, slot: tuple[int, str | None]) -> int:
    """The integer whose little-endian slots hold coeffs."""
    width, code = slot
    if width == 1:
        data = bytes(coeffs)
    elif code:
        data = struct.pack(f"<{len(coeffs)}{code}", *coeffs)
    else:
        data = b"".join([c.to_bytes(width, "little") for c in coeffs])
    return int.from_bytes(data, "little")


def _pack_column(entries: list, size: int, slot: tuple[int, str | None]) -> int:
    """The integer holding each entry in its own block of size slots, the
    first entry in the lowest block."""
    if slot[0] == 1:
        return int.from_bytes(b"".join([bytes(x).ljust(size, b"\0") for x in entries]), "little")
    return _pack([c for x in entries for c in x + (0,) * (size - len(x))], slot)


@cache
def _mod_table(p: int) -> bytes:
    """bytes.translate table taking each byte to its residue mod p."""
    return bytes(c % p for c in range(256))


def _read(total: int, n: int, slot: tuple[int, str | None], p: int):
    """The first n slots of total, each reduced mod p: bytes for 1-byte
    slots, else a list."""
    width, code = slot
    data = total.to_bytes(n * width, "little")
    if width == 1:
        return data.translate(_mod_table(p))
    if code:
        return [c % p for c in struct.unpack(f"<{n}{code}", data)]
    return [int.from_bytes(data[k : k + width], "little") % p for k in range(0, n * width, width)]


def _unpack_column(total: int, count: int, size: int, slot: tuple[int, str | None], p: int) -> list:
    """The count GF(p)[x] payloads held in blocks of size slots by total."""
    end = count * size
    coeffs = _read(total, end, slot, p)
    if slot[0] == 1:
        # cut the blocks and trim their zero bytes; iter_unpack keeps one
        # short format, where a format of count codes would leave a large
        # compiled struct in struct's cache per count
        blocks = map(operator.itemgetter(0), struct.iter_unpack(f"{size}s", coeffs))
        return list(map(tuple, map(bytes.rstrip, blocks, itertools.repeat(b"\0"))))
    return [_poly_trim(coeffs[k : k + size]) for k in range(0, end, size)]


def _series_inverse(c: tuple, m: int, p: int) -> tuple:
    """The GF(p)[x] payload of c^-1 mod x^m, for c with c(0) != 0."""
    inv0 = pow(c[0], -1, p)
    out = [inv0]
    for r in range(1, m):
        acc = sum(c[u] * out[r - u] for u in range(1, min(r + 1, len(c))))
        out.append(-acc * inv0 % p)
    return _poly_trim(out)


def _poly_payloads(p: int) -> Iterator[tuple]:
    """Every GF(p)[x] payload: by degree, then by coefficients low to high."""
    yield ()
    for length in itertools.count(1):
        for low in itertools.product(range(p), repeat=length - 1):
            for lead in range(1, p):
                yield low + (lead,)


def _parse_poly(text: str, p: int) -> tuple:
    coeffs = []
    for part in text.strip().split(","):
        part = part.strip()
        if not part:
            raise RingParseError(f"empty coefficient in {_excerpt(text)}")
        try:
            coeffs.append(_parse_int(part) % p)
        except RingParseError:
            raise RingParseError(f"invalid coefficient {_excerpt(part)}") from None
    return _poly_trim(coeffs)


@value_class
class PolynomialRing(EuclideanRing):
    """GF(p)[x], a Euclidean (hence Bezout) domain."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} not prime")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.p == other.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p,))

    def spec(self) -> str:
        return f"GF({self.p})[x]"

    def _canonical(self, value):
        if isinstance(value, RingElement):
            self._check(value)
            return value.payload
        if isinstance(value, int) and not isinstance(value, bool):
            return _poly_trim((value % self.p,))
        if isinstance(value, (tuple, list)):
            return _poly_trim(c % self.p for c in value)
        raise TypeError(f"polynomial payload expected, got {value!r}")

    def _zero(self):
        return ()

    def _one(self):
        return (1,)

    def _add(self, x, y):
        if len(x) < len(y):
            x, y = y, x
        p = self.p
        low = [(a + b) % p for a, b in zip(x, y)]
        if len(x) > len(y):
            # the tail ends in x's nonzero leading coefficient
            return (*low, *x[len(y) :])
        return _poly_trim(low)

    def _neg(self, x):
        p = self.p
        return tuple([-c % p for c in x])

    def _mul(self, x, y):
        if len(x) > len(y):
            x, y = y, x
        if not x:
            return ()
        # p is prime, so the leading coefficient x[-1] * y[-1] is nonzero
        # modulo p and no product needs trimming
        p, n = self.p, len(x) + len(y) - 1
        if len(x) == 1:
            a = x[0]
            return tuple([a * c % p for c in y])
        if len(x) < _KRONECKER_MIN_LEN:
            out = [0] * n
            for i, a in enumerate(x):
                if a:
                    for j, b in enumerate(y, i):
                        out[j] = (out[j] + a * b) % p
            return tuple(out)
        slot = _slot((p - 1) ** 2 * len(x))
        return tuple(_read(_pack(x, slot) * _pack(y, slot), n, slot, p))

    def _matmul(self, left, right):
        # Kronecker substitution on whole dot products: each entry is packed
        # once and each sum of products is one native int expression.  A
        # slot holds k * (p - 1)^2 * min(longest left, longest right entry).
        columns = list(zip(*right))
        p = self.p
        shortest = min(
            max(map(len, itertools.chain.from_iterable(left)), default=0),
            max(map(len, itertools.chain.from_iterable(columns)), default=0),
        )
        if not shortest:
            # every product is zero, and a zero bound gives slots too narrow
            # for the other side's coefficients
            return [[()] * len(columns) for _ in left]
        slot = _slot(len(right) * (p - 1) ** 2 * shortest)
        bits = 8 * slot[0]
        rows = [[_pack(x, slot) for x in row] for row in left]
        cols = [[_pack(y, slot) for y in col] for col in columns]
        out = []
        for row in rows:
            out_row = []
            for col in cols:
                total = sum(map(operator.mul, row, col))
                out_row.append(_poly_trim(_read(total, -(-total.bit_length() // bits), slot, p)))
            out.append(out_row)
        return out

    def _add_col(self, rows, i, j, f):
        # Kronecker substitution on whole columns: each column is one integer
        # with a block of `size` slots per entry, wide enough that f * y never
        # spills into the next block, so one bignum expression is the column.
        # Only the rows with y nonzero take part.  A slot holds
        # (p - 1) + (p - 1)^2 * min(len f, longest y).
        ys = [row[j] for row in rows]
        live = list(itertools.compress(rows, ys))
        if not f or not live:
            return
        ys = list(filter(None, ys))
        longest_y = max(map(len, ys))
        p = self.p
        slot = _slot(p - 1 + (p - 1) ** 2 * min(len(f), longest_y))
        xs = [row[i] for row in live]
        size = max(max(map(len, xs)), len(f) + longest_y - 1)
        total = _pack_column(xs, size, slot) + _pack(f, slot) * _pack_column(ys, size, slot)
        for row, x in zip(live, _unpack_column(total, len(live), size, slot, p)):
            row[i] = x

    def _col_block(self, rows, i, j, t):
        # as _add_col, over the rows with x or y nonzero; a slot holds
        # 2 (p - 1)^2 * min(longest x or y, longest t)
        live = [row for row in rows if row[i] or row[j]]
        if not live:
            return
        xs = [row[i] for row in live]
        ys = [row[j] for row in live]
        longest = max(max(map(len, xs)), max(map(len, ys)))
        longest_t = max(len(e) for pair in t for e in pair)
        if not longest_t:
            # slots sized for the zero products could not hold x or y
            for row in live:
                row[i] = row[j] = ()
            return
        p = self.p
        slot = _slot(2 * (p - 1) ** 2 * min(longest, longest_t))
        size = longest + longest_t - 1
        x, y = _pack_column(xs, size, slot), _pack_column(ys, size, slot)
        (t00, t01), (t10, t11) = [[_pack(e, slot) for e in pair] for pair in t]
        count = len(live)
        new_i = _unpack_column(x * t00 + y * t10, count, size, slot, p)
        new_j = _unpack_column(x * t01 + y * t11, count, size, slot, p)
        for row, a, b in zip(live, new_i, new_j):
            row[i], row[j] = a, b

    def _reduce_row(self, rows, r):
        # Two Kronecker products per row.  Quotients (von zur Gathen &
        # Gerhard, Modern Computer Algebra, 9.1): with L the longest dividend
        # and m = L - len d + 1, each reversed dividend, zero-padded at the
        # bottom to length L, times the inverse of the reversed pivot modulo
        # x^m holds its quotient reversed in the first m slots of its block.
        # The inverse is negated, so these are the shear factors.  A slot
        # holds (p - 1)^2 min(L, m).  Shears: X, the target columns over the
        # live rows (column r nonzero) packed target-major, plus F * Y, F
        # each factor in its own block of live * size slots and Y column r,
        # is every target column after its shear.  A slot holds
        # (p - 1) + (p - 1)^2 min(m, longest y), as in _add_col.
        row = rows[r]
        d = row[r]
        targets = [c for c in range(r) if len(row[c]) >= len(d)]
        if not targets:
            return
        live = [tableau_row for tableau_row in rows if tableau_row[r]]
        ys = [tableau_row[r] for tableau_row in live]
        longest_x = max(len(row[c]) for c in targets)
        longest_y = max(map(len, ys))
        m = longest_x - len(d) + 1
        p = self.p
        slot = _slot((p - 1) ** 2 * min(longest_x, m))
        size = longest_x + m - 1
        end = len(targets) * size
        dividends = [(0,) * (longest_x - len(row[c])) + row[c][::-1] for c in targets]
        inverse = self._neg(_series_inverse(d[::-1], m, p))
        coeffs = _read(_pack_column(dividends, size, slot) * _pack(inverse, slot), end, slot, p)
        factors = [_poly_trim(coeffs[k : k + m][::-1]) for k in range(0, end, size)]
        xs = [tableau_row[c] for c in targets for tableau_row in live]
        size = max(max(map(len, xs)), m + longest_y - 1)
        slot = _slot(p - 1 + (p - 1) ** 2 * min(m, longest_y))
        total = _pack_column(xs, size, slot) + _pack_column(
            factors, len(live) * size, slot
        ) * _pack_column(ys, size, slot)
        new = _unpack_column(total, len(xs), size, slot, p)
        for (c, tableau_row), x in zip(itertools.product(targets, live), new):
            tableau_row[c] = x

    def _bareiss_rows(self, rows, k, prev):
        # Kronecker substitution on whole row tails: each row's numerator
        # pivot * R_i + (-lead) * R_k is one bignum expression with every slot
        # nonnegative, one block of `size` slots per entry.  Dividing it by
        # prev = x^v c, c(0) != 0, drops v slots and multiplies by the power
        # series inverse of c modulo x^m, m bounding the quotient's length.
        # That is right only because Bareiss divisions are exact (Sylvester's
        # identity): each numerator N is x^v c q with len q <= m, so
        # q = (N / x^v) c^-1 mod x^m.  The v slots dropped from each block's
        # bottom hold multiples of p, not zeros; they land at the top of the
        # block below, past its first m slots, and spill only multiples of p
        # into the first m slots of their own block.  A slot holds
        # (p - 1)^2 (min(len pivot, longest x) + min(longest lead, longest y))
        # times the sum of the inverse's coefficients.
        row_k, below = rows[k], rows[k + 1 :]
        pivot, tail_k = row_k[k], row_k[k + 1 :]
        tails = [row[k + 1 :] for row in below]
        leads = [self._neg(row[k]) for row in below]
        longest_x = max(len(x) for tail in tails for x in tail)
        longest_y, longest_lead = max(map(len, tail_k)), max(map(len, leads))
        longest = max(len(pivot) + longest_x, longest_lead + longest_y) - 1
        m = longest - len(prev) + 1
        terms = min(len(pivot), longest_x) + min(longest_lead, longest_y)
        if m <= 0 or not terms:
            # every numerator is zero, or shorter than prev and so, by
            # exactness, zero; slots sized for it could not hold the operands
            for row in below:
                row[k + 1 :] = [()] * len(tail_k)
            return
        p = self.p
        v = next(e for e, c in enumerate(prev) if c)
        inverse = _series_inverse(prev[v:], m, p)
        slot = _slot((p - 1) ** 2 * terms * sum(inverse))
        size = longest + m - 1
        shift = 8 * slot[0] * v
        pivot_n, inverse_n = _pack(pivot, slot), _pack(inverse, slot)
        y = _pack_column(tail_k, size, slot)
        count = len(tail_k)
        for row, tail, lead in zip(below, tails, leads):
            total = pivot_n * _pack_column(tail, size, slot) + _pack(lead, slot) * y
            quotients = _unpack_column((total >> shift) * inverse_n, count, size, slot, p)
            row[k + 1 :] = [_poly_trim(q[:m]) for q in quotients]

    def _sort_key(self, x):
        return (len(x), x)

    def _format(self, x):
        return ",".join(map(str, x)) if x else "0"

    def _parse(self, text):
        return _parse_poly(text, self.p)

    def _parse_row(self, tokens):
        # a valid coefficient is an int() literal unless it is past the
        # digit limit; that one, and an empty or malformed one, takes
        # _parse_poly, which splits it or names it
        p = self.p
        try:
            return [_poly_trim([int(c) % p for c in tok.split(",")]) for tok in tokens]
        except ValueError:
            return super()._parse_row(tokens)

    def _is_unit(self, x):
        return len(x) == 1

    def _is_normalized(self, x):
        return not x or x[-1] == 1

    def _divmod(self, x, d):
        if not d:
            raise ZeroDivisionError("polynomial division by zero")
        p, top = self.p, len(d) - 1
        if not top:
            # a unit divisor: the quotient is x scaled, with nothing left
            inv = pow(d[0], -1, p)
            return tuple([c * inv % p for c in x]), ()
        if len(x) <= top:
            return (), x
        inv_lead = pow(d[-1], -1, p)
        rem = list(x)
        # x's leading coefficient makes the quotient's nonzero, so it needs
        # no trimming; each step clears rem[k + top], so the remainder is
        # rem[:top]
        quot = [0] * (len(x) - top)
        for k in range(len(quot) - 1, -1, -1):
            coef = rem[k + top] * inv_lead % p
            if coef:
                quot[k] = coef
                for j, b in enumerate(d, k):
                    rem[j] = (rem[j] - coef * b) % p
        return tuple(quot), _poly_trim(rem[:top])

    def _unit_inverse(self, u):
        return (pow(u[0], -1, self.p),)

    def _normalizer(self, x):
        return self._unit_inverse((x[-1],)) if x and x[-1] != 1 else None

    def _first_associate(self, x):
        # _sort_key compares the lowest coefficients first
        low = next((c for c in x if c), 1)
        return x if low == 1 else self._mul(self._unit_inverse((low,)), x)

    def _quotient(self, m):
        return PolynomialQuotientRing(self.p, m) if m else self

    def _enumerate_payloads(self):
        return _poly_payloads(self.p)


class PolynomialQuotientRing(EuclideanQuotientRing):
    """GF(p)[x]/(f) for a nonzero f, stored monic; finite with p^deg(f) elements."""

    def __init__(self, p: int, modulus):
        super().__init__(PolynomialRing(p), modulus)

    @property
    def cardinality(self) -> int:
        return self.base.p ** (len(self.modulus) - 1)

    def spec(self) -> str:
        return f"GF({self.base.p})[x]/({self.base._format(self.modulus)})"

    def _enumerate_payloads(self):
        return itertools.islice(_poly_payloads(self.base.p), self.cardinality)
