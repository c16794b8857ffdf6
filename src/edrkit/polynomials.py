"""GF(p)[x] and its quotients GF(p)[x]/(f): payloads are trimmed
low-to-high coefficient tuples.

This carrier lives apart from edrkit.rings so that a process working over
Z or Z/n never loads its kernels: ring_parse imports this module when it
reads a GF( literal.

GF(p)[x] multiplies by Kronecker substitution once the shorter operand is
long enough (_packs: 6 coefficients at slots of up to 8 bytes, more past
them): the coefficients are packed into slots of one integer per operand,
and one integer product is unpacked and reduced modulo p.  Shorter operands
take the schoolbook loop.  A slot is as wide as its bound needs, for any p,
so every kernel below has one path.  Slots of w bytes are reduced mod p
with no loop per slot while w (p - 1) fits a byte (_residues: one
bytes.translate per byte plane, every width up to 63 bytes at p = 5), and
one at a time past that.  The extended gcd (_ext_gcd) runs the Euclidean
loop on packed rows (r, s, t) of its remainder table: one product and one
reduction per step.  A matrix product (_matmul) sums each
dot product over entries packed once into such slots.  The reducer's
tableau (_PackedTableau) keeps every column as one packed byte string for
a whole Hermite pass, each coefficient reduced mod p, row i in block i of
each: a column shear is one bignum expression on the column, reduced mod p
once, an entry is decoded only when the reducer reads it, and a transpose
re-packs every column.  Its size reduction of a row finds every quotient
of the row in one product, of the reversed dividends, cut from the row's
blocks, with the power-series inverse of the reversed pivot, then shears
each column once.  The Bareiss row kernel (_bareiss_rows) packs each
row's numerator likewise and does the exact division by the previous
pivot as a product with its power-series inverse.  Division by a unit is
one scaling pass.
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
    Tableau,
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
# and wider ones (p above about 2^32) with int.to_bytes and int.from_bytes;
# _residues reduces any width by byte planes while its sums fit a byte.
# A whole column packs the same way, one block of equal length per entry
# (_pack_column): blocks long enough for every product leave each block of
# the result column its own entry.
_SLOT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}

# Shorter operands take the schoolbook loop: 6 is the least length at which
# packing won at every slot width up to 8 bytes.  Packed over schoolbook time per call
# (Python 3.11, 2-vCPU x86 VM, min of 11 interleaved runs of 3000 calls, two
# runs, equal lengths, p = 5, 31, 251, 65537 for slots of 1, 2, 4, 8 bytes):
# length 2 x1.48-2.61, 3 x1.15-2.20, 4 x0.82-1.70, 5 x0.68-1.22,
# 6 x0.70-0.94, 8 x0.41-0.63.  Wider slots cost more per coefficient, so
# past 8 bytes the least winning length grows with the width (_packs):
# packed over schoolbook time, equal lengths (min of 7 x 1000 calls, median
# of 3 operand pairs) at 16-byte slots (p of 33 and 61 bits) length 6
# x1.04/x0.90, 7 x0.90/x0.83; at 32 bytes (82 bits) 8 x1.02, 9 x0.87.
_KRONECKER_MIN_LEN = 6


def _packs(length: int, width: int) -> bool:
    """Whether a product whose shorter operand has length coefficients
    packs into slots of width bytes rather than taking the schoolbook loop."""
    return length >= max(_KRONECKER_MIN_LEN, 2 * width.bit_length() - 3)


def _slot(bound: int) -> tuple[int, str | None]:
    """(width, struct code) of the narrowest slot holding 0..bound; the
    code is None for slots wider than 8 bytes."""
    needed = max(1, (bound.bit_length() + 7) // 8)
    width = 1 << (needed - 1).bit_length()
    return width, _SLOT_CODES.get(width)


def _encode(coeffs, slot: tuple[int, str | None]) -> bytes:
    """coeffs, each below 256^width, in little-endian slots."""
    width, code = slot
    if width == 1:
        return bytes(coeffs)
    if code:
        return struct.pack(f"<{len(coeffs)}{code}", *coeffs)
    return b"".join([c.to_bytes(width, "little") for c in coeffs])


def _pack(coeffs: tuple, slot: tuple[int, str | None]) -> int:
    """The integer whose little-endian slots hold coeffs."""
    return int.from_bytes(_encode(coeffs, slot), "little")


def _encode_column(entries: list, size: int, slot: tuple[int, str | None]) -> bytes:
    """Each entry in its own block of size slots, the first entry lowest."""
    span = size * slot[0]
    zero = bytes(span)
    if slot[0] == 1:
        return b"".join([bytes(x).ljust(size, b"\0") if x else zero for x in entries])
    return b"".join([_encode(x, slot).ljust(span, b"\0") if x else zero for x in entries])


def _pack_column(entries: list, size: int, slot: tuple[int, str | None]) -> int:
    """The integer holding each entry in its own block of size slots, the
    first entry in the lowest block."""
    return int.from_bytes(_encode_column(entries, size, slot), "little")


def _decode(block: bytes, slot: tuple[int, str | None]) -> tuple:
    """The payload held by a block of reduced coefficients."""
    width, code = slot
    data = block.rstrip(b"\0")
    if width == 1:
        return tuple(data)
    n = -(-len(data) // width)
    data = data.ljust(n * width, b"\0")
    if code:
        return struct.unpack(f"<{n}{code}", data)
    return tuple([int.from_bytes(data[k : k + width], "little") for k in range(0, n * width, width)])


def _decode_all(blocks, slot: tuple[int, str | None]) -> list:
    """The payloads held by blocks of reduced coefficients."""
    if slot[0] == 1:
        return list(map(tuple, map(bytes.rstrip, blocks, itertools.repeat(b"\0"))))
    return [_decode(block, slot) for block in blocks]


def _blocks(data: bytes, span: int) -> tuple:
    """data cut into blocks of span bytes."""
    # one format field per block, as a tableau has few rows: two to three
    # times as fast as iter_unpack on a column of 6 to 28 blocks, and twice
    # as fast as slicing 60 slots of 16 bytes one at a time; struct keeps
    # at most 100 compiled formats
    return struct.unpack(f"{span}s" * (len(data) // span), data)


def _longest(data: bytes, span: int, width: int) -> int:
    """The length of the longest payload held by data's blocks of span bytes."""
    # OR the upper half of the blocks into the lower half until one block
    # is left: its top nonzero byte is the top of the longest payload
    folded, count, bits = int.from_bytes(data, "little"), len(data) // span, 8 * span
    while count > 1:
        cut = bits * (count - count // 2)
        folded = folded & ((1 << cut) - 1) | folded >> cut
        count -= count // 2
    return -(-folded.bit_length() // (8 * width))


def _cut(data: bytes, span: int, part: int) -> bytes:
    """The first part bytes of each of data's blocks of span bytes."""
    return b"".join([block[:part] for block in _blocks(data, span)])


def _spread(data: bytes, width: int, wide: int, step: int = 1) -> bytes:
    """data's slots of width bytes moved into slots of wide bytes, in
    reverse order for step -1: one extended-slice copy per byte."""
    if width == wide == 1:
        return data[::step]
    out = bytearray(len(data) // width * wide)
    for k in range(width):
        out[k::wide] = data[k::width][::step]
    return out


@cache
def _mod_table(p: int) -> bytes:
    """bytes.translate table taking each byte to its residue mod p."""
    return bytes(c % p for c in range(256))


@cache
def _plane_tables(p: int, width: int) -> tuple:
    """bytes.translate tables, one per byte k of a width-byte slot, taking
    each byte c to c * 256^k mod p.  _residues asks only while
    width * (p - 1) fits a byte, so the cache holds few keys."""
    return tuple(bytes(c * pow(256, k, p) % p for c in range(256)) for k in range(width))


def _residues(data: bytes, slot: tuple[int, str | None], p: int):
    """data's slots, each reduced mod p: bytes (one per slot) when
    width * (p - 1) fits a byte, else a list.

    A slot of width w holds the sum over k of byte k times 256^k, so its
    residue is that of the sum of its bytes, each taken to c * 256^k mod p.
    Byte k of every slot is one extended slice, mapped by one translate;
    the w planes, added as little-endian ints, carry nothing while
    w * (p - 1) fits a byte, and one more translate reduces the sums.
    Larger sums are reduced one slot at a time."""
    width, code = slot
    if width == 1:
        return data.translate(_mod_table(p))
    if width * (p - 1) < 256:
        n = len(data) // width
        total = sum(
            int.from_bytes(data[k::width].translate(table), "little")
            for k, table in enumerate(_plane_tables(p, width))
        )
        return total.to_bytes(n, "little").translate(_mod_table(p))
    if code:
        return [c % p for c in struct.unpack(f"<{len(data) // width}{code}", data)]
    return [int.from_bytes(s, "little") % p for s in _blocks(data, width)]


def _read(total: int, n: int, slot: tuple[int, str | None], p: int):
    """The first n slots of total, each reduced mod p, as _residues gives
    them."""
    return _residues(total.to_bytes(n * slot[0], "little"), slot, p)


def _unpack_column(total: int, count: int, size: int, slot: tuple[int, str | None], p: int) -> list:
    """The count GF(p)[x] payloads held in blocks of size slots by total."""
    end = count * size
    coeffs = _read(total, end, slot, p)
    if isinstance(coeffs, bytes):
        # cut the blocks and trim their zero bytes; iter_unpack keeps one
        # short format, where a format of count codes would leave a large
        # compiled struct in struct's cache per count
        blocks = map(operator.itemgetter(0), struct.iter_unpack(f"{size}s", coeffs))
        return list(map(tuple, map(bytes.rstrip, blocks, itertools.repeat(b"\0"))))
    return [_poly_trim(coeffs[k : k + size]) for k in range(0, end, size)]


def _series_inverse(c: tuple, m: int, p: int) -> tuple:
    """The GF(p)[x] payload of c^-1 mod x^m, for c with c(0) != 0."""
    inv0 = pow(c[0], -1, p)
    tail = c[1:]
    out = [inv0]
    if tail:  # else every later coefficient is 0
        for _ in range(1, m):
            # coefficient r is -(c[1] out[r - 1] + c[2] out[r - 2] + ...) / c[0]
            out.append(-sum(map(operator.mul, tail, reversed(out))) * inv0 % p)
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


class _PackedTableau(Tableau):
    """GF(p)[x]'s tableau: every column is one packed byte string.

    A column holds one block of self.size slots per row, and a slot holds
    one coefficient, reduced mod p, in self.slot (the narrowest slot that
    holds p - 1); an entry is its block, low coefficient first, zero-padded
    at the top, and row i's block is block i of every column.  Every change
    but a transpose, a swap (the column block [[0, 1], [1, 0]]) included,
    is a sequence of shears x + f * y (_pass): one product of packed
    integers whose slots are as wide as its sum needs, then one reduction
    mod p back into stored slots.  self.lens[j] bounds the length of every
    entry of column j, so an operation checks against it that the blocks
    have room for every product it forms, before forming it; when they have
    not, the bounds are measured again, and then the blocks grow (_room).
    Entries are decoded only when read.
    """

    def __init__(self, p: int, grid: list[list]):
        self.p = p
        self.slot = _slot(p - 1)
        self.capacity = 1 << 8 * self.slot[0]
        columns = list(zip(*grid))
        lengths = [list(map(len, row)) for row in grid]
        self.lens = [max(col) for col in zip(*lengths)]
        # room for the product of two minors, the bound Kannan-Bachem keeps
        # finished entries to: a minor's degree is at most the sum of its
        # rows' largest degrees, and of its columns'
        degrees = min(
            sum(max(max(row, default=0) - 1, 0) for row in lengths),
            sum(max(length - 1, 0) for length in self.lens),
        )
        self.size = 2 * degrees + 1
        self.span = self.size * self.slot[0]
        self.cols = [_encode_column(col, self.size, self.slot) for col in columns]

    def entry(self, i, j):
        span = self.span
        return _decode(self.cols[j][i * span : (i + 1) * span], self.slot)

    def _room(self, extra: int, *columns: int) -> None:
        """Make the blocks hold extra + longest - 1 slots, longest the longest
        entry of the given columns: room for the product of a payload of
        length extra with any of their entries."""
        lens = self.lens
        if extra + max(map(lens.__getitem__, columns)) - 1 <= self.size:
            return
        span, width = self.span, self.slot[0]
        for c in columns:
            lens[c] = _longest(self.cols[c], span, width)
        need = extra + max(map(lens.__getitem__, columns)) - 1
        if need > self.size:
            self._resize(max(need, self.size + self.size // 2))

    def _resize(self, size: int) -> None:
        span, wide = self.span, size * self.slot[0]
        self.cols[:] = [b"".join([block.ljust(wide, b"\0") for block in _blocks(col, span)]) for col in self.cols]
        self.size, self.span = size, wide

    def _pass(self, xs: list, fss: list, ys: list, longest: list) -> list:
        """x + the sum of f * y over fs and ys, for each x of xs and fs of
        fss, each slot reduced mod p, in one product per x: xs (or b"") and
        ys are stored columns, and the entries of ys[t] are no longer than
        longest[t].  The one bound rule: a slot of a sum is at most p - 1
        plus, for each y, (p - 1)^2 times the fewer of its longest f and
        longest[t], and the product takes slots that hold it.  Past
        self.slot, the columns are cut to blocks just long enough for their
        entries and the products, and spread into slots that wide; the
        residues, in stored slots, are padded back to blocks of self.span
        bytes."""
        p, stored, size, span = self.p, self.slot, self.size, self.span
        longest_f = [max(map(len, factors)) for factors in zip(*fss)]  # per y
        bound = p - 1 + (p - 1) ** 2 * sum(map(min, longest_f, longest))
        slot = stored if bound < self.capacity else _slot(bound)
        width, narrow = slot[0], stored[0]
        if width != narrow:
            size = max(
                1,
                *(_longest(x, span, narrow) for x in xs),
                max(longest_f) + max(_longest(y, span, narrow) for y in ys) - 1,
            )
            xs = [_spread(_cut(x, span, size * narrow), narrow, width) for x in xs]
            ys = [_spread(_cut(y, span, size * narrow), narrow, width) for y in ys]
        n = len(ys[0]) // width
        ys = [int.from_bytes(y, "little") for y in ys]
        out = []
        for x, fs in zip(xs, fss):
            total = int.from_bytes(x, "little")
            for f, y in zip(fs, ys):
                total += _pack(f, slot) * y
            coeffs = _read(total, n, slot, p)
            if not isinstance(coeffs, bytes):
                coeffs = _encode(coeffs, stored)
            if width != narrow:
                coeffs = b"".join([block.ljust(span, b"\0") for block in _blocks(coeffs, size * narrow)])
            out.append(coeffs)
        return out

    def add_col(self, i, j, f):
        lens = self.lens
        if not f or not lens[j]:
            return
        self._room(len(f), j)
        cols = self.cols
        (cols[i],) = self._pass([cols[i]], [[f]], [cols[j]], [lens[j]])
        lens[i] = max(lens[i], len(f) + lens[j] - 1)

    def col_block(self, i, j, t):
        (t00, t01), (t10, t11) = t
        longest_t = max(map(len, (t00, t01, t10, t11)))
        if longest_t:
            self._room(longest_t, i, j)
        cols, lens = self.cols, self.lens
        long_x, long_y = lens[i], lens[j]
        cols[i], cols[j] = self._pass([b"", b""], [[t00, t10], [t01, t11]], [cols[i], cols[j]], [long_x, long_y])
        lens[i] = lens[j] = max(long_x, long_y) + longest_t - 1 if longest_t else 0

    def reduce_row(self, r):
        # One Kronecker product gives every quotient (von zur Gathen &
        # Gerhard, Modern Computer Algebra, 9.1): with L the longest dividend
        # and m = L - len d + 1, each reversed dividend, zero-padded at the
        # bottom to length L, times the inverse of the reversed pivot modulo
        # x^m holds its quotient reversed in the first m slots of its block.
        # The inverse is negated, so these are the shear factors.  A slot
        # holds (p - 1)^2 min(L, m).  The dividends are the first L slots of
        # row r's block in each target column: one slot reversal of their
        # join, padded between, reverses each and puts its padding above it.
        # Each target column then takes its own shear against column r's
        # integer: one product of column r by every factor, each in a
        # column-long block, would multiply two long integers, where a shear
        # multiplies a long one by a short one.
        p, slot, cols = self.p, self.slot, self.cols
        width, span = slot[0], self.span
        blocks = [col[r * span : (r + 1) * span] for col in cols[: r + 1]]
        lengths = [-(-n // width) for n in map(len, map(bytes.rstrip, blocks, itertools.repeat(b"\0")))]
        top = lengths[r]
        targets = [c for c in range(r) if lengths[c] >= top]
        if not targets:
            return
        longest_x = max(lengths[c] for c in targets)
        m = longest_x - top + 1
        quotient_slot = _slot((p - 1) ** 2 * min(longest_x, m))
        size = longest_x + m - 1
        pad = bytes((m - 1) * width)
        dividends = pad + pad.join([blocks[c][: longest_x * width] for c in reversed(targets)])
        inverse = [-c % p for c in _series_inverse(_decode(blocks[r], slot)[::-1], m, p)]
        total = int.from_bytes(_spread(dividends, width, quotient_slot[0], -1), "little") * _pack(
            inverse, quotient_slot
        )
        coeffs = _read(total, len(targets) * size, quotient_slot, p)
        factors = [_poly_trim(coeffs[k : k + m][::-1]) for k in range(0, len(coeffs), size)]
        self._room(m, r)
        lens = self.lens
        new = self._pass([cols[c] for c in targets], [[f] for f in factors], [cols[r]], [lens[r]])
        for c, x in zip(targets, new):
            cols[c] = x
            lens[c] = max(lens[c], lengths[c] - top + lens[r])

    def transpose(self):
        # the entries keep their lengths, so every column is bounded by the
        # longest bound of any
        span = self.span
        self.cols = [b"".join(row) for row in zip(*[_blocks(col, span) for col in self.cols])]
        self.lens = [max(self.lens, default=0)] * len(self.cols)

    def block(self, top, bottom, left, right):
        span = self.span
        columns = [_decode_all(_blocks(col, span)[top:bottom], self.slot) for col in self.cols[left:right]]
        return list(map(list, zip(*columns))) if columns else [[] for _ in range(top, bottom)]


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
        if len(x) >= _KRONECKER_MIN_LEN:
            slot = _slot((p - 1) ** 2 * len(x))
            if _packs(len(x), slot[0]):
                return tuple(_read(_pack(x, slot) * _pack(y, slot), n, slot, p))
        out = [0] * n
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y, i):
                    out[j] = (out[j] + a * b) % p
        return tuple(out)

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

    def _tableau(self, grid):
        return _PackedTableau(self.p, grid)

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
            # a unit divisor: the quotient is x scaled, with nothing left;
            # the reducer's pivots are mostly 1, which leaves x as it is
            inv = pow(d[0], -1, p)
            return (x if inv == 1 else tuple([c * inv % p for c in x])), ()
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

    def _ext_gcd(self, x, y):
        # The extended Euclidean loop (von zur Gathen & Gerhard, Modern
        # Computer Algebra, 3.2) on packed rows: a row (r, s, t) of the
        # remainder table is one integer of three blocks of `size` slots,
        # size the longer operand's length, which bounds every remainder
        # and cofactor.  A step reads the quotient q off the top slots of
        # the two rows' remainders, then the next row is old + (-q) * cur,
        # one product whose slots hold (p - 1) + (p - 1)^2 * size, reduced
        # mod p in one pass.  Below the remainder's old top, the product's
        # remainder block is the division's remainder; above, multiples of p.
        p = self.p
        size = max(len(x), len(y), 1)
        slot = _slot((p - 1) * (1 + (p - 1) * size))
        pad = [0] * size
        old_c = [*x, *pad[len(x) :], 1, *pad[1:], *pad]
        cur_c = [*y, *pad[len(y) :], *pad, 1, *pad[1:]]
        old, cur = _pack(old_c, slot), _pack(cur_c, slot)
        long_old, top = len(x), len(y) - 1
        while top >= 0:
            total = old
            if long_old > top:
                # -q's coefficients top down, each clearing the top slot of
                # what is left of old's remainder: a holds its slots from top
                # up, the only ones a later coefficient reads
                a = list(old_c[top:long_old])
                inv = -pow(cur_c[top], -1, p)
                q = [0] * len(a)
                for k in range(len(a) - 1, -1, -1):
                    c = q[k] = a[k] * inv % p
                    if c:
                        for pos in range(max(k, top), k + top):
                            a[pos - top] += c * cur_c[pos - k]
                total += _pack(q, slot) * cur
            coeffs = _read(total, 3 * size, slot, p)
            old_c, cur_c, old, cur = cur_c, coeffs, cur, _pack(coeffs, slot)
            # the new remainder is shorter than r, or is x when y was longer
            long_old, top = top + 1, top - 1
            while top >= 0 and not coeffs[top]:
                top -= 1
        g, u, v = [_poly_trim(old_c[k : k + size]) for k in range(0, 3 * size, size)]
        if not g or g[-1] == 1:
            return g, u, v
        inv = pow(g[-1], -1, p)
        return tuple([c * inv % p for c in g]), tuple([c * inv % p for c in u]), tuple([c * inv % p for c in v])

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
