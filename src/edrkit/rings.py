"""Computable commutative rings with exact, certified arithmetic.

Supported carriers: the integers Z, residue rings Z/n, polynomial rings
GF(p)[x], their quotients GF(p)[x]/(f), and finite products.  quotient_ring
builds every principal quotient of these as one of these.  GF(p)[x] and
GF(p)[x]/(f) live in edrkit.polynomials with their Kronecker kernels;
ring_parse loads that module when it reads a GF( literal, so a process
that works over Z or Z/n never compiles them.

Z and GF(p)[x] subclass EuclideanRing, which supplies division with
remainder, the extended gcd, unit inverses and canonical associates
(nonnegative, or monic); the rest of the package reduces matrices and
certifies gcds through it, never through either carrier's payload format.
Z/n and GF(p)[x]/(f) subclass EuclideanQuotientRing, which derives units,
divisibility and gcd certificates from the base ring's extended gcd, so
none of them enumerates the ring; a product takes them componentwise.
Finite rings answer through that structure as well: every carrier yields
its payloads in canonical order (no sort), an ideal is the one
generator _generator folds from its generators' gcds, y lies in xR when
_divides(x, y) finds a quotient, the Jacobson radical is the set of
nilpotents, and the determinant (Ring._det) and the matrix product
(Ring._matmul) are the carrier's own kernel on Z and GF(p)[x], the base
ring's result reduced mod m on a quotient, and a pair on a product.  One
Bareiss loop with row and column pivoting (EuclideanRing._rank_profile, of
which the determinant is the square case) serves both domains; the update
of the rows below a pivot (EuclideanRing._bareiss_rows) runs on native ints
over Z and as one Kronecker-packed expression per row over GF(p)[x].  A
matrix product sums each dot product as native ints on Z and as
Kronecker-packed entries on GF(p)[x].  The reducer runs only on Z and
GF(p)[x], on a tableau the ring lays out (EuclideanRing._tableau, the
contract Tableau) and reads only through its operations: over Z a list of
rows of native ints changed entry by entry (RowTableau), over GF(p)[x] one
packed byte string per column for a whole Hermite pass, so a column shear
is one packed product and a row's size reduction takes every quotient in
one more.  The tableau changes only by column operations and its
transpose; the reducer runs a row operation as a column operation on the
transposed tableau and a swap as the column block [[0, 1], [1, 0]], so the
contract is six operations: entry, add_col, col_block, reduce_row,
transpose and block.

Element literals are read and written one at a time by _parse and _format,
and a matrix row at a time by _parse_row and _format_row.  The row codecs
default to the per-entry loop; Z reads a row with one int() pass and
writes it with one str() pass, and GF(p)[x] reads each coefficient with
int().  A row the fast pass refuses, because a token is malformed or an
integer is past the interpreter's int/str digit limit, is read again
token by token, so errors and text match the per-token codecs.

Elements are immutable and kept in canonical form, so structural equality
coincides with ring equality.  All operations are pure; rings and elements
are safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from abc import ABC, abstractmethod
from functools import cache, cached_property
from typing import Any, Iterator


class RingParseError(ValueError):
    """Malformed ring or element literal; carries the bare message and the
    offending position."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class RingMismatchError(ValueError):
    """Operands belong to different rings."""


class UnsupportedRingError(ValueError):
    """The operation is not available on this ring kind."""


class InfiniteRingError(ValueError):
    """A finite ring is required."""


class CardinalityBoundError(ValueError):
    """The ring is too large for the requested exhaustive check."""


class CertificateShapeError(ValueError):
    """Certificate block shapes do not fit the matrix being verified."""


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of an immutable value."""


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


# sets a field past the frozen guard and keeps the instance's attributes
# inline: writing through self.__dict__ would build a dict per instance and
# slow every later attribute read
_set_field = object.__setattr__


def value_class(cls):
    """Make cls an immutable value over its fields, as @dataclass(frozen=True)
    would, without the dataclasses module or exec.

    The fields are the names cls annotates, after those of its nearest
    value-class base; they take no defaults.  Unless cls defines its own, it
    gains an __init__ taking the fields positionally or by keyword and then
    calling __post_init__ if cls has one, an __eq__ comparing the field
    tuples of two instances of one class, a __hash__ of the field tuple and
    a __repr__ naming each field.  Setting or deleting any attribute raises
    FrozenInstanceError; __post_init__ sets a field with _set_field.  No
    __slots__: Ring keeps cached_property values in the instance __dict__.

    These methods read the fields by name, so a class on a hot path writes
    its own __init__, __eq__ and __hash__ with plain attribute reads.
    """
    fields = getattr(cls, "_fields", ()) + tuple(cls.__dict__.get("__annotations__", ()))
    count = len(fields)
    post_init = hasattr(cls, "__post_init__")

    def values(self):
        return tuple([getattr(self, name) for name in fields])

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _bind(type(self), fields, args, kwargs)
        for name, value in zip(fields, args):
            _set_field(self, name, value)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        inner = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values(self)))
        return f"{self.__class__.__qualname__}({inner})"

    own = cls.__dict__
    for name, method in (("__init__", __init__), ("__eq__", __eq__), ("__repr__", __repr__)):
        if name not in own:
            setattr(cls, name, method)
    # a class that defines __eq__ alone has __hash__ = None in its namespace
    if own.get("__hash__") is None:
        cls.__hash__ = __hash__
    cls._fields = fields
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


def _bind(cls, fields: tuple, args: tuple, kwargs: dict) -> list:
    """The field values of cls(*args, **kwargs), or the TypeError of a bad call."""
    name = cls.__qualname__
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
    values = dict(zip(fields, args))
    for key, value in kwargs.items():
        if key not in fields:
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        if key in values:
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values[key] = value
    missing = [key for key in fields if key not in values]
    if missing:
        raise TypeError(f"{name}() missing arguments: {', '.join(missing)}")
    return [values[key] for key in fields]


@value_class
class RingElement:
    """An element of a ring, stored as a canonical payload.

    Payloads are ints (Z, Z/n), coefficient tuples low-to-high with the
    leading zero trimmed (polynomials), or pairs of payloads (products).
    """

    ring: "Ring"
    payload: Any

    # the hottest value of the package: its methods are written out, as the
    # generic ones of value_class cost 2-5 times as much
    def __init__(self, ring: "Ring", payload: Any):
        _set_field(self, "ring", ring)
        _set_field(self, "payload", payload)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.ring, self.payload) == (other.ring, other.payload)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.payload))

    def __add__(self, other: "RingElement") -> "RingElement":
        return self.ring.add(self, other)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self.ring.sub(self, other)

    def __mul__(self, other: "RingElement") -> "RingElement":
        return self.ring.mul(self, other)

    def __neg__(self) -> "RingElement":
        return self.ring.neg(self)

    def __str__(self) -> str:
        return self.ring.format_element(self)

    def __repr__(self) -> str:
        return f"{self.ring.format_element(self)} : {self.ring.spec()}"


class Ring(ABC):
    """Common interface of every supported commutative ring."""

    # -- structure ----------------------------------------------------

    @property
    @abstractmethod
    def finite(self) -> bool: ...

    @property
    @abstractmethod
    def cardinality(self) -> int | None:
        """Number of elements, or None for infinite rings."""

    @property
    def is_zero_ring(self) -> bool:
        """True for the one-element ring (1 = 0), which quotients by a unit produce."""
        return self.cardinality == 1

    @abstractmethod
    def spec(self) -> str:
        """Ring literal in the grammar accepted by ring_parse.

        The zero ring has no literal: ring_parse refuses a modulus that is a
        unit (Z/1, GF(p)[x]/(c) for a constant c), so the spec of a zero
        ring, or of a product with a zero-ring factor, does not parse back.
        """

    def __str__(self) -> str:
        return self.spec()

    # -- payload-level primitives (canonical in, canonical out) -------

    @abstractmethod
    def _canonical(self, value: Any) -> Any: ...

    @abstractmethod
    def _zero(self) -> Any: ...

    @abstractmethod
    def _one(self) -> Any: ...

    @abstractmethod
    def _add(self, x: Any, y: Any) -> Any: ...

    @abstractmethod
    def _neg(self, x: Any) -> Any: ...

    @abstractmethod
    def _mul(self, x: Any, y: Any) -> Any: ...

    def _sub(self, x: Any, y: Any) -> Any:
        return self._add(x, self._neg(y))

    @abstractmethod
    def _matmul(self, left: list[list], right: list[list]) -> list[list]:
        """The payload grid left * right, left m x k and right k x n.

        A grid without rows carries no width, so for k = 0 this returns m
        empty rows, not m x n zeros.
        """

    @abstractmethod
    def _det(self, grid: list[list]) -> Any:
        """The determinant of the square payload grid; one for a 0 x 0 grid."""

    @abstractmethod
    def _sort_key(self, x: Any):
        """Total order key: the canonical order, in which _enumerate_payloads
        yields the payloads and canonical choices are made."""

    @abstractmethod
    def _format(self, x: Any) -> str: ...

    @abstractmethod
    def _parse(self, text: str) -> Any: ...

    def _parse_row(self, tokens: list[str]) -> list:
        """The payloads of a row of element literals, parsed as _parse would
        one by one; the first malformed token raises its RingParseError.
        This default is the per-token loop."""
        return [self._parse(t) for t in tokens]

    def _format_row(self, payloads) -> str:
        """A row of payloads as space-separated literals, as _format writes
        each.  This default is the per-entry loop."""
        return " ".join(map(self._format, payloads))

    @abstractmethod
    def _ideal_has_one(self, xs: tuple) -> bool:
        """Whether the ideal generated by the payloads is the whole ring."""

    @abstractmethod
    def _is_unit(self, x: Any) -> bool: ...

    @abstractmethod
    def _divides(self, x: Any, y: Any) -> Any | None:
        """The canonically least q with x*q = y, or None."""

    def _is_normalized(self, x: Any) -> bool:
        """Whether x is canonical as a diagonal entry of a certificate, the
        verifier's normalization clause.  Every payload is, unless a carrier
        picks one associate (Z: nonnegative; GF(p)[x]: zero or monic)."""
        return True

    # -- finite enumeration (cached) -----------------------------------

    @abstractmethod
    def _enumerate_payloads(self) -> Iterator[Any]:
        """All payloads in canonical order; infinite rings yield forever."""

    @cached_property
    def _payloads(self) -> tuple:
        if not self.finite:
            raise InfiniteRingError(f"{self.spec()} is infinite")
        return tuple(self._enumerate_payloads())

    @cached_property
    def _unit_set(self) -> frozenset:
        """The units of a finite ring, each tested by _is_unit."""
        return frozenset(x for x in self._payloads if self._is_unit(x))

    @cached_property
    def _idempotents(self) -> tuple:
        return tuple(x for x in self._payloads if self._mul(x, x) == x)

    @cached_property
    def _memo(self) -> dict:
        """Memo that dies with the ring: the finite lab's diadem verdicts,
        keyed by helper function."""
        return {}

    # -- public element API --------------------------------------------

    def element(self, value: Any) -> RingElement:
        """Wrap a value as an element, canonicalizing the payload."""
        return RingElement(self, self._canonical(value))

    @property
    def zero(self) -> RingElement:
        return RingElement(self, self._zero())

    @property
    def one(self) -> RingElement:
        return RingElement(self, self._one())

    def _check(self, a: RingElement) -> None:
        # identity first: a ring's __eq__ compares field tuples
        if a.ring is not self and a.ring != self:
            raise RingMismatchError(
                f"element of {a.ring.spec()} used in {self.spec()}"
            )

    def add(self, a: RingElement, b: RingElement) -> RingElement:
        self._check(a)
        self._check(b)
        return RingElement(self, self._add(a.payload, b.payload))

    def sub(self, a: RingElement, b: RingElement) -> RingElement:
        self._check(a)
        self._check(b)
        return RingElement(self, self._sub(a.payload, b.payload))

    def mul(self, a: RingElement, b: RingElement) -> RingElement:
        self._check(a)
        self._check(b)
        return RingElement(self, self._mul(a.payload, b.payload))

    def neg(self, a: RingElement) -> RingElement:
        self._check(a)
        return RingElement(self, self._neg(a.payload))

    def is_unit(self, a: RingElement) -> bool:
        self._check(a)
        return self._is_unit(a.payload)

    def divides(self, a: RingElement, b: RingElement) -> RingElement | None:
        """Some q with a*q = b, or None.

        When several quotients exist (zero divisors) the canonically
        smallest one is returned.
        """
        self._check(a)
        self._check(b)
        q = self._divides(a.payload, b.payload)
        return None if q is None else RingElement(self, q)

    def _bezout(self, x: Any, y: Any) -> tuple:
        """Payloads (g, u, v, a1, b1) of bezout_gcd."""
        raise UnsupportedRingError(f"bezout_gcd needs Z, GF(p)[x], or a finite ring, not {self}")

    def _quotient(self, x: Any) -> "Ring":
        """The ring R/(x)."""
        raise UnsupportedRingError(f"quotient_ring needs Z, GF(p)[x], or a finite ring, not {self}")

    def elements(self) -> Iterator[RingElement]:
        """All elements in canonical order (finite rings only)."""
        return (RingElement(self, x) for x in self._payloads)

    def sort_key(self, a: RingElement):
        self._check(a)
        return self._sort_key(a.payload)

    def format_element(self, a: RingElement) -> str:
        self._check(a)
        return self._format(a.payload)

    def parse_element(self, text: str) -> RingElement:
        return RingElement(self, self._parse(text))


# ---------------------------------------------------------------------------
# Euclidean domains
# ---------------------------------------------------------------------------


class Tableau(ABC):
    """The reducer's working grid of payloads, held in the ring's own layout.

    A Euclidean ring's _tableau(grid) copies a payload grid into one; the
    reducer then reads it only through entry and block and changes it only
    through the operations below: column operations and the transpose,
    since a row operation is a column operation on the transpose, and a
    swap is the column block [[0, 1], [1, 0]].  Z keeps a list of rows of
    native ints (RowTableau); GF(p)[x] keeps each column as one packed byte
    string (edrkit.polynomials).  Indices are 0-based (row, column).
    """

    @abstractmethod
    def entry(self, i: int, j: int) -> Any:
        """The payload at row i, column j."""

    @abstractmethod
    def add_col(self, i: int, j: int, f: Any) -> None:
        """Column i += f * column j; column j is read before column i is
        written, so i = j multiplies column i by 1 + f."""

    @abstractmethod
    def col_block(self, i: int, j: int, t) -> None:
        """Columns i, j become the old pair times the 2 x 2 payload block t."""

    @abstractmethod
    def reduce_row(self, r: int) -> None:
        """Size-reduce row r: every column c < r -= (entry (r, c) div entry
        (r, r)) * column r, the pivot entry (r, r) nonzero.  Each shear
        changes only its own column, so every quotient is that of the row
        as given."""

    @abstractmethod
    def transpose(self) -> None:
        """Hold the transposed grid."""

    @abstractmethod
    def block(self, top: int, bottom: int, left: int, right: int) -> list[list]:
        """The payload grid of rows top..bottom-1 and columns left..right-1."""


class EuclideanRing(Ring):
    """A Euclidean domain: division with remainder, so every ideal is
    principal and the extended Euclidean algorithm certifies its generator.

    Canonical associates are the normalized payloads (nonnegative over Z,
    monic over GF(p)[x]); gcds are returned in that form.  Both carriers
    are infinite.
    """

    finite = False
    cardinality = None

    @abstractmethod
    def _divmod(self, x: Any, d: Any) -> tuple[Any, Any]:
        """(q, r) with x = q*d + r and r reduced modulo the nonzero d."""

    @abstractmethod
    def _unit_inverse(self, u: Any) -> Any:
        """Inverse of the unit payload u."""

    @abstractmethod
    def _normalizer(self, x: Any) -> Any | None:
        """The unit that scales x to its canonical associate, or None when x is one."""

    @abstractmethod
    def _first_associate(self, x: Any) -> Any:
        """The associate of x that comes first in canonical order."""

    @abstractmethod
    def _ext_gcd(self, x: Any, y: Any) -> tuple[Any, Any, Any]:
        """(g, u, v) with x*u + y*v = g and g canonical (zero when x = y = 0):
        the last nonzero remainder of the extended Euclidean algorithm on
        (x, y) and its two cofactors, all times the unit that normalizes the
        remainder.  The remainder sequence fixes them, so the triple does
        not depend on how a carrier runs the loop."""

    def _divides(self, x, y):
        zero = self._zero()
        if x == zero:
            return zero if y == zero else None
        q, r = self._divmod(y, x)
        return q if r == zero else None

    def _bezout(self, x, y):
        zero = self._zero()
        if x == zero and y == zero:
            return (zero,) * 5
        g, u, v = self._ext_gcd(x, y)
        return g, u, v, self._divmod(x, g)[0], self._divmod(y, g)[0]

    def _ideal_has_one(self, xs):
        g = self._zero()
        for x in xs:
            g = self._ext_gcd(g, x)[0]
        return self._is_unit(g)

    @abstractmethod
    def _tableau(self, grid: list[list]) -> Tableau:
        """The reducer's tableau holding a copy of the payload grid."""

    def _det(self, grid):
        rank, _, _, delta = self._rank_profile(grid, len(grid))
        return delta if rank == len(grid) else self._zero()

    def _rank_profile(self, grid: list[list], cols: int) -> tuple[int, list, list, Any]:
        """(r, T, S, delta) for the grid with len(grid) rows and cols columns:
        its rank r, r rows T and r columns S in pivot order, and
        delta = +-det grid[T, S], nonzero (one when r = 0), the determinant
        itself when the grid is square and nonsingular.

        Fraction-free Gaussian elimination (Bareiss 1968) with row and column
        pivoting.  Every division by the previous pivot is exact in an integral
        domain, so intermediate entries stay minors of the input: O(m n r) ring
        operations.  The pivot search, swaps and sign are shared; the update of
        the rows below each pivot is _bareiss_rows, one kernel per carrier.
        """
        a = [list(row) for row in grid]
        rows, columns = list(range(len(a))), list(range(cols))
        zero = self._zero()
        sign = prev = self._one()
        k, end = 0, min(len(a), cols)
        while k < end:
            # column k first, so a nonsingular square grid swaps rows only
            at = next(((i, j) for j in range(k, cols) for i in range(k, len(a)) if a[i][j] != zero), None)
            if at is None:
                break
            i, j = at
            if i != k:
                a[k], a[i], rows[k], rows[i] = a[i], a[k], rows[i], rows[k]
                sign = self._neg(sign)
            if j != k:
                for row in a[k:]:
                    row[k], row[j] = row[j], row[k]
                columns[k], columns[j] = columns[j], columns[k]
                sign = self._neg(sign)
            if k + 1 < end:
                self._bareiss_rows(a, k, prev)
            prev = a[k][k]
            k += 1
        return k, rows[:k], columns[:k], self._mul(sign, prev)

    @abstractmethod
    def _bareiss_rows(self, rows: list[list], k: int, prev: Any) -> None:
        """One Bareiss step, in place: entry j > k of each row i > k becomes
        (pivot * rows[i][j] - rows[i][k] * rows[k][j]) / prev, with pivot
        rows[k][k] nonzero.  The division is exact (Sylvester's identity)."""


# ---------------------------------------------------------------------------
# Integers
# ---------------------------------------------------------------------------


class RowTableau(Tableau):
    """Z's tableau: a list of rows of native ints, changed in place."""

    def __init__(self, grid: list[list]):
        self.rows = [list(row) for row in grid]

    def entry(self, i, j):
        return self.rows[i][j]

    def add_col(self, i, j, f):
        for row in self.rows:
            v = row[j]
            if v:
                row[i] += f * v

    def col_block(self, i, j, t):
        (t00, t01), (t10, t11) = t
        for row in self.rows:
            x, y = row[i], row[j]
            row[i] = x * t00 + y * t10
            row[j] = x * t01 + y * t11

    def reduce_row(self, r):
        row = self.rows[r]
        d = row[r]
        for c in range(r):
            f = row[c] // d
            if f:
                self.add_col(c, r, -f)

    def transpose(self):
        self.rows = [list(col) for col in zip(*self.rows)]

    def block(self, top, bottom, left, right):
        return [row[left:right] for row in self.rows[top:bottom]]


@value_class
class IntegerRing(EuclideanRing):
    """The ring of integers."""

    # the rings write out __eq__ and __hash__, as every element hash calls
    # its ring's; the hash stays that of the field tuple, here ()
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return True
        return NotImplemented

    def __hash__(self):
        return hash(())

    def spec(self) -> str:
        return "Z"

    def _canonical(self, value):
        if isinstance(value, RingElement):
            self._check(value)
            return value.payload
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"integer payload expected, got {value!r}")
        return value

    def _zero(self):
        return 0

    def _one(self):
        return 1

    def _add(self, x, y):
        return x + y

    def _neg(self, x):
        return -x

    def _sub(self, x, y):
        return x - y

    def _mul(self, x, y):
        return x * y

    def _matmul(self, left, right):
        columns = list(zip(*right))
        return [[sum(map(operator.mul, row, col)) for col in columns] for row in left]

    def _tableau(self, grid):
        return RowTableau(grid)

    def _bareiss_rows(self, rows, k, prev):
        pivot, tail_k = rows[k][k], rows[k][k + 1 :]
        for row in rows[k + 1 :]:
            lead = row[k]
            row[k + 1 :] = [(pivot * x - lead * y) // prev for x, y in zip(row[k + 1 :], tail_k)]

    def _divides(self, x, y):
        if not x:
            return 0 if not y else None
        q, r = divmod(y, x)
        return None if r else q

    def _sort_key(self, x):
        return (abs(x), 0 if x >= 0 else 1)

    def _format(self, x):
        return _format_int(x)

    def _parse(self, text):
        return _parse_int(text)

    # rows through int() and str() in one C loop; a token int() refuses and
    # an int past the interpreter's digit limit take the per-entry path
    def _parse_row(self, tokens):
        try:
            return list(map(int, tokens))
        except ValueError:
            return super()._parse_row(tokens)

    def _format_row(self, payloads):
        try:
            return " ".join(map(str, payloads))
        except ValueError:
            return super()._format_row(payloads)

    def _is_unit(self, x):
        return x in (1, -1)

    def _is_normalized(self, x):
        return x >= 0

    def _divmod(self, x, d):
        return divmod(x, d)

    def _unit_inverse(self, u):
        return u

    def _normalizer(self, x):
        return -1 if x < 0 else None

    def _first_associate(self, x):
        return abs(x)

    def _quotient(self, m):
        return IntegerModRing(abs(m)) if m else self

    def _ext_gcd(self, x, y):
        # the extended Euclidean loop on native ints
        old_r, r = x, y
        old_s, s = 1, 0
        old_t, t = 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        if old_r < 0:
            return -old_r, -old_s, -old_t
        return old_r, old_s, old_t

    def _ideal_has_one(self, xs):
        return math.gcd(*xs) == 1 if xs else False

    def _enumerate_payloads(self):
        yield 0
        for k in itertools.count(1):
            yield k
            yield -k


# int()'s base-10 literal grammar, after stripping surrounding whitespace
_INT_LITERAL = re.compile(r"[+-]?\d+(?:_\d+)*")

# error messages quote at most this many characters of a rejected literal
_ECHO_LIMIT = 40


def _excerpt(text: str) -> str:
    """The literal quoted for an error message, cut to a fixed prefix when long."""
    if len(text) <= _ECHO_LIMIT:
        return repr(text)
    return f"{text[:_ECHO_LIMIT]!r}... ({len(text)} characters)"


def _parse_int(text: str) -> int:
    """The one integer-literal parser: int()'s base-10 grammar at any length."""
    text = text.strip()
    try:
        return int(text, 10)
    except ValueError:
        if not _INT_LITERAL.fullmatch(text):
            raise RingParseError(f"invalid integer literal {_excerpt(text)}") from None
    # a valid literal past the interpreter's int/str digit limit: split and
    # combine halves until int() takes them, where decimal.Decimal's
    # conversion would take time quadratic in the length
    digits = text.lstrip("+-").replace("_", "")
    k = len(digits) // 2
    value = _parse_int(digits[:-k]) * 10**k + _parse_int(digits[-k:])
    return -value if text[0] == "-" else value


# _format_int converts binary pieces of at most this many bits with Decimal(int)
_DECIMAL_LEAF_BITS = 128


def _format_int(x: int) -> str:
    """The one integer formatter: str(x) at any length."""
    try:
        return str(x)
    except ValueError:
        pass
    # past the interpreter's int/str digit limit, which decimal ignores: split
    # |x| in binary halves and combine lo + hi * 2^k in decimal, where
    # libmpdec multiplies in subquadratic time (the method of CPython 3.12's
    # _pylong.int_to_decimal_string); str(Decimal(x)) is quadratic.  decimal
    # is imported here, so a process that never formats a long int skips it.
    import decimal

    @cache
    def power(k):
        if k <= _DECIMAL_LEAF_BITS:
            return decimal.Decimal(1 << k)
        return power(k >> 1) * power(k - (k >> 1))

    def convert(n, bits):
        if bits <= _DECIMAL_LEAF_BITS:
            return decimal.Decimal(n)
        half = bits >> 1
        hi = n >> half
        return convert(n - (hi << half), half) + convert(hi, bits - half) * power(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        digits = str(convert(abs(x), abs(x).bit_length()))
    return "-" + digits if x < 0 else digits


# past this many bits a message names an int by a power of two, so an error
# message never pays for a long decimal conversion (845,099 digits take about
# 0.45 s in _format_int)
_FORMAT_BITS = 1 << 16


def _int_excerpt(n: int) -> str:
    """The nonnegative n for an error message: in decimal, cut to its first
    digits and their count when long, or a lower bound 2^k when huge."""
    if n.bit_length() > _FORMAT_BITS:
        return f"at least 2^{n.bit_length() - 1}"
    digits = _format_int(n)
    if len(digits) <= _ECHO_LIMIT:
        return digits
    return f"{digits[:_ECHO_LIMIT]}... ({len(digits)} digits)"


# ---------------------------------------------------------------------------
# Primality, for the characteristic of GF(p)[x]
# ---------------------------------------------------------------------------

# Miller-Rabin with the first 13 primes as bases is exact below psi_13, the
# least strong pseudoprime to all of them (Sorenson & Webster, Math. Comp.
# 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError at or above 3.3e24, where the
    base set no longer decides primality."""
    if n < 2:
        return False
    if n >= _PRIME_TEST_LIMIT:
        raise ValueError(f"primality is decided only below {_PRIME_TEST_LIMIT}")
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x != 1 and all(pow(x, 1 << k, n) != n - 1 for k in range(s)):
            return False
    return True


# ---------------------------------------------------------------------------
# Quotients of a Euclidean ring: Z/n and GF(p)[x]/(f)
# ---------------------------------------------------------------------------


@value_class
class EuclideanQuotientRing(Ring):
    """base/(m) for a nonzero m of a Euclidean ring, m stored canonical.

    Payloads are the base payloads reduced modulo m.  The ideals are the
    images of the divisors d of m, so x generates gcd(x, m): units,
    divisibility and gcd certificates come from the base ring's extended
    gcd, and each answer is the one that enumerating the ring in canonical
    order would find first.  Subclasses supply spec, cardinality and the
    enumeration.
    """

    base: EuclideanRing
    modulus: Any

    finite = True

    def __post_init__(self):
        m = self.base._canonical(self.modulus)
        if m == self.base._zero():
            raise ValueError(f"zero modulus in a quotient of {self.base.spec()}")
        norm = self.base._normalizer(m)
        _set_field(self, "modulus", m if norm is None else self.base._mul(norm, m))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.base, self.modulus) == (other.base, other.modulus)
        return NotImplemented

    # a ring's hash is part of every element hash, so it is computed once
    # and kept as an attribute with _set_field (which, unlike a write to
    # __dict__, keeps the attributes inline and their reads fast)
    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            _set_field(self, "_hash", hash((self.base, self.modulus)))
            return self._hash

    def _reduce(self, x):
        return self.base._divmod(x, self.modulus)[1]

    def _canonical(self, value):
        if isinstance(value, RingElement):
            self._check(value)
            return value.payload
        return self._reduce(self.base._canonical(value))

    def _zero(self):
        return self.base._zero()

    def _one(self):
        return self._reduce(self.base._one())

    def _add(self, x, y):
        return self._reduce(self.base._add(x, y))

    def _neg(self, x):
        return self._reduce(self.base._neg(x))

    def _mul(self, x, y):
        return self._reduce(self.base._mul(x, y))

    def _sort_key(self, x):
        return self.base._sort_key(x)

    def _format(self, x):
        return self.base._format(x)

    def _parse(self, text):
        return self._reduce(self.base._parse(text))

    def _ideal_has_one(self, xs):
        return self.base._ideal_has_one(xs + (self.modulus,))

    def _is_unit(self, x):
        return self.base._ideal_has_one((x, self.modulus))

    def _divides(self, x, y):
        # x*q = y mod m iff d = gcd(x, m) divides y; with x*s = d mod m the
        # solutions are s*(y/d) + (m/d)*k, least at the remainder mod m/d
        base, m = self.base, self.modulus
        d, s, _ = base._ext_gcd(x, m)
        t = base._divides(d, y)
        if t is None:
            return None
        return base._divmod(base._mul(s, t), base._divmod(m, d)[0])[1]

    def _bezout(self, x, y):
        # xR + yR is generated by h = gcd(x, y, m); g is its first associate.
        # x*u + y*v = g is solvable in v iff e = gcd(y, m) divides g - x*u,
        # i.e. u = s*(g/h) mod e/h with x*s = h mod e; then v, a1 and b1
        # are least quotients.
        base = self.base
        e = base._ext_gcd(y, self.modulus)[0]
        h, s, _ = base._ext_gcd(x, e)
        g = self._reduce(base._first_associate(h))
        u = base._divmod(base._mul(s, base._divmod(g, h)[0]), base._divmod(e, h)[0])[1]
        v = self._divides(y, self._sub(g, self._mul(x, u)))
        return g, u, v, self._divides(g, x), self._divides(g, y)

    def _quotient(self, x):
        # the least coset representatives are the payloads mod gcd(x, m)
        return self.base._quotient(self.base._ext_gcd(x, self.modulus)[0])

    # reduction mod m is a ring map, so it commutes with the matrix product
    # and the determinant
    def _matmul(self, left, right):
        return [list(map(self._reduce, row)) for row in self.base._matmul(left, right)]

    def _det(self, grid):
        return self._reduce(self.base._det(grid))


class IntegerModRing(EuclideanQuotientRing):
    """Residues modulo n, with canonical representatives in [0, n).

    n = 1 gives the one-element zero ring; it only ever arises as a
    quotient by a unit and is flagged via is_zero_ring.  Addition,
    negation and multiplication stay on native ints: going through
    IntegerRing doubled their cost on Z/97.
    """

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"modulus must be a positive integer, got {n!r}")
        super().__init__(IntegerRing(), n)

    @property
    def cardinality(self) -> int:
        return self.modulus

    def spec(self) -> str:
        return f"Z/{_format_int(self.modulus)}"

    def _add(self, x, y):
        return (x + y) % self.modulus

    def _neg(self, x):
        return -x % self.modulus

    def _mul(self, x, y):
        return (x * y) % self.modulus

    def _enumerate_payloads(self):
        return range(self.modulus)


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------


def _component(grid: list[list], c: int) -> list[list]:
    """The grid of component c of a product ring's payload grid."""
    return [[x[c] for x in row] for row in grid]


@value_class
class ProductRing(Ring):
    """Componentwise product of two rings; payloads are payload pairs."""

    left: Ring
    right: Ring

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented

    # computed once, as EuclideanQuotientRing's: otherwise every element hash
    # would walk the product's whole component tree
    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            _set_field(self, "_hash", hash((self.left, self.right)))
            return self._hash

    @property
    def finite(self) -> bool:
        return self.left.finite and self.right.finite

    @property
    def cardinality(self) -> int | None:
        if not self.finite:
            return None
        return self.left.cardinality * self.right.cardinality

    def spec(self) -> str:
        # products associate to the left, so a product on the right is grouped
        right = self.right.spec()
        if isinstance(self.right, ProductRing):
            right = f"({right})"
        return f"{self.left.spec()} x {right}"

    def _canonical(self, value):
        if isinstance(value, RingElement):
            self._check(value)
            return value.payload
        if isinstance(value, tuple) and len(value) == 2:
            return (self.left._canonical(value[0]), self.right._canonical(value[1]))
        raise TypeError(f"pair payload expected, got {value!r}")

    def _zero(self):
        return (self.left._zero(), self.right._zero())

    def _one(self):
        return (self.left._one(), self.right._one())

    def _add(self, x, y):
        return (self.left._add(x[0], y[0]), self.right._add(x[1], y[1]))

    def _neg(self, x):
        return (self.left._neg(x[0]), self.right._neg(x[1]))

    def _mul(self, x, y):
        return (self.left._mul(x[0], y[0]), self.right._mul(x[1], y[1]))

    def _sort_key(self, x):
        return (self.left._sort_key(x[0]), self.right._sort_key(x[1]))

    def _format(self, x):
        return f"({self.left._format(x[0])}|{self.right._format(x[1])})"

    def _parse(self, text):
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise RingParseError(f"product literal must be (a|b), got {_excerpt(text)}")
        inner = text[1:-1]
        depth = 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "|" and depth == 0:
                return (
                    self.left._parse(inner[:i]),
                    self.right._parse(inner[i + 1 :]),
                )
        raise RingParseError(f"missing component separator in {_excerpt(text)}")

    def _is_unit(self, x):
        return self.left._is_unit(x[0]) and self.right._is_unit(x[1])

    def _divides(self, x, y):
        ql = self.left._divides(x[0], y[0])
        qr = self.right._divides(x[1], y[1])
        if ql is None or qr is None:
            return None
        return (ql, qr)

    def _bezout(self, x, y):
        # the ideals are products of ideals and the order compares the left
        # component first, so the first answer is the pair of first answers
        if not self.finite:
            return super()._bezout(x, y)
        return tuple(zip(self.left._bezout(x[0], y[0]), self.right._bezout(x[1], y[1])))

    def _quotient(self, x):
        # least coset representatives are pairs of least representatives
        if not self.finite:
            return super()._quotient(x)
        return ProductRing(self.left._quotient(x[0]), self.right._quotient(x[1]))

    # the product and the determinant of pairs are pairs of the components'
    def _matmul(self, left, right):
        lefts = self.left._matmul(_component(left, 0), _component(right, 0))
        rights = self.right._matmul(_component(left, 1), _component(right, 1))
        return [list(zip(a, b)) for a, b in zip(lefts, rights)]

    def _det(self, grid):
        return (self.left._det(_component(grid, 0)), self.right._det(_component(grid, 1)))

    def _enumerate_payloads(self):
        # left-major, as the canonical order compares the left component
        # first.  Both components are read lazily, so the first pairs of a
        # product of 64 factors come at once and no _payloads is built; the
        # right payloads read in the first row are kept and replayed for the
        # other rows.  An infinite product is refused: the order would never
        # leave the first row of Z/2 x Z.
        if not self.finite:
            raise InfiniteRingError(f"{self.spec()} is infinite")
        lefts = iter(self.left._enumerate_payloads())
        x = next(lefts)
        rights = []
        for y in self.right._enumerate_payloads():
            rights.append(y)
            yield x, y
        for x in lefts:
            for y in rights:
                yield x, y

    def _ideal_has_one(self, xs):
        return self.left._ideal_has_one(
            tuple(x[0] for x in xs)
        ) and self.right._ideal_has_one(tuple(x[1] for x in xs))


# ---------------------------------------------------------------------------
# Bezout certificates
# ---------------------------------------------------------------------------


@value_class
class BezoutCertificate:
    """Witness that g generates aR + bR: a*u + b*v = g, a = g*a1, b = g*b1."""

    g: RingElement
    u: RingElement
    v: RingElement
    a1: RingElement
    b1: RingElement


def _generator(ring: Ring, payloads) -> Any:
    """A generator of the ideal the payloads generate, folded through _bezout:
    every ideal of the finite carriers is principal."""
    g = ring._zero()
    for x in payloads:
        g = ring._bezout(g, x)[0]
    return g


def bezout_gcd(ring: Ring, a: RingElement, b: RingElement) -> BezoutCertificate:
    """Gcd with cofactors: g, u, v, a1, b1 with a*u + b*v = g, a = g*a1, b = g*b1.

    Over Z the gcd is nonnegative; over GF(p)[x] it is monic or zero.  On
    finite rings g is the first generator of aR + bR in canonical order,
    solved from the base ring's extended gcd on Z/n and GF(p)[x]/(f) and
    componentwise on products.  Any other ring raises UnsupportedRingError
    rather than approximating a gcd.
    """
    ring._check(a)
    ring._check(b)
    return BezoutCertificate(*(RingElement(ring, e) for e in ring._bezout(a.payload, b.payload)))


# ---------------------------------------------------------------------------
# Quotients, radicals, annihilators
# ---------------------------------------------------------------------------


def quotient_ring(ring: Ring, c: RingElement) -> Ring:
    """The quotient ring/(c), the one public quotient constructor.

    Z/(c) is realized as Z/|c| (Z itself for c = 0); GF(p)[x]/(f) as the
    monic polynomial quotient (GF(p)[x] for f = 0); base/(m) by c as
    base/(gcd(c, m)); finite products componentwise.  Payloads are the least
    coset representatives, so q.element(a.payload) projects a.  Quotients
    by a unit give the flagged zero ring.
    """
    ring._check(c)
    return ring._quotient(c.payload)


@value_class
class JacobsonRadicalSet:
    """The Jacobson radical of a finite ring: all x with 1 - x*r a unit for every r."""

    ring: Ring
    members: frozenset


def jacobson_radical(ring: Ring) -> JacobsonRadicalSet:
    """J(R) of a finite ring, found as its nilpotent elements.

    A finite commutative ring is Artinian, so J(R) is the nilradical
    (Atiyah & Macdonald, Introduction to Commutative Algebra, Cor. 8.2).
    A nilpotent x of index k gives k strict inclusions
    R > xR > ... > x^k R = 0 (x^i R = x^(i+1) R would give
    x^i = x^(i+k) r^k = 0), each of index at least 2, so 2^k <= |R| and
    k < |R|.bit_length().  Squaring s = |R|.bit_length().bit_length()
    times reaches x^(2^s) with 2^s > k, which is 0 exactly when x is
    nilpotent.
    """
    if not ring.finite:
        raise InfiniteRingError(f"jacobson_radical needs a finite ring, not {ring.spec()}")
    zero = ring._zero()
    squarings = ring.cardinality.bit_length().bit_length()
    members = []
    for x in ring._payloads:
        y = x
        for _ in range(squarings):
            y = ring._mul(y, y)
        if y == zero:
            members.append(RingElement(ring, x))
    return JacobsonRadicalSet(ring, frozenset(members))


def annihilator(ring: Ring, a: RingElement) -> frozenset:
    """All x with a*x = 0 in a finite ring."""
    if not ring.finite:
        raise InfiniteRingError(f"annihilator needs a finite ring, not {ring.spec()}")
    ring._check(a)
    zero = ring._zero()
    return frozenset(
        RingElement(ring, x)
        for x in ring._payloads
        if ring._mul(a.payload, x) == zero
    )


# ---------------------------------------------------------------------------
# Ring literal parsing
# ---------------------------------------------------------------------------


def ring_parse(spec: str) -> Ring:
    """Parse a ring literal.

    Grammar: Z | Z/<n> | GF(<p>)[x] | GF(<p>)[x]/(<coeffs>) | <ring> x <ring>
    | (<ring>), with <coeffs> a comma-separated low-to-high coefficient list.
    Products associate to the left; parentheses group a product on the right.
    """
    return _parse_ring(spec, 0)


def _parse_ring(text: str, pos: int) -> Ring:
    """The ring literal text, which starts at position pos of the whole literal."""
    rings = []
    for part, offset in _product_factors(text, pos):
        stripped = part.strip()
        if stripped.startswith("(") and stripped.endswith(")"):
            lead = len(part) - len(part.lstrip())
            rings.append(_parse_ring(stripped[1:-1], pos + offset + lead + 1))
        else:
            rings.append(_parse_ring_atom(part, pos + offset))
    result = rings[0]
    for r in rings[1:]:
        result = ProductRing(result, r)
    return result


_PRODUCT_TOKENS = re.compile(r"[()]| x ")

# The most factors a ring literal may have, and the deepest its parentheses
# may nest.  ProductRing's methods (spec, hash, _parse, _mul, ...) recurse
# once per product level, at most three frames a level, and a literal of
# 64 factors nests at most 63 levels; _parse_ring recurses once per
# parenthesis.  Both stay far below CPython's default limit of 1000 frames.
_MAX_RING_NESTING = 64


def _product_factors(text: str, pos: int) -> list[tuple[str, int]]:
    """The factors of text split at each " x " outside parentheses, with
    their offsets, leftmost first.

    text starts at position pos of the whole literal.  All factors of text,
    nested ones included, and the depth of its parentheses count towards
    _MAX_RING_NESTING, so the scan of the whole literal enforces the cap.
    """
    parts = []
    depth = start = 0
    factors = 1
    for match in _PRODUCT_TOKENS.finditer(text):
        token = match.group()
        if token == "(":
            depth += 1
        elif token == ")":
            depth -= 1
        else:
            factors += 1
            if depth == 0:
                parts.append((text[start : match.start()], start))
                start = match.end()
        if max(depth, factors) > _MAX_RING_NESTING:
            raise RingParseError(
                f"more than {_MAX_RING_NESTING} factors or nested parentheses", pos + match.start()
            )
    parts.append((text[start:], start))
    return parts


def _parse_ring_atom(text: str, pos: int) -> Ring:
    stripped = text.strip()
    pos += len(text) - len(text.lstrip())
    if not stripped:
        raise RingParseError("empty ring literal", pos)
    if stripped == "Z":
        return IntegerRing()
    if stripped.startswith("Z/"):
        num = stripped[2:]
        if not num.isdigit():
            raise RingParseError(f"invalid modulus {_excerpt(num)}", pos + 2)
        n = _parse_int(num)
        if n < 2:
            raise RingParseError(f"modulus must be at least 2, got {n}", pos + 2)
        return IntegerModRing(n)
    if stripped.startswith("GF("):
        close = stripped.find(")")
        if close < 0:
            raise RingParseError("unterminated GF(", pos)
        num = stripped[3:close]
        if not num.isdigit():
            raise RingParseError(f"invalid characteristic {_excerpt(num)}", pos + 3)
        p = _parse_int(num)
        try:
            prime = is_prime(p)
        except ValueError as exc:
            raise RingParseError(str(exc), pos + 3) from None
        if not prime:
            raise RingParseError(f"{p} not prime", pos + 3)
        from .polynomials import PolynomialQuotientRing, PolynomialRing, _parse_poly

        tail = stripped[close + 1 :]
        if tail == "[x]":
            return PolynomialRing(p)
        if tail.startswith("[x]/(") and tail.endswith(")"):
            coeff_text = tail[5:-1]
            coeff_pos = pos + close + 6
            try:
                coeffs = _parse_poly(coeff_text, p)
            except RingParseError as exc:
                raise RingParseError(exc.message, coeff_pos) from None
            if not coeffs:
                raise RingParseError("zero modulus polynomial", coeff_pos)
            if len(coeffs) == 1:
                # a constant is a unit: the zero ring has no literal
                raise RingParseError("modulus polynomial must have positive degree", coeff_pos)
            return PolynomialQuotientRing(p, coeffs)
        raise RingParseError(f"invalid ring literal {_excerpt(stripped)}", pos)
    raise RingParseError(f"invalid ring literal {_excerpt(stripped)}", pos)
