"""Computable commutative rings with exact, certified arithmetic.

Supported carriers: the integers Z, residue rings Z/n, polynomial rings
GF(p)[x], their quotients GF(p)[x]/(f), quotients of finite rings by a
principal ideal (built by coset enumeration), and finite products.

Z and GF(p)[x] subclass EuclideanRing, which supplies division with
remainder, the extended gcd, unit inverses and canonical associates
(nonnegative, or monic); the rest of the package reduces matrices and
certifies gcds through it, never through either carrier's payload format.
Z/n and GF(p)[x]/(f) subclass EuclideanQuotientRing, which derives units,
divisibility and gcd certificates from the base ring's extended gcd, so
none of them enumerates the ring; a product takes them componentwise.

GF(p)[x] multiplies by Kronecker substitution once the shorter operand has
_KRONECKER_MIN_LEN coefficients: the coefficients are packed into slots of
one integer per operand, and one integer product is unpacked and reduced
modulo p.  Shorter operands, and pairs whose slots would need more than 8
bytes (p above about 2^32), take the schoolbook loop.

Elements are immutable and kept in canonical form, so structural equality
coincides with ring equality.  All operations are pure; rings and elements
are safe to share across threads.
"""

from __future__ import annotations

import decimal
import itertools
import math
import re
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterator


class RingParseError(ValueError):
    """Malformed ring or element literal; carries the offending position."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class RingMismatchError(ValueError):
    """Operands belong to different rings."""


class UnsupportedRingError(ValueError):
    """The operation is not available on this ring kind."""


class InfiniteRingError(ValueError):
    """A finite ring is required."""


@dataclass(frozen=True)
class RingElement:
    """An element of a ring, stored as a canonical payload.

    Payloads are ints (Z, Z/n), coefficient tuples low-to-high with the
    leading zero trimmed (polynomials), or pairs of payloads (products).
    """

    ring: "Ring"
    payload: Any

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
        """Ring literal in the grammar accepted by ring_parse."""

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
    def _sort_key(self, x: Any):
        """Total order key; fixes enumeration order and canonical choices."""

    @abstractmethod
    def _format(self, x: Any) -> str: ...

    @abstractmethod
    def _parse(self, text: str) -> Any: ...

    @abstractmethod
    def _ideal_has_one(self, xs: tuple) -> bool:
        """Whether the ideal generated by the payloads is the whole ring."""

    def _is_unit(self, x: Any) -> bool:
        """This default searches a finite ring for an inverse."""
        return self._divides(x, self._one()) is not None

    # -- finite enumeration (cached) -----------------------------------

    @cached_property
    def _payloads(self) -> tuple:
        if not self.finite:
            raise InfiniteRingError(f"{self.spec()} is infinite")
        return tuple(sorted(self._all_payloads(), key=self._sort_key))

    def _all_payloads(self) -> Iterator[Any]:
        raise InfiniteRingError(f"{self.spec()} is infinite")

    @cached_property
    def _unit_set(self) -> frozenset:
        """The units of a finite ring, each tested by _is_unit."""
        return frozenset(x for x in self._payloads if self._is_unit(x))

    @cached_property
    def _idempotents(self) -> tuple:
        return tuple(x for x in self._payloads if self._mul(x, x) == x)

    @cached_property
    def _memo(self) -> dict:
        """Memo that dies with the ring: principal ideals keyed by generator
        payload, the exhaustive helpers' tables keyed by helper function."""
        return {}

    def _principal(self, x: Any) -> frozenset:
        """The principal ideal xR as a payload set (finite rings)."""
        memo = self._memo
        got = memo.get(x)
        if got is None:
            got = frozenset(self._mul(x, r) for r in self._payloads)
            memo[x] = got
        return got

    def _enumerate_payloads(self) -> Iterator[Any]:
        """All payloads in canonical order; infinite rings yield forever."""
        return iter(self._payloads)

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
        if a.ring != self:
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

    def _divides(self, x: Any, y: Any) -> Any | None:
        for q in self._payloads:
            if self._mul(x, q) == y:
                return q
        return None

    def _bezout(self, x: Any, y: Any) -> tuple:
        """Payloads (g, u, v, a1, b1) of bezout_gcd; this default enumerates a
        finite ring for the first generator g of xR + yR in canonical order,
        the first pair (u, v) reaching it and the least quotients a1, b1."""
        if not self.finite:
            raise UnsupportedRingError(
                f"bezout_gcd needs Z, GF(p)[x], or a finite ring, not {self.spec()}"
            )
        reach: dict = {}
        for u in self._payloads:
            for v in self._payloads:
                reach.setdefault(self._add(self._mul(x, u), self._mul(y, v)), (u, v))
        span = frozenset(reach)
        g = next((c for c in self._payloads if self._principal(c) == span), None)
        if g is None:
            raise UnsupportedRingError(
                f"aR + bR is not principal in {self.spec()}; cannot certify a gcd"
            )
        u, v = reach[g]
        return g, u, v, self._divides(g, x), self._divides(g, y)

    def _quotient(self, x: Any) -> "Ring":
        """The ring R/(x); this default enumerates the cosets of a finite ring."""
        return QuotientRing(self, RingElement(self, x))

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

    def _ext_gcd(self, x: Any, y: Any) -> tuple[Any, Any, Any]:
        """(g, u, v) with x*u + y*v = g and g canonical (zero when x = y = 0)."""
        zero = self._zero()
        old_r, r = x, y
        old_s, s = self._one(), zero
        old_t, t = zero, self._one()
        while r != zero:
            q, rem = self._divmod(old_r, r)
            old_r, r = r, rem
            old_s, s = s, self._sub(old_s, self._mul(q, s))
            old_t, t = t, self._sub(old_t, self._mul(q, t))
        norm = self._normalizer(old_r)
        if norm is None:
            return old_r, old_s, old_t
        return self._mul(norm, old_r), self._mul(norm, old_s), self._mul(norm, old_t)

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


# ---------------------------------------------------------------------------
# Integers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegerRing(EuclideanRing):
    """The ring of integers."""

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

    def _mul(self, x, y):
        return x * y

    def _sort_key(self, x):
        return (abs(x), 0 if x >= 0 else 1)

    def _format(self, x):
        return _format_int(x)

    def _parse(self, text):
        return _parse_int(text)

    def _is_unit(self, x):
        return x in (1, -1)

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
        # EuclideanRing's loop on native ints: 2-3x faster on 200-bit operands
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
    # a valid literal past the interpreter's int/str digit limit
    return int(decimal.Decimal(text))


def _format_int(x: int) -> str:
    try:
        return str(x)
    except ValueError:
        # past the interpreter's int/str digit limit, which decimal ignores
        return str(decimal.Decimal(x))


# past this many bits a message names an int by a power of two: decimal
# conversion takes time quadratic in the length (845,099 digits took 15.8 s)
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
# Polynomials over GF(p): payloads are trimmed low-to-high coefficient tuples
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
# 1, 2, 4 or 8 bytes wide, the unsigned widths struct packs; an operand pair
# that needs a wider slot (p above about 2^32) takes the schoolbook loop.
_SLOT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}

# Shorter operands take the schoolbook loop: 6 is the least length at which
# packing won at every slot width.  Packed over schoolbook time per call
# (Python 3.11, 2-vCPU x86 VM, min of 11 interleaved runs of 3000 calls, two
# runs, equal lengths, p = 5, 31, 251, 65537 for slots of 1, 2, 4, 8 bytes):
# length 2 x1.48-2.61, 3 x1.15-2.20, 4 x0.82-1.70, 5 x0.68-1.22,
# 6 x0.70-0.94, 8 x0.41-0.63.
_KRONECKER_MIN_LEN = 6


def _pack(coeffs: tuple, code: str) -> int:
    """The integer whose little-endian slots of struct code hold coeffs."""
    data = bytes(coeffs) if code == "B" else struct.pack(f"<{len(coeffs)}{code}", *coeffs)
    return int.from_bytes(data, "little")


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


@dataclass(frozen=True)
class PolynomialRing(EuclideanRing):
    """GF(p)[x], a Euclidean (hence Bezout) domain."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} not prime")

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
        code = None
        if len(x) >= _KRONECKER_MIN_LEN:
            needed = (((p - 1) ** 2 * len(x)).bit_length() + 7) // 8
            width = 1 << (needed - 1).bit_length()
            code = _SLOT_CODES.get(width)
        if code is None:
            out = [0] * n
            for i, a in enumerate(x):
                if a:
                    for j, b in enumerate(y, i):
                        out[j] = (out[j] + a * b) % p
            return tuple(out)
        data = (_pack(x, code) * _pack(y, code)).to_bytes(n * width, "little")
        slots = data if code == "B" else struct.unpack(f"<{n}{code}", data)
        return tuple([c % p for c in slots])

    def _sort_key(self, x):
        return (len(x), x)

    def _format(self, x):
        return ",".join(str(c) for c in x) if x else "0"

    def _parse(self, text):
        return _parse_poly(text, self.p)

    def _is_unit(self, x):
        return len(x) == 1

    def _divmod(self, x, d):
        if not d:
            raise ZeroDivisionError("polynomial division by zero")
        p, top = self.p, len(d) - 1
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


# ---------------------------------------------------------------------------
# Quotients of a Euclidean ring: Z/n and GF(p)[x]/(f)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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
        object.__setattr__(self, "modulus", m if norm is None else self.base._mul(norm, m))

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

    def _all_payloads(self):
        return range(self.modulus)


class PolynomialQuotientRing(EuclideanQuotientRing):
    """GF(p)[x]/(f) for a nonzero f, stored monic; finite with p^deg(f) elements."""

    def __init__(self, p: int, modulus):
        super().__init__(PolynomialRing(p), modulus)

    @property
    def cardinality(self) -> int:
        return self.base.p ** (len(self.modulus) - 1)

    def spec(self) -> str:
        return f"GF({self.base.p})[x]/({self.base._format(self.modulus)})"

    def _all_payloads(self):
        return itertools.islice(_poly_payloads(self.base.p), self.cardinality)


# ---------------------------------------------------------------------------
# Quotient of a finite ring by a principal ideal (coset enumeration)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientRing(Ring):
    """base/(modulus) realized by coset enumeration over a finite base.

    Payloads are the canonically least representatives of the cosets.
    """

    base: Ring
    modulus: RingElement

    def __post_init__(self):
        if not self.base.finite:
            raise UnsupportedRingError(
                "coset-enumeration quotients need a finite base ring"
            )
        self.base._check(self.modulus)

    @property
    def finite(self) -> bool:
        return True

    @property
    def _ideal(self) -> frozenset:
        return self.base._principal(self.modulus.payload)

    @cached_property
    def _rep_map(self) -> dict:
        reps: dict = {}
        for x in self.base._payloads:  # canonical order: first hit is least
            if x in reps:
                continue
            for i in self._ideal:
                reps[self.base._add(x, i)] = x
        return reps

    @property
    def cardinality(self) -> int:
        return len(self.base._payloads) // len(self._ideal)

    def spec(self) -> str:
        return f"{self.base.spec()}/({self.base._format(self.modulus.payload)})"

    def _canonical(self, value):
        if isinstance(value, RingElement) and value.ring == self:
            return value.payload
        if isinstance(value, RingElement) and value.ring == self.base:
            return self._rep_map[value.payload]
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

    def project(self, a: RingElement) -> RingElement:
        """Image of a base-ring element under the quotient map."""
        self.base._check(a)
        return RingElement(self, self._rep_map[a.payload])


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductRing(Ring):
    """Componentwise product of two rings; payloads are payload pairs."""

    left: Ring
    right: Ring

    @property
    def finite(self) -> bool:
        return self.left.finite and self.right.finite

    @property
    def cardinality(self) -> int | None:
        if not self.finite:
            return None
        return self.left.cardinality * self.right.cardinality

    def spec(self) -> str:
        return f"{self.left.spec()} x {self.right.spec()}"

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

    def _all_payloads(self):
        return itertools.product(self.left._payloads, self.right._payloads)

    def _ideal_has_one(self, xs):
        return self.left._ideal_has_one(
            tuple(x[0] for x in xs)
        ) and self.right._ideal_has_one(tuple(x[1] for x in xs))


# ---------------------------------------------------------------------------
# Bezout certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BezoutCertificate:
    """Witness that g generates aR + bR: a*u + b*v = g, a = g*a1, b = g*b1."""

    g: RingElement
    u: RingElement
    v: RingElement
    a1: RingElement
    b1: RingElement


def ideal_span(ring: Ring, payloads: tuple) -> frozenset:
    """The ideal generated by the payloads in a finite ring, as a payload set."""
    if not ring.finite:
        raise InfiniteRingError(f"{ring.spec()} is infinite")
    span = {ring._zero()}
    for g in payloads:
        step = set()
        for s in span:
            for r in ring._payloads:
                step.add(ring._add(s, ring._mul(g, r)))
        span = step
    return frozenset(span)


def bezout_gcd(ring: Ring, a: RingElement, b: RingElement) -> BezoutCertificate:
    """Gcd with cofactors: g, u, v, a1, b1 with a*u + b*v = g, a = g*a1, b = g*b1.

    Over Z the gcd is nonnegative; over GF(p)[x] it is monic or zero.  On
    finite rings g is the first generator of aR + bR in canonical order,
    solved from the base ring's extended gcd on Z/n and GF(p)[x]/(f),
    componentwise on products and searched for elsewhere; if none exists
    the ring is not a Bezout carrier and the failure is reported rather
    than approximated.
    """
    ring._check(a)
    ring._check(b)
    return BezoutCertificate(*(RingElement(ring, e) for e in ring._bezout(a.payload, b.payload)))


# ---------------------------------------------------------------------------
# Quotients, radicals, annihilators
# ---------------------------------------------------------------------------


def quotient_ring(ring: Ring, c: RingElement) -> Ring:
    """The quotient ring/(c).

    Z/(c) is realized as Z/|c| (Z itself for c = 0); GF(p)[x]/(f) as the
    monic polynomial quotient (GF(p)[x] for f = 0); finite rings by coset
    enumeration.  Quotients by a unit give the flagged zero ring.
    """
    ring._check(c)
    return ring._quotient(c.payload)


@dataclass(frozen=True)
class JacobsonRadicalSet:
    """The Jacobson radical of a finite ring: all x with 1 - x*r a unit for every r."""

    ring: Ring
    members: frozenset


def jacobson_radical(ring: Ring) -> JacobsonRadicalSet:
    if not ring.finite:
        raise InfiniteRingError(f"jacobson_radical needs a finite ring, not {ring.spec()}")
    one = ring._one()
    units = ring._unit_set
    members = frozenset(
        x
        for x in ring._payloads
        if all(ring._sub(one, ring._mul(x, r)) in units for r in ring._payloads)
    )
    return JacobsonRadicalSet(ring, frozenset(RingElement(ring, x) for x in members))


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

    Grammar: Z | Z/<n> | GF(<p>)[x] | GF(<p>)[x]/(<coeffs>) | <ring> x <ring>,
    with <coeffs> a comma-separated low-to-high coefficient list.  Products
    associate to the left.
    """
    parts: list[tuple[str, int]] = []
    offset = 0
    rest = spec
    while True:
        idx = rest.find(" x ")
        if idx < 0:
            parts.append((rest, offset))
            break
        parts.append((rest[:idx], offset))
        offset += idx + 3
        rest = rest[idx + 3 :]
    rings = [_parse_ring_atom(text, pos) for text, pos in parts]
    result = rings[0]
    for r in rings[1:]:
        result = ProductRing(result, r)
    return result


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
        tail = stripped[close + 1 :]
        if tail == "[x]":
            return PolynomialRing(p)
        if tail.startswith("[x]/(") and tail.endswith(")"):
            coeff_text = tail[5:-1]
            coeff_pos = pos + close + 6
            try:
                coeffs = _parse_poly(coeff_text, p)
            except RingParseError as exc:
                raise RingParseError(str(exc), coeff_pos) from None
            if not coeffs:
                raise RingParseError("zero modulus polynomial", coeff_pos)
            return PolynomialQuotientRing(p, coeffs)
        raise RingParseError(f"invalid ring literal {_excerpt(stripped)}", pos)
    raise RingParseError(f"invalid ring literal {_excerpt(stripped)}", pos)
