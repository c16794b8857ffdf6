"""Computable commutative rings with exact, certified arithmetic.

Supported carriers: the integers Z, residue rings Z/n, polynomial rings
GF(p)[x], their quotients GF(p)[x]/(f), quotients of finite rings by a
principal ideal (built by coset enumeration), and finite products.

Z and GF(p)[x] subclass EuclideanRing, which supplies division with
remainder, the extended gcd, unit inverses and canonical associates
(nonnegative, or monic); the rest of the package reduces matrices and
certifies gcds through it, never through either carrier's payload format.

Elements are immutable and kept in canonical form, so structural equality
coincides with ring equality.  All operations are pure; rings and elements
are safe to share across threads.
"""

from __future__ import annotations

import decimal
import itertools
import math
import re
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
        if not self.finite:
            raise InfiniteRingError(f"unit test needs an override on {self.spec()}")
        return x in self._unit_set

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
        """Units found by exhaustive inverse search."""
        elems = self._payloads
        units = set()
        one = self._one()
        for x in elems:
            for y in elems:
                if self._mul(x, y) == one:
                    units.add(x)
                    break
        return frozenset(units)

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
        try:
            return str(x)
        except ValueError:
            # past the interpreter's int/str digit limit, which decimal ignores
            return str(decimal.Decimal(x))

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


def _parse_int(text: str) -> int:
    text = text.strip()
    try:
        return int(text, 10)
    except ValueError:
        if not _INT_LITERAL.fullmatch(text):
            raise RingParseError(f"invalid integer literal {text!r}") from None
    # a valid literal past the interpreter's int/str digit limit
    return int(decimal.Decimal(text))


# ---------------------------------------------------------------------------
# Z/n
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegerModRing(Ring):
    """Residues modulo n, with canonical representatives in [0, n).

    n = 1 gives the one-element zero ring; it only ever arises as a
    quotient by a unit and is flagged via is_zero_ring.
    """

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"modulus must be a positive integer, got {self.n!r}")

    @property
    def finite(self) -> bool:
        return True

    @property
    def cardinality(self) -> int:
        return self.n

    def spec(self) -> str:
        return f"Z/{self.n}"

    def _canonical(self, value):
        if isinstance(value, RingElement):
            self._check(value)
            return value.payload
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"integer payload expected, got {value!r}")
        return value % self.n

    def _zero(self):
        return 0

    def _one(self):
        return 1 % self.n

    def _add(self, x, y):
        return (x + y) % self.n

    def _neg(self, x):
        return -x % self.n

    def _mul(self, x, y):
        return (x * y) % self.n

    def _sort_key(self, x):
        return x

    def _format(self, x):
        return str(x)

    def _parse(self, text):
        return _parse_int(text) % self.n

    def _all_payloads(self):
        return range(self.n)

    def _ideal_has_one(self, xs):
        return math.gcd(self.n, *xs) == 1


# ---------------------------------------------------------------------------
# Polynomials over GF(p): payloads are trimmed low-to-high coefficient tuples
# ---------------------------------------------------------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _poly_trim(coeffs) -> tuple:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _poly_add(f, g, p):
    n = max(len(f), len(g))
    return _poly_trim(
        ((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)) % p
        for i in range(n)
    )


def _poly_neg(f, p):
    return tuple(-c % p for c in f)


def _poly_mul(f, g, p):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _poly_trim(out)


def _poly_divmod(f, g, p):
    """Quotient and remainder of f by nonzero g over GF(p)."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    if len(f) < len(g):
        return (), tuple(f)
    inv_lead = pow(g[-1], -1, p)
    quot = [0] * (len(f) - len(g) + 1)
    for k in range(len(quot) - 1, -1, -1):
        coef = (rem[k + len(g) - 1] * inv_lead) % p
        quot[k] = coef
        if coef:
            for j, b in enumerate(g):
                rem[k + j] = (rem[k + j] - coef * b) % p
    return _poly_trim(quot), _poly_trim(rem)


def _poly_monic(f, p):
    """Monic associate of f and the leading coefficient that was divided out."""
    if not f:
        return (), 1
    lc = f[-1]
    if lc == 1:
        return tuple(f), 1
    inv = pow(lc, -1, p)
    return tuple(c * inv % p for c in f), lc


def _poly_payloads(p: int) -> Iterator[tuple]:
    """Every GF(p)[x] payload: by degree, then by coefficients low to high."""
    yield ()
    for length in itertools.count(1):
        for low in itertools.product(range(p), repeat=length - 1):
            for lead in range(1, p):
                yield low + (lead,)


def _poly_gcd(f, g, p):
    a, b = tuple(f), tuple(g)
    while b:
        _, r = _poly_divmod(a, b, p)
        a, b = b, r
    return _poly_monic(a, p)[0]


def _poly_key(x):
    return (len(x), x)


def _parse_poly(text: str, p: int) -> tuple:
    parts = text.strip().split(",")
    coeffs = []
    for part in parts:
        part = part.strip()
        if not part:
            raise RingParseError(f"empty coefficient in {text!r}")
        try:
            coeffs.append(int(part, 10) % p)
        except ValueError:
            raise RingParseError(f"invalid coefficient {part!r}") from None
    return _poly_trim(coeffs)


def _format_poly(x: tuple) -> str:
    return ",".join(str(c) for c in x) if x else "0"


class _PolynomialPayloads:
    """Shared payload arithmetic for GF(p)[x] and its quotients."""

    p: int

    def _coerce_poly(self, value):
        if isinstance(value, RingElement):
            self._check(value)  # type: ignore[attr-defined]
            return value.payload
        if isinstance(value, int) and not isinstance(value, bool):
            return _poly_trim((value % self.p,))
        if isinstance(value, (tuple, list)):
            return _poly_trim(c % self.p for c in value)
        raise TypeError(f"polynomial payload expected, got {value!r}")

    def _zero(self):
        return ()

    def _one(self):
        return (1,) if self.p > 1 else ()

    def _sort_key(self, x):
        return _poly_key(x)

    def _format(self, x):
        return _format_poly(x)


@dataclass(frozen=True)
class PolynomialRing(_PolynomialPayloads, EuclideanRing):
    """GF(p)[x], a Euclidean (hence Bezout) domain."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} not prime")

    def spec(self) -> str:
        return f"GF({self.p})[x]"

    def _canonical(self, value):
        return self._coerce_poly(value)

    def _add(self, x, y):
        return _poly_add(x, y, self.p)

    def _neg(self, x):
        return _poly_neg(x, self.p)

    def _mul(self, x, y):
        return _poly_mul(x, y, self.p)

    def _parse(self, text):
        return _parse_poly(text, self.p)

    def _is_unit(self, x):
        return len(x) == 1

    def _divmod(self, x, d):
        return _poly_divmod(x, d, self.p)

    def _unit_inverse(self, u):
        return (pow(u[0], -1, self.p),)

    def _normalizer(self, x):
        return self._unit_inverse((x[-1],)) if x and x[-1] != 1 else None

    def _ideal_has_one(self, xs):
        g = ()
        for x in xs:
            g = _poly_gcd(g, x, self.p)
        return len(g) == 1

    def _enumerate_payloads(self):
        return _poly_payloads(self.p)


@dataclass(frozen=True)
class PolynomialQuotientRing(_PolynomialPayloads, Ring):
    """GF(p)[x]/(f) for a nonzero f, stored monic; finite with p^deg(f) elements."""

    p: int
    modulus: tuple

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} not prime")
        mod = _poly_trim(c % self.p for c in self.modulus)
        if not mod:
            raise ValueError("zero modulus polynomial")
        object.__setattr__(self, "modulus", _poly_monic(mod, self.p)[0])

    @property
    def finite(self) -> bool:
        return True

    @property
    def cardinality(self) -> int:
        return self.p ** (len(self.modulus) - 1)

    def spec(self) -> str:
        return f"GF({self.p})[x]/({_format_poly(self.modulus)})"

    def _reduce(self, x):
        if len(self.modulus) == 1:
            return ()
        if len(x) < len(self.modulus):
            return x
        return _poly_divmod(x, self.modulus, self.p)[1]

    def _canonical(self, value):
        return self._reduce(self._coerce_poly(value))

    def _one(self):
        return self._reduce((1,))

    def _add(self, x, y):
        return self._reduce(_poly_add(x, y, self.p))

    def _neg(self, x):
        return _poly_neg(x, self.p)

    def _mul(self, x, y):
        return self._reduce(_poly_mul(x, y, self.p))

    def _parse(self, text):
        return self._reduce(_parse_poly(text, self.p))

    def _all_payloads(self):
        return itertools.islice(_poly_payloads(self.p), self.cardinality)

    def _ideal_has_one(self, xs):
        g = self.modulus
        for x in xs:
            g = _poly_gcd(g, x, self.p)
        return len(g) == 1


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
            raise RingParseError(f"product literal must be (a|b), got {text!r}")
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
        raise RingParseError(f"missing component separator in {text!r}")

    def _is_unit(self, x):
        return self.left._is_unit(x[0]) and self.right._is_unit(x[1])

    def _divides(self, x, y):
        ql = self.left._divides(x[0], y[0])
        qr = self.right._divides(x[1], y[1])
        if ql is None or qr is None:
            return None
        return (ql, qr)

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
    finite rings the ideal aR + bR is enumerated and a principal generator
    is searched for; if none exists the ring is not a Bezout carrier and
    the failure is reported rather than approximated.
    """
    ring._check(a)
    ring._check(b)
    x, y = a.payload, b.payload
    if isinstance(ring, EuclideanRing):
        zero = ring._zero()
        if x == zero and y == zero:
            return BezoutCertificate(*(ring.zero,) * 5)
        g, u, v = ring._ext_gcd(x, y)
        a1, b1 = ring._divmod(x, g)[0], ring._divmod(y, g)[0]
    elif ring.finite:
        # first (u, v) in canonical order reaching each element of aR + bR
        reach: dict = {}
        for u in ring._payloads:
            for v in ring._payloads:
                reach.setdefault(ring._add(ring._mul(x, u), ring._mul(y, v)), (u, v))
        span = frozenset(reach)
        g = next((c for c in ring._payloads if ring._principal(c) == span), None)
        if g is None:
            raise UnsupportedRingError(
                f"aR + bR is not principal in {ring.spec()}; cannot certify a gcd"
            )
        u, v = reach[g]
        a1, b1 = ring._divides(g, x), ring._divides(g, y)
    else:
        raise UnsupportedRingError(
            f"bezout_gcd needs Z, GF(p)[x], or a finite ring, not {ring.spec()}"
        )
    return BezoutCertificate(*(RingElement(ring, e) for e in (g, u, v, a1, b1)))


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
    if isinstance(ring, EuclideanRing) and c.payload == ring._zero():
        return ring
    if isinstance(ring, IntegerRing):
        return IntegerModRing(abs(c.payload))
    if isinstance(ring, PolynomialRing):
        return PolynomialQuotientRing(ring.p, c.payload)
    if ring.finite:
        return QuotientRing(ring, c)
    raise UnsupportedRingError(f"cannot form a computable quotient of {ring.spec()}")


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
            raise RingParseError(f"invalid modulus {num!r}", pos + 2)
        n = int(num)
        if n < 2:
            raise RingParseError(f"modulus must be at least 2, got {n}", pos + 2)
        return IntegerModRing(n)
    if stripped.startswith("GF("):
        close = stripped.find(")")
        if close < 0:
            raise RingParseError("unterminated GF(", pos)
        num = stripped[3:close]
        if not num.isdigit():
            raise RingParseError(f"invalid characteristic {num!r}", pos + 3)
        p = int(num)
        if not is_prime(p):
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
        raise RingParseError(f"invalid ring literal {stripped!r}", pos)
    raise RingParseError(f"invalid ring literal {stripped!r}", pos)
