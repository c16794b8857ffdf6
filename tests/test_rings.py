import decimal
import itertools
import math
import operator
import random
import sys
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from edrkit import (
    EuclideanQuotientRing,
    InfiniteRingError,
    IntegerModRing,
    IntegerRing,
    Matrix,
    PolynomialQuotientRing,
    PolynomialRing,
    ProductRing,
    ReductionCertificate,
    RingElement,
    RingMismatchError,
    RingParseError,
    UnsupportedRingError,
    annihilator,
    bezout_gcd,
    check_certificate,
    is_comaximal,
    jacobson_radical,
    quotient_ring,
    ring_parse,
)
from edrkit.finite_lab import CHECKERS
from edrkit.polynomials import _SLOT_CODES, _residues, _slot
from edrkit.rings import _format_int, _parse_int, is_prime

from oracles import (
    CosetQuotientRing,
    LocalNonPrincipalRing,
    LoopTableau,
    brute_bezout,
    brute_divides,
    brute_unit_set,
    definition_jacobson_radical,
    loop_ext_gcd,
    loop_matmul,
    matmul,
    p_add,
    p_divmod,
    p_gcd,
    p_mul,
    p_neg,
    p_trim,
    squarefree_kernel,
    trial_division_is_prime,
)

Z = IntegerRing()


def sample_rings():
    return [
        IntegerModRing(12),
        IntegerModRing(7),
        IntegerModRing(16),
        ProductRing(IntegerModRing(4), IntegerModRing(9)),
        PolynomialQuotientRing(2, (0, 0, 1)),
        PolynomialQuotientRing(2, (1, 1, 1)),
        CosetQuotientRing(IntegerModRing(12), IntegerModRing(12).element(4)),
    ]


# -- parsing -----------------------------------------------------------------


def test_parse_examples():
    r = ring_parse("Z/12")
    assert isinstance(r, IntegerModRing) and r.finite and r.cardinality == 12
    prod = ring_parse("Z/4 x Z/9")
    assert isinstance(prod, ProductRing) and prod.cardinality == 36
    with pytest.raises(RingParseError, match="not prime"):
        ring_parse("GF(4)[x]")


def test_parse_round_trips():
    for spec in ["Z", "Z/12", "GF(5)[x]", "GF(2)[x]/(1,1,1)", "Z/4 x Z/9", "Z/2 x Z/2 x Z/3"]:
        assert ring_parse(spec).spec() == spec


def test_parse_rejects_bad_literals():
    for bad in [
        "", "Z/", "Z/1", "Z/0", "Q", "GF(6)[x]", "GF(2)[x]/(0)", "GF(2)[x]/(0,0)", "Z//3",
        "GF(2)[x]/(1)", "GF(5)[x]/(3)",
    ]:
        with pytest.raises(RingParseError):
            ring_parse(bad)


def test_parse_error_carries_position():
    with pytest.raises(RingParseError) as err:
        ring_parse("Z/4 x GF(9)[x]")
    assert err.value.position == 9
    assert err.value.message == "9 not prime"


def test_ring_literals_are_capped_at_64_factors_and_64_parentheses():
    assert ring_parse(" x ".join(["Z/2"] * 64)).cardinality == 2**64
    assert ring_parse("(" * 64 + "Z/2" + ")" * 64) == IntegerModRing(2)
    # the error points at the separator that opens factor 65 (6*64 - 3 on a
    # left chain, 7*63 + 3 on a right chain) or at the 65th "("
    for literal, position in [
        (" x ".join(["Z/2"] * 65), 381),
        ("(" * 65 + "Z/2" + ")" * 65, 64),
        ("Z/2 x (" * 64 + "Z/2" + ")" * 64, 444),
    ]:
        with pytest.raises(RingParseError) as err:
            ring_parse(literal)
        assert err.value.message == "more than 64 factors or nested parentheses"
        assert err.value.position == position


def test_element_literal_round_trips():
    cases = [
        (Z, "-17"),
        (IntegerModRing(12), "7"),
        (PolynomialRing(5), "1,0,3"),
        (PolynomialRing(5), "0"),
        (ring_parse("Z/4 x Z/9"), "(3|7)"),
        (ring_parse("Z/2 x Z/2 x Z/3"), "((1|0)|2)"),
    ]
    for ring, text in cases:
        elem = ring.parse_element(text)
        assert ring.format_element(elem) == text


def test_element_parse_canonicalizes():
    r = IntegerModRing(12)
    assert r.parse_element("-5").payload == 7
    g = PolynomialRing(5)
    assert g.parse_element("-1,6").payload == (4, 1)


def test_integer_literals_past_the_int_str_digit_limit(default_int_str_limit):
    value = -(10**4999 + 123456789)  # 5000 digits
    text = Z.format_element(Z.element(value))
    assert len(text) == 5001 and text.startswith("-1000") and text.endswith("0123456789")
    assert Z.parse_element(text).payload == value
    assert Z.parse_element(" +1" + "_0" * 5000 + " ").payload == 10**5000
    for bad in ("1" * 5000 + "x", "1" * 5000 + "_", "-" + "1__0" * 1250, "1" * 5000 + ".0"):
        with pytest.raises(RingParseError, match="invalid integer literal"):
            Z.parse_element(bad)


@pytest.mark.parametrize("length", [5000, 200_000])
def test_long_integer_literals_split_and_combine(length, default_int_str_limit):
    # decimal.Decimal's quadratic conversion is the reference
    rng = random.Random(length)
    digits = str(rng.randrange(1, 10)) + "".join(rng.choices("0123456789", k=length - 1))
    grouped = "_".join(digits[i : i + 3] for i in range(0, length, 3))
    value = int(decimal.Decimal("-" + grouped))
    assert _parse_int(" -" + grouped) == value
    assert _parse_int("+" + grouped) == _parse_int(grouped) == -value
    assert _format_int(value) == "-" + digits
    sys.set_int_max_str_digits(640)  # the least limit CPython allows
    assert _parse_int(grouped) == -value


def test_format_int_is_subquadratic_past_the_digit_limit(default_int_str_limit):
    # str() under a lifted limit is the reference.  The quadratic
    # str(decimal.Decimal(x)) this replaced took 0.81 s at 200,000 digits on
    # a 2-vCPU x86 VM, the binary split 0.07 s.
    rng = random.Random("format-int")
    values = [
        10**4300,
        10**4300 - 1,
        -(2**20_000),
        2**20_000 - 1,
        -rng.randrange(10**4300, 10**4400),
        rng.randrange(10**199_999, 10**200_000),
    ]
    for value in values:
        timings = []
        for _ in range(3):
            start = time.perf_counter()
            got = _format_int(value)
            timings.append(time.perf_counter() - start)
        sys.set_int_max_str_digits(0)
        assert got == str(value)
        sys.set_int_max_str_digits(4300)
        assert min(timings) < 0.4


def test_long_literals_parse_everywhere(default_int_str_limit):
    ones = "1" * 5000
    repunit = (10**5000 - 1) // 9
    assert PolynomialRing(5).parse_element(ones + ",3").payload == (repunit % 5, 3)
    ring = ring_parse("Z/" + ones)
    assert ring == IntegerModRing(repunit)
    assert ring.spec() == "Z/" + ones and ring_parse(ring.spec()) == ring
    assert ring.format_element(ring.element(-1)).endswith("10")


def test_parse_errors_quote_a_bounded_prefix():
    bad = "1" * 5000 + "x"
    for parse in (
        Z.parse_element,
        PolynomialRing(5).parse_element,
        IntegerModRing(7).parse_element,
        lambda text: ring_parse("Z/" + text),
        lambda text: ring_parse("GF(5)[x]/(" + text + ")"),
        lambda text: ring_parse("Q" + text),
    ):
        with pytest.raises(RingParseError) as err:
            parse(bad)
        message = str(err.value)
        assert len(message) < 120 and "1" * 30 in message
        assert "'... (500" in message and "characters)" in message
    # short literals keep their whole echo
    cases = [
        (Z.parse_element, "12x", "invalid integer literal '12x' (at position 0)"),
        (PolynomialRing(5).parse_element, "1,x", "invalid coefficient 'x' (at position 0)"),
        (PolynomialRing(5).parse_element, "1,,2", "empty coefficient in '1,,2' (at position 0)"),
        (ring_parse, "Z/1x", "invalid modulus '1x' (at position 2)"),
        (ring_parse, "GF(q)[x]", "invalid characteristic 'q' (at position 3)"),
        (ring_parse, "Q", "invalid ring literal 'Q' (at position 0)"),
    ]
    for parse, text, message in cases:
        with pytest.raises(RingParseError) as err:
            parse(text)
        assert str(err.value) == message


# -- row codecs ------------------------------------------------------------------

_CODEC_RINGS = [
    Z,
    PolynomialRing(2),
    PolynomialRing(5),
    PolynomialRing(251),
    PolynomialRing(65537),
    IntegerModRing(12),
    IntegerModRing(10**9 + 7),
    PolynomialQuotientRing(5, (2, 0, 1)),
    ProductRing(IntegerModRing(4), PolynomialRing(3)),
    ProductRing(ProductRing(Z, IntegerModRing(6)), PolynomialQuotientRing(2, (1, 1, 1))),
]

# tokens the per-token parsers refuse on some carrier (or, like the
# Arabic-Indic "\u0663", accept); whitespace never reaches a token
_JUNK_TOKENS = [
    "1,,0", ",", "1,", ",1", "1__0", "_1", "1_", "x", "--1", "1e3", "0x10", "1.0",
    "\u00e9", "\u00b2", "\u0663", "\u00bd", "(1|2", "1|2)", "(1|x)", "(|)", "(1|(2|3))",
    "9" * 4400 + "x",
]


def _int_literals():
    return st.one_of(
        st.integers(-(10**30), 10**30).map(str),
        st.integers(0, 10**6).map(lambda n: f"+{n}"),
        st.integers(0, 10**9).map(lambda n: f"{n:_}"),
        st.integers(0, 999).map(lambda n: f"-00{n}"),
        # past the interpreter's 4300-digit int/str limit
        st.integers(4301, 4400).map(lambda k: "7" * k),
    )


def _literals(ring):
    """Valid element literals of ring, canonical or not."""
    if isinstance(ring, EuclideanQuotientRing):
        return _literals(ring.base)
    if isinstance(ring, IntegerRing):
        return _int_literals()
    if isinstance(ring, PolynomialRing):
        return st.lists(_int_literals(), min_size=1, max_size=5).map(",".join)
    return st.tuples(_literals(ring.left), _literals(ring.right)).map(
        lambda pair: f"({pair[0]}|{pair[1]})"
    )


def _outcome(parse):
    """The payloads parse returns, or what its RingParseError says."""
    try:
        return parse()
    except RingParseError as err:
        return ("refused", str(err), err.position)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_row_codecs_match_the_per_token_codecs(data):
    # the per-token _parse and _format are the reference for the row codecs
    # (each carrier's fast path and its fallbacks), on valid rows and on rows
    # holding junk, under CPython's default int/str digit limit
    ring = data.draw(st.sampled_from(_CODEC_RINGS), label="ring")
    tokens = data.draw(st.lists(_literals(ring), max_size=6), label="tokens")
    junk = data.draw(st.lists(st.sampled_from(_JUNK_TOKENS), max_size=2), label="junk")
    places = [data.draw(st.integers(0, len(tokens) + k), label="at") for k in range(len(junk))]
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        payloads = [ring._parse(t) for t in tokens]
        assert ring._parse_row(tokens) == payloads
        text = ring._format_row(payloads)
        assert text == " ".join(ring._format(x) for x in payloads)
        assert ring._parse_row(text.split()) == payloads
        for at, token in zip(places, junk):
            tokens.insert(at, token)
        got = _outcome(lambda: ring._parse_row(tokens))
        assert got == _outcome(lambda: [ring._parse(t) for t in tokens])
    finally:
        sys.set_int_max_str_digits(previous)


def test_is_prime_matches_trial_division():
    assert [n for n in range(-5, 10**5) if is_prime(n)] == [
        n for n in range(-5, 10**5) if trial_division_is_prime(n)
    ]


def test_is_prime_is_deterministic_up_to_its_bound():
    assert is_prime(10**14 + 31) and is_prime(2**61 - 1)
    assert not is_prime((10**6 + 3) * (2**61 - 1))
    # psi_12: a strong pseudoprime to every prime base up to 37, caught by 41
    assert not is_prime(318665857834031151167461)
    with pytest.raises(ValueError, match="primality"):
        is_prime(3317044064679887385961981)
    assert ring_parse("GF(100000000000031)[x]").p == 10**14 + 31
    with pytest.raises(RingParseError, match="primality"):
        ring_parse("GF(3317044064679887385961981)[x]")


# -- arithmetic ---------------------------------------------------------------


def test_mod_add_example():
    r = IntegerModRing(12)
    assert (r.element(7) + r.element(9)).payload == 4


def test_poly_mul_example():
    g = PolynomialRing(5)
    assert (g.element([1, 1]) * g.element([4, 1])).payload == (4, 0, 1)


def test_poly_mul_matches_schoolbook_oracle():
    g = PolynomialRing(5)
    rng = random.Random(1)
    for _ in range(100):
        f = tuple(rng.randrange(5) for _ in range(rng.randint(0, 4)))
        h = tuple(rng.randrange(5) for _ in range(rng.randint(0, 4)))
        assert (g.element(f) * g.element(h)).payload == p_mul(f, h, 5)


# From length 6 on, products are packed into slots each holding (p - 1)^2
# times the shorter length: 1, 2, 4 or 8 bytes over small primes, and 16 or
# 32 bytes from 2^31 - 1 up to the largest prime is_prime decides,
# 3317044064679887385961813.  Below length 6 the schoolbook loop runs.
KERNEL_PRIMES = (2, 3, 5, 7, 251, 257, 65537, 2**31 - 1, 2**61 - 1, 3317044064679887385961813)


@st.composite
def _kernel_operands(draw):
    p = draw(st.sampled_from(KERNEL_PRIMES))
    # p - 1 fills a slot to its bound
    coeffs = st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1))
    x = p_trim(draw(st.lists(coeffs, max_size=80)))
    y = p_trim(draw(st.lists(coeffs, max_size=80)))
    if draw(st.booleans()):
        # x + y cancels x's leading coefficients and leaves the shorter y
        y = p_add(p_neg(x, p), y[: max(len(x) - 2, 0)], p)
    return p, x, y


# Slots filled to their bound: with all coefficients p - 1, the middle
# coefficient of the product is (p - 1)^2 times the shorter length, which
# for p = 5, 103, 26737, 1753413037 fits 1, 2, 4, 8 bytes at the first
# length and needs the next width at the second.
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_kernel_operands())
@example((5, (4,) * 15, (4,) * 80))
@example((5, (4,) * 16, (4,) * 80))
@example((103, (102,) * 6, (102,) * 40))
@example((103, (102,) * 7, (102,) * 40))
@example((26737, (26736,) * 6, (26736,) * 40))
@example((26737, (26736,) * 7, (26736,) * 40))
@example((1753413037, (1753413036,) * 6, (1753413036,) * 40))
@example((1753413037, (1753413036,) * 7, (1753413036,) * 40))
@example((7, (1, 2, 3), (6, 5, 4)))  # the sum cancels to ()
def test_poly_kernels_match_schoolbook_oracles(case):
    p, x, y = case
    ring = PolynomialRing(p)
    assert ring._add(x, y) == p_add(x, y, p)
    assert ring._sub(x, y) == p_add(x, p_neg(y, p), p)
    assert ring._mul(x, y) == p_mul(x, y, p)
    if y:
        assert ring._divmod(x, y) == p_divmod(x, y, p)
        assert ring._divmod(ring._mul(x, y), y) == (x, ())


# A product packs from length 6 at slots of up to 8 bytes and from a length
# that grows with the width past them: 7 at 16 bytes, 9 at 32 (the widest a
# prime PolynomialRing accepts reaches).
# Each pair of rows is the longest schoolbook product at one width and the
# shortest packed one; only the packed product reads slots through _read.
@pytest.mark.parametrize(
    "p, length, width, packs",
    [
        (5, 5, 1, False),
        (5, 6, 1, True),
        (65537, 5, 8, False),
        (65537, 6, 8, True),
        (4294967311, 6, 16, False),
        (4294967311, 7, 16, True),
        (3317044064679887385961813, 8, 32, False),
        (3317044064679887385961813, 9, 32, True),
    ],
)
def test_multiplication_packs_from_a_length_read_off_the_slot_width(p, length, width, packs, monkeypatch):
    import edrkit.polynomials as polynomials

    assert _slot((p - 1) ** 2 * length)[0] == width
    x = tuple(1 + k % (p - 1) for k in range(length))
    y = (p - 1,) * (length + 3)
    widths, read = [], polynomials._read

    def spied(total, n, slot, p):
        widths.append(slot[0])
        return read(total, n, slot, p)

    monkeypatch.setattr(polynomials, "_read", spied)
    ring = PolynomialRing(p)
    assert ring._mul(x, y) == ring._mul(y, x) == p_mul(x, y, p)
    assert widths == ([width] * 2 if packs else [])


# Matrix products: Z sums natively; GF(p)[x] packs whole dot products into
# slots as wide as they need (p = 2^31 - 1 beyond a few terms and the larger
# primes always need more than 8 bytes); a quotient reduces its base ring's
# product and a product pairs its components' products.
MATMUL_PRIMES = (2, 5, 251, 65537, 2**31 - 1, 2**61 - 1, 3317044064679887385961813)
Z12 = IntegerModRing(12)
MATMUL_RINGS = (
    Z,
    *map(PolynomialRing, MATMUL_PRIMES),
    Z12,
    PolynomialQuotientRing(5, (2, 0, 1)),
    ProductRing(IntegerModRing(4), PolynomialQuotientRing(3, (1, 0, 1))),
    ProductRing(
        IntegerModRing(6), ProductRing(PolynomialQuotientRing(3, (1, 0, 1)), IntegerModRing(4))
    ),
    CosetQuotientRing(Z12, Z12.element(4)),
)


def _matmul_oracle(ring, left, right):
    if isinstance(ring, IntegerRing):
        return matmul(left, right, operator.add, operator.mul, 0)
    if isinstance(ring, PolynomialRing):
        p = ring.p
        return matmul(left, right, lambda f, g: p_add(f, g, p), lambda f, g: p_mul(f, g, p), ())
    return loop_matmul(ring, left, right)


@st.composite
def _matmul_operands(draw):
    ring = draw(st.sampled_from(MATMUL_RINGS))
    if isinstance(ring, IntegerRing):
        entries = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**300), 2**300))
        neg = operator.neg
    elif isinstance(ring, PolynomialRing):
        p = ring.p
        coeffs = st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1))
        entries = st.one_of(st.just(()), st.lists(coeffs, max_size=10).map(p_trim))

        def neg(f):
            return p_neg(f, p)

    else:
        entries = st.sampled_from(sorted(ring._payloads, key=ring._sort_key))
        neg = ring._neg
    m, k, n = draw(st.tuples(*[st.integers(0, 6)] * 3))
    left = [[draw(entries) for _ in range(k)] for _ in range(m)]
    right = [[draw(entries) for _ in range(n)] for _ in range(k)]
    if k >= 2 and draw(st.booleans()):
        # the first two terms of every dot product cancel, all of it at k = 2
        right[1] = list(right[0])
        for row in left:
            row[1] = neg(row[0])
    return ring, left, right


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_matmul_operands())
def test_matmul_matches_schoolbook_oracle(case):
    ring, left, right = case
    assert ring._matmul(left, right) == _matmul_oracle(ring, left, right)


# Every coefficient is p - 1, so one slot of a 1 x k by k x 1 product of
# entries of one length reaches k * (p - 1)^2 * length, the bound the slot
# must hold; each pair of rows is the largest case at one width and the
# least at the next.  Past 8 bytes the slots are read with int.from_bytes.
@pytest.mark.parametrize(
    "p, k, length, width",
    [
        (2, 255, 1, 1),
        (2, 256, 1, 2),
        (2, 1, 255, 1),
        (2, 1, 256, 2),
        (5, 4095, 1, 2),
        (5, 4096, 1, 4),
        (5, 63, 65, 2),
        (5, 64, 64, 4),
        (251, 68719, 1, 4),
        (251, 68720, 1, 8),
        (65537, 1, 1, 8),
        (2**31 - 1, 4, 1, 8),
        (2**31 - 1, 5, 1, 16),
        (2**61 - 1, 64, 1, 16),
        (2**61 - 1, 65, 1, 32),
    ],
)
def test_matmul_fills_slots_to_their_bound(p, k, length, width, monkeypatch):
    import edrkit.polynomials as polynomials

    ring = PolynomialRing(p)
    entry = (p - 1,) * length
    left, right = [[entry] * k], [[entry] for _ in range(k)]
    assert _slot(k * (p - 1) ** 2 * length)[0] == width
    expected = _matmul_oracle(ring, left, right)
    widths, read = [], polynomials._read

    def spied(total, n, slot, p):
        widths.append(slot[0])
        return read(total, n, slot, p)

    monkeypatch.setattr(polynomials, "_read", spied)
    # the packed product reads every entry through the codec and never
    # multiplies entry by entry
    monkeypatch.setattr(PolynomialRing, "_mul", None)
    monkeypatch.setattr(PolynomialRing, "_add", None)
    assert ring._matmul(left, right) == expected
    assert widths == [width]


# The reducer's tableau: GF(p)[x] keeps every column packed in slots as wide
# as p needs (a prime above 2^32 needs more than 8 bytes), and it and Z's
# list of rows must agree with the per-entry loops of oracles.LoopTableau.
SHEAR_PRIMES = (2, 3, 5, 7, 31, 251, 65537, 4294967311, 2**61 - 1, 3317044064679887385961813)


@st.composite
def _shear_operands(draw):
    p = draw(st.sampled_from(SHEAR_PRIMES))
    coeffs = st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1))
    entries = st.one_of(
        st.just(()),
        st.integers(1, p - 1).map(lambda c: (c,)),
        st.lists(coeffs, max_size=24).map(p_trim),
    )
    rows = draw(st.lists(st.lists(entries, min_size=3, max_size=3), min_size=1, max_size=30))
    for col in draw(st.sets(st.integers(0, 2), max_size=2)):
        for row in rows:
            row[col] = ()
    i, j, _ = draw(st.permutations(range(3)))
    f = draw(entries)
    t = ((draw(entries), draw(entries)), (draw(entries), draw(entries)))
    return PolynomialRing(p), rows, i, j, f, t


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_shear_operands())
def test_polynomial_shear_kernels_match_the_ring_defaults(case):
    ring, rows, i, j, f, t = case
    for name, arg in (("add_col", f), ("col_block", t)):
        packed, looped = ring._tableau(rows), LoopTableau(ring, rows)
        getattr(packed, name)(i, j, arg)
        getattr(looped, name)(i, j, arg)
        assert packed.block(0, len(rows), 0, 3) == looped.rows, name


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.lists(st.one_of(st.just(0), st.integers(-5, 5), st.integers(-(2**80), 2**80)), min_size=3, max_size=3),
        max_size=30,
    ),
    st.permutations(range(3)),
    st.lists(st.one_of(st.just(0), st.integers(-(2**80), 2**80)), min_size=5, max_size=5),
)
def test_integer_shear_kernels_match_the_ring_defaults(rows, order, values):
    ring, (i, j, _) = IntegerRing(), order
    f, t = values[0], ((values[1], values[2]), (values[3], values[4]))
    for name, arg in (("add_col", f), ("col_block", t)):
        native, looped = ring._tableau(rows), LoopTableau(ring, rows)
        getattr(native, name)(i, j, arg)
        getattr(looped, name)(i, j, arg)
        assert native.block(0, len(rows), 0, 3) == looped.rows, name


# Every operation of the tableau, transposes included, in random sequences:
# after each step the packed GF(p)[x] tableau and Z's list of rows must hold
# what the per-entry loops hold, read as a whole grid, entry by entry and as
# zero tests.
TABLEAU_PRIMES = (2, 5, 251, 65537, 2**61 - 1, 3317044064679887385961813)
TABLEAU_OPS = ("add_col", "col_block", "reduce_row", "swap_cols", "transpose")


@st.composite
def _tableau_programs(draw):
    """(ring, grid, ops): a Z or GF(p)[x] grid and a sequence of tableau
    operations valid for the shape the grid has when each one runs."""
    p = draw(st.sampled_from((None, *TABLEAU_PRIMES)))
    if p is None:
        ring = IntegerRing()
        entries = st.one_of(st.just(0), st.integers(-5, 5), st.integers(-(2**70), 2**70))
    else:
        ring = PolynomialRing(p)
        coeffs = st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1))
        entries = st.one_of(
            st.just(()),
            st.integers(1, p - 1).map(lambda c: (c,)),
            st.lists(coeffs, max_size=8).map(p_trim),
        )
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    grid = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    ops = []
    for name in draw(st.lists(st.sampled_from(TABLEAU_OPS), min_size=1, max_size=12)):
        if name == "transpose":
            ops.append((name,))
            rows, cols = cols, rows
            continue
        if name == "reduce_row":
            ops.append((name, draw(st.integers(0, min(rows, cols) - 1))))
            continue
        i, j = draw(st.integers(0, cols - 1)), draw(st.integers(0, cols - 1))
        if name == "swap_cols":
            ops.append((name, i, j))
        elif name == "add_col":
            # i = j scales a column, as the reducer scales a row by a unit
            # u with add_col(i, i, u - 1) on the transpose
            ops.append((name, i, j, draw(entries)))
        elif i != j:
            pair = st.tuples(entries, entries)
            ops.append((name, i, j, draw(st.tuples(pair, pair))))
    return ring, grid, ops


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_tableau_programs())
# Blocks start one slot long (every entry is a constant), so the first shear
# must grow them to four slots and the row block (a column block on the
# transpose) to eight.
@example(
    (
        PolynomialRing(5),
        [[(1,), (2,)], [(3,), (4,)]],
        [
            ("transpose",),
            ("swap_cols", 1, 1),
            ("transpose",),
            ("add_col", 0, 1, (1, 2, 3, 4)),
            ("transpose",),
            ("col_block", 0, 1, (((1,) * 5, ()), ((), (1,)))),
            ("transpose",),
            ("transpose",),
            ("reduce_row", 1),
        ],
    )
)
# Slots must widen: over GF(5) a shear of entries of twenty 4s reaches
# 4 + 16 * 20 = 324, past one byte; over GF(65537) every product does.
@example(
    (
        PolynomialRing(5),
        [[(4,) * 20, (4,) * 20], [(4,) * 20, ()]],
        [("add_col", 0, 1, (4,) * 20), ("col_block", 0, 1, (((4,) * 20, (1,)), ((), (4,) * 20))), ("reduce_row", 1)],
    )
)
@example(
    (
        PolynomialRing(65537),
        [[(65536, 1), (2,)], [(), (65536,) * 3]],
        [
            ("transpose",),
            ("col_block", 0, 1, (((1,), (65536, 65536)), ((), (1,)))),
            ("transpose",),
            ("transpose",),
            ("transpose",),
            ("add_col", 0, 0, (2,)),
            ("transpose",),
            ("reduce_row", 1),
        ],
    )
)
def test_ring_tableaux_match_the_loop_tableau(case):
    ring, grid, ops = case
    packed, looped = ring._tableau(grid), LoopTableau(ring, grid)
    want = looped.rows
    rows, cols = len(want), len(want[0])
    for op in ops:
        name, *args = op
        if name == "reduce_row" and looped.is_zero(args[0], args[0]):
            assert packed.is_zero(args[0], args[0])
            continue
        getattr(packed, name)(*args)
        getattr(looped, name)(*args)
        want = looped.rows
        rows, cols = len(want), len(want[0])
        assert packed.block(0, rows, 0, cols) == want, op
        assert [[packed.entry(i, j) for j in range(cols)] for i in range(rows)] == want, op
        assert [[packed.is_zero(i, j) for j in range(cols)] for i in range(rows)] == [
            [x == ring._zero() for x in row] for row in want
        ], op
    top, left = rows // 2, cols // 2
    assert packed.block(top, rows, left, cols) == [row[left:] for row in want[top:]]
    assert packed.block(0, rows, cols, cols) == [[] for _ in want]


# Size reduction of a tableau row: GF(p)[x] finds every quotient of the row
# in one packed product and applies each shear as one more, and must agree
# with the per-entry division and shears of oracles.loop_reduce_row; a
# prime above 2^32 needs slots wider than 8 bytes.
REDUCE_ROW_PRIMES = (2, 5, 251, 65537, 4294967311, 2**61 - 1, 3317044064679887385961813)


@st.composite
def _row_reduction_operands(draw):
    p = draw(st.sampled_from(REDUCE_ROW_PRIMES))
    coeffs = st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1))
    entries = st.one_of(
        st.just(()),
        st.integers(1, p - 1).map(lambda c: (c,)),
        st.lists(coeffs, max_size=12).map(p_trim),
    )
    r = draw(st.integers(0, 5))
    width = r + 1 + draw(st.integers(0, 2))
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), min_size=r + 1, max_size=r + 8))
    # a unit pivot when the low coefficients are empty
    low, lead = draw(st.lists(coeffs, max_size=5)), draw(st.integers(1, p - 1))
    rows[r][r] = (*low, lead)
    # column r is zero above row r, and below it too when one row is live
    single = draw(st.booleans())
    for k, row in enumerate(rows):
        if k < r or (single and k > r):
            row[r] = ()
    return PolynomialRing(p), rows, r


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_row_reduction_operands())
# Slots filled to their bound, each pair the largest case at 1 byte and the
# least at 2.  Quotients over GF(3): the negated inverse of the reversed
# pivot 1 + 2x is all 2s, as is the dividend, so the last slot a quotient
# reads holds 4 min(L, m) = 252 at L = 64 and 256 at L = 65.  Shears over
# GF(2): the factor of an all-ones dividend over the pivot 1 is all ones, as
# are the other live row's x and y, so a slot holds 1 + 254, then 1 + 255.
@example((PolynomialRing(3), [[(1,), ()], [(2,) * 64, (2, 1)]], 1))
@example((PolynomialRing(3), [[(1,), ()], [(2,) * 65, (2, 1)]], 1))
@example((PolynomialRing(2), [[(1,), ()], [(1,) * 254, (1,)], [(1,) * 254, (1,) * 254]], 1))
@example((PolynomialRing(2), [[(1,), ()], [(1,) * 255, (1,)], [(1,) * 255, (1,) * 255]], 1))
def test_polynomial_row_reduction_matches_the_per_entry_loop(case):
    ring, rows, r = case
    packed, looped = ring._tableau(rows), LoopTableau(ring, rows)
    packed.reduce_row(r)
    looped.reduce_row(r)
    got = packed.block(0, len(rows), 0, len(rows[0]))
    assert got == looped.rows
    pivot = rows[r][r]
    assert all(len(x) < len(pivot) for x in got[r][:r])


@pytest.mark.parametrize(
    "p, struct_slots", [(5, True), (65537, True), (4294967311, False), (2**61 - 1, False)]
)
def test_row_reduction_divides_in_one_product_below_the_slot_limit(p, struct_slots, monkeypatch):
    # the packed row reduction never divides entry by entry, with slots
    # struct packs (up to 8 bytes) and with wider ones
    import edrkit.polynomials as polynomials

    ring = PolynomialRing(p)
    rows = [[(1,), (), ()], [(3, 1, 2), (2, 0, 1), ()], [(4, 4, 4, 1), (0, 1, 1), (2, 1)]]
    divisions = []
    monkeypatch.setattr(
        PolynomialRing, "_divmod", lambda self, x, d: divisions.append(d) or p_divmod(x, d, self.p)
    )
    looped = LoopTableau(ring, rows)
    looped.reduce_row(2)
    expected, divisions[:] = len(divisions), []
    codes, inverses = [], []
    residues, inverse = polynomials._residues, polynomials._series_inverse

    def spied(data, slot, p):
        codes.append(slot[1])
        return residues(data, slot, p)

    monkeypatch.setattr(polynomials, "_residues", spied)
    monkeypatch.setattr(polynomials, "_series_inverse", lambda c, m, p: inverses.append(c) or inverse(c, m, p))
    packed = ring._tableau(rows)
    packed.reduce_row(2)
    assert packed.block(0, 3, 0, 3) == looped.rows and expected == 2
    # one product, with one power-series inverse, for both quotients
    assert divisions == [] and len(inverses) == 1
    assert {code is not None for code in codes} == {struct_slots}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(KERNEL_PRIMES), st.data())
def test_division_by_a_unit_matches_the_schoolbook_loop(p, data):
    ring = PolynomialRing(p)
    coeffs = st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1))
    x = p_trim(data.draw(st.lists(coeffs, max_size=40)))
    d = (data.draw(st.integers(1, p - 1)),)
    assert ring._divmod(x, d) == p_divmod(x, d, p)


# Every coefficient is p - 1, so the slots reach the bound of a shear
# x + f*y, (p - 1) + (p - 1)^2 * min(len f, longest y), and col_block's
# sum x*t00 + y*t10 reaches (p - 1) + 2 (p - 1)^2 * length in one pass.
# Each pair of rows is the largest case at one width and the least at the
# next.  The factors are twice as long as the tableau's one row of
# entries, so the blocks, which start with room for the product of two
# entries, must grow to exactly the length of the factor's product with an
# entry: one slot short, that product would not fit in the column.
@pytest.mark.parametrize(
    "name, p, length, width",
    [
        ("_add_col", 2, 254, 1),
        ("_add_col", 2, 255, 2),
        ("_add_col", 7, 6, 1),
        ("_add_col", 7, 7, 2),
        ("_add_col", 31, 72, 2),
        ("_add_col", 31, 73, 4),
        ("_add_col", 65537, 1, 8),
        ("_add_col", 2**31 - 1, 4, 8),
        ("_add_col", 2**31 - 1, 5, 16),
        ("_col_block", 2, 127, 1),
        ("_col_block", 2, 128, 2),
        ("_col_block", 5, 7, 1),
        ("_col_block", 5, 8, 2),
        ("_col_block", 46337, 1, 4),
        ("_col_block", 46337, 2, 8),
        ("_col_block", 2**31 - 1, 2, 8),
        ("_col_block", 2**31 - 1, 3, 16),
    ],
)
def test_shear_kernels_fill_slots_to_their_bound(name, p, length, width, monkeypatch):
    import edrkit.polynomials as polynomials

    ring = PolynomialRing(p)
    terms = 1 if name == "_add_col" else 2
    entry, factor = (p - 1,) * length, (p - 1,) * 2 * length
    arg = factor if name == "_add_col" else ((factor, factor), (factor, factor))
    assert _slot(p - 1 + terms * (p - 1) ** 2 * length)[0] == width
    rows = [[entry, entry, ()]]
    looped = LoopTableau(ring, rows)
    getattr(looped, name[1:])(0, 1, arg)
    widths, residues = [], polynomials._residues

    def spied(data, slot, p):
        widths.append(slot[0])
        return residues(data, slot, p)

    monkeypatch.setattr(polynomials, "_residues", spied)
    # the packed shear never adds or multiplies entry by entry
    monkeypatch.setattr(PolynomialRing, "_mul", None)
    monkeypatch.setattr(PolynomialRing, "_add", None)
    packed = ring._tableau(rows)
    assert packed.size == 2 * length - 1
    getattr(packed, name[1:])(0, 1, arg)
    assert packed.block(0, 1, 0, 3) == looped.rows
    assert packed.size == 3 * length - 1
    assert set(widths) == {width}


# Slots of w bytes are reduced by byte planes while w (p - 1) fits a byte,
# which 127 does at 2 bytes and 131 does not; past that, slot by slot.
# 2^128 - 1 is an all-0xFF slot at every width.
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from((2, 4, 8, 16)),
    st.sampled_from((127, 131) + KERNEL_PRIMES),
    st.lists(st.one_of(st.sampled_from((0, 2**128 - 1)), st.integers(0, 2**128 - 1)), max_size=64),
)
@example(2, 127, [])
@example(2, 127, [2**128 - 1] * 64)
@example(2, 131, [2**128 - 1] * 64)
@example(16, 2, [2**128 - 1] * 64)
def test_residues_match_slot_by_slot_reduction(width, p, values):
    slots = [v % 256**width for v in values]
    data = b"".join(v.to_bytes(width, "little") for v in slots)
    residues = _residues(data, (width, _SLOT_CODES.get(width)), p)
    assert list(residues) == [v % p for v in slots]
    assert isinstance(residues, bytes) == (width * (p - 1) < 256)


def test_byte_plane_shears_are_not_encoded_again(monkeypatch):
    # the p = 5, 2-byte col_block case of
    # test_shear_kernels_fill_slots_to_their_bound: 2 (p - 1) fits a byte,
    # so the residues come back as stored 1-byte slots, and the only slots
    # encoded are the shear factors', packed into the 2-byte product slots
    import edrkit.polynomials as polynomials

    p, length = 5, 8
    ring = PolynomialRing(p)
    entry, factor = (p - 1,) * length, (p - 1,) * 2 * length
    t = ((factor, factor), (factor, factor))
    rows = [[entry, entry, ()]]
    looped = LoopTableau(ring, rows)
    looped.col_block(0, 1, t)
    packed = ring._tableau(rows)
    encoded, encode = [], polynomials._encode

    def spied(coeffs, slot):
        encoded.append((tuple(coeffs), slot[0]))
        return encode(coeffs, slot)

    monkeypatch.setattr(polynomials, "_encode", spied)
    packed.col_block(0, 1, t)
    assert packed.block(0, 1, 0, 3) == looped.rows
    assert encoded and set(encoded) == {(factor, 2)}


# Operands up to length 40 with a common factor drawn on purpose, so that
# gcds of positive degree are frequent; slots reach 16 bytes from 2^31 - 1.
@st.composite
def _gcd_operands(draw):
    p = draw(st.sampled_from(KERNEL_PRIMES))
    coeffs = st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1))
    common = p_trim(draw(st.lists(coeffs, max_size=20)) + [1]) if draw(st.booleans()) else (1,)
    rest = st.lists(coeffs, max_size=41 - len(common)).map(p_trim)
    return p, p_mul(common, draw(rest), p), p_mul(common, draw(rest), p)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_gcd_operands())
@example((5, (4,) * 40, (4,) * 39))  # every slot of the rows is 2 bytes wide
def test_ext_gcd_matches_the_euclidean_loop(case):
    p, x, y = case
    ring = PolynomialRing(p)
    assert ring._ext_gcd(x, y) == loop_ext_gcd(ring, x, y)


@pytest.mark.parametrize("m, k, n", [(0, 0, 0), (2, 0, 3), (0, 2, 3), (2, 3, 0), (2, 3, 4)])
def test_matrix_product_keeps_its_shape(m, k, n):
    # an m x 0 by 0 x n product is the m x n zero matrix, though the right
    # factor's empty grid cannot say how wide it is
    rng = random.Random(f"matrix-product/{m}/{k}/{n}")
    for ring in (Z, PolynomialRing(5), Z12, ring_parse("Z/4 x Z/9")):
        elems = sorted(ring._payloads, key=ring._sort_key) if ring.finite else None

        def entry():
            if elems:
                return rng.choice(elems)
            return ring._canonical(rng.randint(-9, 9) if ring is Z else [rng.randrange(5), 1])

        left = [[entry() for _ in range(k)] for _ in range(m)]
        right = [[entry() for _ in range(n)] for _ in range(k)]
        product = Matrix(ring, m, k, tuple(map(ring.element, sum(left, [])))) * Matrix(
            ring, k, n, tuple(map(ring.element, sum(right, [])))
        )
        expected = _matmul_oracle(ring, left, right) if k else [[ring._zero()] * n] * m
        assert product.shape == (m, n)
        assert product.payload_grid() == expected


@pytest.mark.parametrize("ring", sample_rings(), ids=lambda r: r.spec())
def test_ring_axioms_on_samples(ring):
    rng = random.Random(42)
    elems = list(ring.elements())
    one = ring.one
    for _ in range(60):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a * one == a
        assert a + (-a) == ring.zero


def test_mixed_ring_operands_rejected():
    with pytest.raises(RingMismatchError):
        IntegerModRing(12).element(1) + IntegerModRing(13).element(1)


def test_zero_ring_is_flagged_and_degenerate():
    zr = quotient_ring(Z, Z.element(1))
    assert zr.is_zero_ring and zr.cardinality == 1
    assert zr.one == zr.zero
    assert zr.is_unit(zr.zero)


# -- units and divisibility ----------------------------------------------------


def test_is_unit_examples():
    assert Z.is_unit(Z.element(-1))
    assert not Z.is_unit(Z.element(2))
    r = IntegerModRing(12)
    assert r.is_unit(r.element(7))


@pytest.mark.parametrize("ring", sample_rings(), ids=lambda r: r.spec())
def test_is_unit_matches_inverse_search(ring):
    elems = list(ring.elements())
    for a in elems:
        expected = any(a * b == ring.one for b in elems)
        assert ring.is_unit(a) == expected


def test_divides_examples():
    assert Z.divides(Z.element(3), Z.element(12)).payload == 4
    assert Z.divides(Z.element(0), Z.element(5)) is None
    r = IntegerModRing(12)
    assert r.divides(r.element(4), r.element(8)).payload == 2


@pytest.mark.parametrize("ring", sample_rings()[:4], ids=lambda r: r.spec())
def test_divides_matches_exhaustive_search(ring):
    elems = list(ring.elements())
    for a in elems[:8]:
        for b in elems[:8]:
            q = ring.divides(a, b)
            candidates = [x for x in elems if a * x == b]
            if candidates:
                assert q == candidates[0]  # smallest canonical representative
            else:
                assert q is None


# -- bezout certificates --------------------------------------------------------


def check_certificate_equations(ring, a, b, cert):
    assert a * cert.u + b * cert.v == cert.g
    assert cert.g * cert.a1 == a
    assert cert.g * cert.b1 == b


def test_bezout_integer_examples():
    c = bezout_gcd(Z, Z.element(4), Z.element(6))
    assert [e.payload for e in (c.g, c.u, c.v, c.a1, c.b1)] == [2, -1, 1, 2, 3]
    c = bezout_gcd(Z, Z.element(5), Z.element(0))
    assert [e.payload for e in (c.g, c.u, c.v, c.a1, c.b1)] == [5, 1, 0, 1, 0]
    c = bezout_gcd(Z, Z.element(0), Z.element(0))
    assert [e.payload for e in (c.g, c.u, c.v, c.a1, c.b1)] == [0, 0, 0, 0, 0]


def test_bezout_integer_random():
    rng = random.Random(5)
    for _ in range(300):
        a, b = Z.element(rng.randint(-500, 500)), Z.element(rng.randint(-500, 500))
        cert = bezout_gcd(Z, a, b)
        check_certificate_equations(Z, a, b, cert)
        assert cert.g.payload >= 0
        assert cert.g.payload == math.gcd(a.payload, b.payload)


def test_bezout_polynomial_monic():
    g = PolynomialRing(5)
    rng = random.Random(6)
    for _ in range(100):
        a = g.element([rng.randrange(5) for _ in range(rng.randint(0, 4))])
        b = g.element([rng.randrange(5) for _ in range(rng.randint(0, 4))])
        cert = bezout_gcd(g, a, b)
        check_certificate_equations(g, a, b, cert)
        assert not cert.g.payload or cert.g.payload[-1] == 1  # monic or zero


@pytest.mark.parametrize("ring", [IntegerModRing(12), ring_parse("Z/4 x Z/9")], ids=lambda r: r.spec())
def test_bezout_on_finite_rings_by_enumeration(ring):
    elems = list(ring.elements())
    rng = random.Random(7)
    for _ in range(25):
        a, b = rng.choice(elems), rng.choice(elems)
        cert = bezout_gcd(ring, a, b)
        check_certificate_equations(ring, a, b, cert)
        # g generates aR + bR: common divisors divide g via explicit membership
        span = {(a * u + b * v).payload for u in elems for v in elems}
        assert {(cert.g * r).payload for r in elems} == span


# -- the Euclidean interface -------------------------------------------------------


EUCLIDEAN = {"Z": Z, **{f"GF({p})[x]": PolynomialRing(p) for p in (2, 3, 5)}}


def _euclidean_payloads(ring):
    if isinstance(ring, IntegerRing):
        return st.integers(-(10**30), 10**30)
    return st.lists(st.integers(0, ring.p - 1), max_size=7).map(ring._canonical)


def _oracle_remainder(ring, y, x):
    """y mod the nonzero x, computed without the ring's own division."""
    if isinstance(ring, IntegerRing):
        return y % x
    return p_divmod(y, x, ring.p)[1]


def _is_canonical(ring, x):
    if isinstance(ring, IntegerRing):
        return x >= 0
    return not x or x[-1] == 1


def _euclidean_property(check):
    """Run check(ring, x, y) on derandomized payload pairs of every Euclidean ring."""

    @pytest.mark.parametrize("name", list(EUCLIDEAN))
    def test(name):
        ring = EUCLIDEAN[name]
        payloads = _euclidean_payloads(ring)

        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @given(payloads, payloads)
        def run(x, y):
            check(ring, x, y)

        run()

    return test


@_euclidean_property
def test_divmod_leaves_a_reduced_remainder(ring, x, d):
    assume(d != ring._zero())
    q, r = ring._divmod(x, d)
    assert ring._add(ring._mul(q, d), r) == x
    assert r == _oracle_remainder(ring, x, d)
    if isinstance(ring, IntegerRing):
        assert abs(r) < abs(d) and r * d >= 0  # floor division
    else:
        assert len(r) < len(d)


@_euclidean_property
def test_ext_gcd_is_a_canonical_bezout_combination(ring, x, y):
    g, u, v = ring._ext_gcd(x, y)
    assert ring._add(ring._mul(x, u), ring._mul(y, v)) == g
    assert _is_canonical(ring, g)
    assert g == (math.gcd(x, y) if isinstance(ring, IntegerRing) else p_gcd(x, y, ring.p))
    # each carrier's kernel is the extended Euclidean loop on its own
    # representation: the remainder sequence fixes the cofactors
    assert loop_ext_gcd(ring, x, y) == (g, u, v)


@_euclidean_property
def test_divides_agrees_with_the_product(ring, x, y):
    zero = ring._zero()
    q = ring._divides(x, y)
    if x == zero:
        assert q == (zero if y == zero else None)
    else:
        assert (q is not None) == (_oracle_remainder(ring, y, x) == zero)
        assert ring._divides(x, ring._mul(x, y)) == y  # the quotient is unique
    if q is not None:
        assert ring._mul(q, x) == y


@_euclidean_property
def test_normalizer_scales_to_the_canonical_associate(ring, x, _):
    norm = ring._normalizer(x)
    assert (norm is None) == _is_canonical(ring, x)
    if norm is not None:
        assert ring._mul(norm, ring._unit_inverse(norm)) == ring._one()
        assert _is_canonical(ring, ring._mul(norm, x))


def test_bezout_gcd_is_a_greatest_common_divisor():
    rng = random.Random(8)
    for _ in range(200):
        a, b = Z.element(rng.randint(-300, 300)), Z.element(rng.randint(-300, 300))
        cert = bezout_gcd(Z, a, b)
        assert Z.divides(cert.g, a) is not None or a.payload == 0
        assert Z.divides(cert.g, b) is not None or b.payload == 0
        for d in range(1, 20):
            if a.payload % d == 0 and b.payload % d == 0:
                assert Z.divides(Z.element(d), cert.g) is not None


# -- Euclidean quotients ------------------------------------------------------------


def _monic_quotients(limit):
    """Every GF(p)[x]/(f) with p <= 7, f monic and p^deg(f) <= limit."""
    rings = []
    for p in (2, 3, 5, 7):
        deg = 1
        while p**deg <= limit:
            lows = itertools.product(range(p), repeat=deg)
            rings += [PolynomialQuotientRing(p, low + (1,)) for low in lows]
            deg += 1
    return rings


EUCLIDEAN_QUOTIENTS = [IntegerModRing(n) for n in range(1, 41)] + _monic_quotients(32)


def _pairs(ring, every_up_to, sampled):
    """Every payload pair of a ring of order at most every_up_to, else a seeded sample."""
    elems = ring._payloads
    if len(elems) <= every_up_to:
        return list(itertools.product(elems, repeat=2))
    rng = random.Random(ring.spec())
    return [(rng.choice(elems), rng.choice(elems)) for _ in range(sampled)]


def test_euclidean_quotient_units_match_inverse_search():
    assert len(EUCLIDEAN_QUOTIENTS) == 40 + 138
    for ring in EUCLIDEAN_QUOTIENTS:
        assert isinstance(ring, EuclideanQuotientRing)
        units = brute_unit_set(ring)
        assert ring._unit_set == units, ring.spec()
        assert all(ring._is_unit(x) == (x in units) for x in ring._payloads), ring.spec()


def test_euclidean_quotient_divides_matches_scan():
    for ring in EUCLIDEAN_QUOTIENTS:
        every = 40 if isinstance(ring, IntegerModRing) else 16
        for x, y in _pairs(ring, every, 60):
            assert ring._divides(x, y) == brute_divides(ring, x, y), (ring.spec(), x, y)


def test_euclidean_quotient_bezout_matches_enumeration():
    # the enumeration costs |R|^2 ring operations per pair: sample large rings
    for ring in EUCLIDEAN_QUOTIENTS:
        every, sampled = (24, 40) if isinstance(ring, IntegerModRing) else (8, 4)
        for x, y in _pairs(ring, every, sampled):
            cert = bezout_gcd(ring, RingElement(ring, x), RingElement(ring, y))
            got = tuple(e.payload for e in (cert.g, cert.u, cert.v, cert.a1, cert.b1))
            assert got == brute_bezout(ring, x, y), (ring.spec(), x, y)


_SMALL_FACTORS = [
    IntegerModRing(4),
    IntegerModRing(6),
    IntegerModRing(1),
    PolynomialQuotientRing(2, (0, 0, 1)),
    CosetQuotientRing(IntegerModRing(12), IntegerModRing(12).element(4)),
    ProductRing(IntegerModRing(2), IntegerModRing(3)),
]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_SMALL_FACTORS), st.sampled_from(_SMALL_FACTORS), st.data())
def test_product_bezout_matches_enumeration(left, right, data):
    # componentwise certificates are the first answer in the product's order
    ring = ProductRing(left, right)
    x, y = (data.draw(st.sampled_from(ring._payloads)) for _ in range(2))
    cert = bezout_gcd(ring, RingElement(ring, x), RingElement(ring, y))
    got = tuple(e.payload for e in (cert.g, cert.u, cert.v, cert.a1, cert.b1))
    assert got == brute_bezout(ring, x, y), (ring.spec(), x, y)


_PRIMES = st.sampled_from([2, 3, 5, 7, 13, 101, 65537, 10**14 + 31])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 10**30), st.integers(-(10**40), 10**40))
def test_integer_mod_literals_round_trip(n, value):
    ring = IntegerModRing(n)
    assert ring_parse(ring.spec()) == ring
    elem = ring.element(value)
    assert ring.parse_element(ring.format_element(elem)) == elem


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    _PRIMES,
    st.lists(st.integers(-(10**20), 10**20), min_size=1, max_size=6),
    st.lists(st.integers(-(10**20), 10**20), max_size=9),
)
def test_polynomial_quotient_literals_round_trip(p, modulus, value):
    assume(any(c % p for c in modulus))
    ring = PolynomialQuotientRing(p, modulus)
    if ring.is_zero_ring:
        # a constant modulus is a unit, and the zero ring has no literal
        with pytest.raises(RingParseError, match="positive degree"):
            ring_parse(ring.spec())
    else:
        assert ring_parse(ring.spec()) == ring
    elem = ring.element(value)
    assert ring.parse_element(ring.format_element(elem)) == elem


LARGE_QUOTIENTS = [
    IntegerModRing(10**12 + 39),
    PolynomialQuotientRing(2, (1, 0, 0, 1) + (0,) * 36 + (1,)),  # x^40 + x^3 + 1
]


def _large_elements(ring, rng, count):
    if isinstance(ring, ProductRing):
        left = _large_elements(ring.left, rng, count)
        right = _large_elements(ring.right, rng, count)
        return [ring.element((x.payload, y.payload)) for x, y in zip(left, right)]
    if isinstance(ring, IntegerModRing):
        return [ring.element(rng.randrange(ring.modulus)) for _ in range(count)]
    return [ring.element([rng.randrange(2) for _ in range(40)]) for _ in range(count)]


@pytest.mark.parametrize(
    "ring",
    LARGE_QUOTIENTS + [ProductRing(*LARGE_QUOTIENTS)],
    ids=["Z_n", "GF2_x_f", "product"],
)
def test_large_quotients_answer_without_enumerating(ring, no_enumeration):
    with pytest.raises(pytest.fail.Exception, match="was enumerated"):
        ring._payloads
    assert ring.is_unit(ring.one) and not ring.is_unit(ring.zero)
    rng = random.Random(11)
    elems = _large_elements(ring, rng, 12)
    for a, b in zip(elems, elems[1:]):
        q = ring.divides(a, a * b)
        assert q is not None and a * q == a * b
        cert = bezout_gcd(ring, a, b)
        check_certificate_equations(ring, a, b, cert)
        assert is_comaximal(ring, (a, b)) == ring.is_unit(cert.g)
        d = Matrix(ring, 2, 2, (a, ring.zero, ring.zero, a * b))
        eye = Matrix(ring, 2, 2, (ring.one, ring.zero, ring.zero, ring.one))
        assert check_certificate(ring, d, ReductionCertificate(eye, d, eye)) is None
        wrong = Matrix(ring, 2, 2, (a, ring.zero, ring.zero, a * b + ring.one))
        assert check_certificate(ring, wrong, ReductionCertificate(eye, d, eye)) == "product"
    # a quotient's size, units and divisibility come from the modulus's gcd
    for a in (ring.zero, elems[0], ring.one):
        q = quotient_ring(ring, a)
        image = q.element(a.payload)
        assert ring.cardinality % q.cardinality == 0
        assert q.is_unit(q.one) and q.is_unit(q.zero) == q.is_zero_ring
        assert q.divides(image, q.zero) == q.zero and q.divides(q.one, image) == q.zero
    assert quotient_ring(ring, ring.zero) == ring
    assert quotient_ring(ring, ring.one).is_zero_ring


# -- quotients -------------------------------------------------------------------


def test_quotient_examples():
    assert quotient_ring(Z, Z.element(-12)) == IntegerModRing(12)
    assert quotient_ring(Z, Z.element(1)).is_zero_ring
    r = IntegerModRing(12)
    q = quotient_ring(r, r.element(4))
    assert q.cardinality == 4


def test_quotient_of_z_by_zero_is_z():
    assert quotient_ring(Z, Z.element(0)) == Z


def test_quotient_of_zmod_matches_coset_enumeration():
    r = IntegerModRing(12)
    q = quotient_ring(r, r.element(4))
    ideal = {(r.element(4) * x).payload for x in r.elements()}
    assert ideal == {0, 4, 8}
    # cosets partition into 4 classes; image of 1 has additive order 4
    img = q.element(1)
    acc, order = img, 1
    while acc != q.zero:
        acc, order = acc + img, order + 1
    assert order == 4


def test_projection_is_a_homomorphism():
    rng = random.Random(9)
    for n in (5, 12, 30):
        q = quotient_ring(Z, Z.element(n))
        for _ in range(60):
            a, b = rng.randint(-99, 99), rng.randint(-99, 99)
            assert q.element(a + b) == q.element(a) + q.element(b)
            assert q.element(a * b) == q.element(a) * q.element(b)


def test_nested_quotient():
    r = IntegerModRing(12)
    q = quotient_ring(r, r.element(4))
    qq = quotient_ring(q, q.element(2))
    assert qq.cardinality == 2


def test_quotient_of_polynomial_ring():
    g = PolynomialRing(2)
    q = quotient_ring(g, g.element([1, 1, 1]))
    assert isinstance(q, PolynomialQuotientRing) and q.cardinality == 4
    assert set(q._payloads) == {(), (1,), (0, 1), (1, 1)}
    assert quotient_ring(g, g.element([1])).is_zero_ring
    assert quotient_ring(g, g.element([])) == g


def _quotient_bases():
    """Finite rings whose quotients by each element are checked against the
    coset enumeration; the last one is itself a quotient."""
    r36 = IntegerModRing(36)
    return [
        *(IntegerModRing(n) for n in (1, 2, 4, 6, 8, 9, 12, 16, 18, 25, 27, 30)),
        PolynomialQuotientRing(2, (0, 0, 1)),
        PolynomialQuotientRing(2, (1, 1, 0, 1)),
        PolynomialQuotientRing(3, (0, 0, 1)),
        PolynomialQuotientRing(3, (1, 0, 1)),
        ring_parse("Z/4 x Z/9"),
        ring_parse("Z/6 x Z/4"),
        ring_parse("Z/2 x GF(2)[x]/(0,1,1)"),
        ring_parse("Z/2 x Z/2 x Z/3"),
        quotient_ring(r36, r36.element(6)),
    ]


QUOTIENT_CASES = [(ring, x) for ring in _quotient_bases() for x in ring._payloads]


def _factors(ring):
    if isinstance(ring, ProductRing):
        return _factors(ring.left) + _factors(ring.right)
    return [ring]


def _report_digest(report):
    labelled = report.counterexample and tuple((k, e.payload) for k, e in report.counterexample)
    return report.holds, labelled, report.checked


def test_quotients_match_coset_enumeration():
    assert len(QUOTIENT_CASES) == 274
    for base, x in QUOTIENT_CASES:
        q = quotient_ring(base, RingElement(base, x))
        oracle = CosetQuotientRing(base, RingElement(base, x))
        where = (base.spec(), x)
        assert q.cardinality == oracle.cardinality, where
        assert q._payloads == oracle._payloads, where
        elems = q._payloads
        for y in elems:
            assert [q._add(y, z) for z in elems] == [oracle._add(y, z) for z in elems], where
            assert [q._mul(y, z) for z in elems] == [oracle._mul(y, z) for z in elems], where
        assert q._unit_set == oracle._unit_set, where
        for y, z in _pairs(q, 16, 40):
            assert q._divides(y, z) == oracle._divides(y, z), where
            assert q._bezout(y, z) == oracle._bezout(y, z), where
        if q.cardinality <= 16:
            for checker in CHECKERS.values():
                got, want = checker(q, bound=None), checker(oracle, bound=None)
                assert _report_digest(got) == _report_digest(want), (where, got.line())


def test_quotient_specs_parse_back():
    # the zero ring has no literal (Ring.spec): ring_parse refuses the unit
    # moduli Z/1 and GF(p)[x]/(c), so rings with a zero factor are skipped
    for base, x in QUOTIENT_CASES:
        q = quotient_ring(base, RingElement(base, x))
        if not any(f.is_zero_ring for f in _factors(q)):
            assert ring_parse(q.spec()) == q, (base.spec(), x)
    assert ring_parse(quotient_ring(Z12, Z12.element(4)).spec()) == IntegerModRing(4)
    zz = ProductRing(Z, Z)
    with pytest.raises(UnsupportedRingError):
        quotient_ring(zz, zz.element((2, 3)))


def _draw_payload(data, ring):
    if isinstance(ring, ProductRing):
        return (_draw_payload(data, ring.left), _draw_payload(data, ring.right))
    if isinstance(ring, IntegerModRing):
        return data.draw(st.integers(-(10**12), 10**12))
    return data.draw(st.lists(st.integers(-(10**4), 10**4), max_size=8))


def _draw_literal_factor(data):
    """Z/n or GF(p)[x]/(f), or a quotient of one (a zero ring now and then)."""
    if data.draw(st.booleans()):
        ring = IntegerModRing(data.draw(st.integers(1, 10**6)))
    else:
        p = data.draw(st.sampled_from([2, 3, 5, 7, 65537]))
        modulus = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=5))
        assume(any(modulus))
        ring = PolynomialQuotientRing(p, modulus)
    if data.draw(st.booleans()):
        ring = quotient_ring(ring, ring.element(_draw_payload(data, ring)))
    return ring


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_product_and_quotient_literals_round_trip(data):
    # products associate to the left in the grammar, so they are built that way
    ring = _draw_literal_factor(data)
    for _ in range(data.draw(st.integers(0, 2))):
        ring = ProductRing(ring, _draw_literal_factor(data))
    for r in (ring, quotient_ring(ring, ring.element(_draw_payload(data, ring)))):
        if any(f.is_zero_ring for f in _factors(r)):
            # the zero ring has no literal (Ring.spec)
            with pytest.raises(RingParseError):
                ring_parse(r.spec())
        else:
            assert ring_parse(r.spec()) == r
        elem = r.element(_draw_payload(data, r))
        assert r.parse_element(r.format_element(elem)) == elem


def _draw_product_tree(data, depth=0):
    """A literal factor, or a product of two trees, nested on either side."""
    if depth == 3 or not data.draw(st.booleans()):
        return _draw_literal_factor(data)
    return ProductRing(_draw_product_tree(data, depth + 1), _draw_product_tree(data, depth + 1))


def _left_associated(ring):
    return not isinstance(ring, ProductRing) or (
        not isinstance(ring.right, ProductRing) and _left_associated(ring.left)
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_nested_product_literals_round_trip(data):
    # a product on the right is parenthesized; a left-associated product
    # keeps the bare " x "-joined spec
    ring = _draw_product_tree(data)
    spec = ring.spec()
    if _left_associated(ring):
        assert spec == " x ".join(f.spec() for f in _factors(ring))
    if any(f.is_zero_ring for f in _factors(ring)):
        with pytest.raises(RingParseError):
            ring_parse(spec)
        return
    assert ring_parse(spec) == ring
    elem = ring.element(_draw_payload(data, ring))
    assert ring.parse_element(ring.format_element(elem)) == elem


def test_right_nested_product_spec():
    inner = ProductRing(ring_parse("GF(3)[x]/(1,0,1)"), IntegerModRing(4))
    ring = ProductRing(IntegerModRing(6), inner)
    assert ring.spec() == "Z/6 x (GF(3)[x]/(1,0,1) x Z/4)"
    assert ring_parse(ring.spec()) == ring
    left = ProductRing(ProductRing(IntegerModRing(6), inner.left), inner.right)
    assert left.spec() == "Z/6 x GF(3)[x]/(1,0,1) x Z/4"
    assert ring_parse(left.spec()) == left != ring
    assert ring_parse("(Z/6 x (Z/4)) x ( Z/9 )") == ProductRing(
        ProductRing(IntegerModRing(6), IntegerModRing(4)), IntegerModRing(9)
    )
    for bad, position in [("Z/6 x (Z/4 x Q)", 13), ("Z/6 x ( Z/4 x Z/1)", 16), ("Z x ()", 5)]:
        with pytest.raises(RingParseError) as err:
            ring_parse(bad)
        assert err.value.position == position, bad

def test_finite_enumeration_comes_in_canonical_order():
    # _payloads does not sort: each carrier yields its payloads in order
    for base, x in QUOTIENT_CASES:
        for ring in (base, quotient_ring(base, RingElement(base, x))):
            assert ring._payloads == tuple(sorted(ring._payloads, key=ring._sort_key)), ring.spec()


# -- radical and annihilator -------------------------------------------------------


def test_jacobson_radical_examples():
    assert {e.payload for e in jacobson_radical(IntegerModRing(12)).members} == {0, 6}
    assert {e.payload for e in jacobson_radical(IntegerModRing(5)).members} == {0}
    assert {e.payload for e in jacobson_radical(IntegerModRing(4)).members} == {0, 2}


def test_jacobson_radical_matches_definition_and_is_ideal():
    # Z/32 has 2 of nilpotency index 5, so one squaring short of the count
    # (x^4 for x^8) would miss it
    rings = sample_rings() + [
        IntegerModRing(32),
        IntegerModRing(72),
        PolynomialQuotientRing(2, (0, 0, 0, 0, 0, 1)),  # x^5
        PolynomialQuotientRing(3, (1, 2, 2, 2, 1)),  # (x+1)^2 (x^2+1)
        ring_parse("Z/4 x Z/2 x GF(2)[x]/(0,0,1)"),
        LocalNonPrincipalRing(),
    ]
    for ring in rings:
        members = {e.payload for e in jacobson_radical(ring).members}
        elems = [e.payload for e in ring.elements()]
        assert members == definition_jacobson_radical(ring), ring.spec()
        for x in members:
            for y in members:
                assert ring._add(x, y) in members
            for r in elems:
                assert ring._mul(x, r) in members


def test_radical_of_zmod_is_squarefree_kernel():
    for n in range(2, 51):
        members = {e.payload for e in jacobson_radical(IntegerModRing(n)).members}
        rad = squarefree_kernel(n)
        assert members == {(rad * k) % n for k in range(n)}


def test_annihilator_examples():
    r = IntegerModRing(12)
    assert {e.payload for e in annihilator(r, r.element(4))} == {0, 3, 6, 9}
    assert {e.payload for e in annihilator(r, r.element(1))} == {0}
    assert len(annihilator(r, r.element(0))) == 12


def test_annihilator_is_an_ideal():
    r = ring_parse("Z/4 x Z/9")
    ann = {e.payload for e in annihilator(r, r.element((2, 3)))}
    elems = [e.payload for e in r.elements()]
    for x in ann:
        for y in ann:
            assert r._add(x, y) in ann
        for s in elems:
            assert r._mul(x, s) in ann


def test_infinite_ring_rejected():
    with pytest.raises(InfiniteRingError):
        jacobson_radical(Z)
    with pytest.raises(InfiniteRingError):
        annihilator(Z, Z.element(3))
    with pytest.raises(InfiniteRingError):
        list(Z.elements())


# -- enumeration order ----------------------------------------------------------


def test_elements_come_in_canonical_order():
    for ring in sample_rings():
        keys = [ring.sort_key(e) for e in ring.elements()]
        assert keys == sorted(keys)


def test_integer_spiral_enumeration():
    it = Z._enumerate_payloads()
    assert [next(it) for _ in range(7)] == [0, 1, -1, 2, -2, 3, -3]


def test_polynomial_enumeration_order():
    g = PolynomialRing(2)
    it = g._enumerate_payloads()
    assert [next(it) for _ in range(6)] == [(), (1,), (0, 1), (1, 1), (0, 0, 1), (0, 1, 1)]


def test_product_enumeration_is_lazy_and_left_major():
    # 2^64 payloads: the first one must come without building any
    # component's payload tuple, whichever way the product associates
    factors = [IntegerModRing(2) for _ in range(64)]
    left_chain, right_chain = factors[0], factors[-1]
    for factor in factors[1:]:
        left_chain = ProductRing(left_chain, factor)
    for factor in factors[-2::-1]:
        right_chain = ProductRing(factor, right_chain)
    for ring in (left_chain, right_chain):
        assert next(iter(ring._enumerate_payloads())) == ring._zero()
        stack = [ring]
        while stack:
            part = stack.pop()
            assert "_payloads" not in vars(part), part.spec()
            if isinstance(part, ProductRing):
                stack += [part.left, part.right]
    small = [
        IntegerModRing(2), IntegerModRing(6), PolynomialQuotientRing(2, (1, 1, 1)),
        ProductRing(IntegerModRing(2), IntegerModRing(3)),
    ]
    for left in small:
        for right in small:
            pairs = list(ProductRing(left, right)._enumerate_payloads())
            assert pairs == list(itertools.product(left._payloads, right._payloads))
