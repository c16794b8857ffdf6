import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edrkit import (
    IntegerModRing,
    IntegerRing,
    Matrix,
    PolynomialRing,
    quotient_ring,
    ring_parse,
    smith_normal_form,
    verify_certificate,
)
from edrkit.verification import _berkowitz_determinant, _determinant

from oracles import laplace_determinant

Z = IntegerRing()
G5 = PolynomialRing(5)
Z4_Z9 = ring_parse("Z/4 x Z/9")

RINGS = {
    "Z": Z,
    "GF(5)[x]": G5,
    "Z/12": IntegerModRing(12),
    "Z/4 x Z/9": Z4_Z9,
    "(Z/4 x Z/9)/((2|3))": quotient_ring(Z4_Z9, Z4_Z9.element((2, 3))),
}


def _elements(ring):
    if isinstance(ring, IntegerRing):
        return st.integers(-60, 60)
    if isinstance(ring, PolynomialRing):
        return st.lists(st.integers(0, 4), max_size=4).map(ring._canonical)
    return st.sampled_from(sorted(ring._payloads, key=ring._sort_key))


@st.composite
def _square_grids(draw, ring, sparse):
    n = draw(st.integers(0, 7))
    elements = _elements(ring)
    if sparse:
        # about three entries in four are zero
        zero = st.just(ring._zero())
        elements = st.one_of(zero, zero, zero, elements)
    return [[draw(elements) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
@pytest.mark.parametrize("name", list(RINGS))
def test_determinant_matches_laplace(name, sparse):
    ring = RINGS[name]

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(_square_grids(ring, sparse))
    def check(grid):
        expected = laplace_determinant(ring, grid)
        assert _determinant(ring, grid) == expected
        # Berkowitz is exact over every carrier, the domains included
        assert _berkowitz_determinant(ring, grid) == expected

    check()


def test_verify_24x24_certificate_is_fast():
    # the memoized Laplace expansion this replaced took minutes at n = 24
    rng = random.Random("verify-24")
    m = Matrix.from_rows(Z, [[rng.randint(-99, 99) for _ in range(24)] for _ in range(24)])
    cert = smith_normal_form(Z, m)
    start = time.perf_counter()
    assert verify_certificate(Z, m, cert)
    assert time.perf_counter() - start < 1.0
