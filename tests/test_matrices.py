"""Value semantics of Matrix and the certificate text round trip."""

import pickle
import random

import pytest

from edrkit import (
    IntegerModRing,
    IntegerRing,
    Matrix,
    PolynomialQuotientRing,
    PolynomialRing,
    ProductRing,
    RingMismatchError,
    check_certificate,
    format_certificate,
    parse_certificate,
    parse_matrix,
    smith_normal_form,
    verify_certificate,
)
from edrkit.matrices import format_matrix, from_payload_grid
from edrkit.rings import _format_int

Z = IntegerRing()

CARRIERS = [
    Z,
    PolynomialRing(5),
    IntegerModRing(12),
    PolynomialQuotientRing(2, (1, 1, 0, 1)),
    ProductRing(IntegerModRing(6), PolynomialRing(3)),
]

SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (3, 3)]


def _payload(ring, rng):
    if isinstance(ring, ProductRing):
        return (_payload(ring.left, rng), _payload(ring.right, rng))
    if isinstance(ring, PolynomialRing):
        return ring._canonical([rng.randrange(-9, 10) for _ in range(rng.randrange(4))])
    return ring._canonical(rng.randrange(-(10**20), 10**20))


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("ring", CARRIERS, ids=str)
def test_matrices_from_elements_and_from_payloads_agree(ring, shape):
    rows, cols = shape
    rng = random.Random(f"{ring}-{rows}x{cols}")
    grid = [[_payload(ring, rng) for _ in range(cols)] for _ in range(rows)]
    entries = tuple(ring.element(x) for row in grid for x in row)
    boxed = Matrix(ring, rows, cols, entries)
    unboxed = from_payload_grid(ring, [list(row) for row in grid], cols)
    assert boxed == unboxed and hash(boxed) == hash(unboxed)
    assert unboxed.entries == entries and unboxed.entries is unboxed.entries
    assert unboxed.payload_grid() == grid == boxed.payload_grid()
    for i in range(rows):
        assert unboxed.row(i) == boxed.row(i) == entries[i * cols : (i + 1) * cols]
        for j in range(cols):
            assert unboxed.entry(i, j) == boxed.entry(i, j) == ring.element(grid[i][j])
    assert unboxed.diagonal() == boxed.diagonal()
    assert unboxed.transpose() == boxed.transpose()
    assert unboxed.transpose().shape == (cols, rows)
    assert unboxed.transpose().transpose() == boxed
    assert unboxed * unboxed.transpose() == boxed * boxed.transpose()
    assert unboxed.transpose() * unboxed == boxed.transpose() * boxed
    assert str(unboxed) == str(boxed) == format_matrix(boxed)
    assert parse_matrix(ring, str(boxed)) == boxed
    assert pickle.loads(pickle.dumps(unboxed)) == boxed
    if rows:
        assert Matrix.from_rows(ring, [list(row) for row in grid]) == boxed
    # the grid a caller gets is its own copy
    copy = unboxed.payload_grid()
    for row in copy:
        row.append(ring._one())
    copy.append([])
    assert unboxed.payload_grid() == grid and unboxed == boxed
    for m in (boxed, unboxed):
        for name in ("ring", "rows", "cols", "entries", "_grid", "spare"):
            with pytest.raises(AttributeError):
                setattr(m, name, None)
        with pytest.raises(AttributeError):
            del m.rows


@pytest.mark.parametrize("ring", CARRIERS, ids=str)
def test_matrix_refuses_foreign_entries_and_bad_shapes(ring):
    foreign = IntegerModRing(7).one
    with pytest.raises(RingMismatchError):
        Matrix(ring, 1, 2, (ring.one, foreign))
    with pytest.raises(RingMismatchError):
        Matrix.from_rows(ring, [[ring.zero], [foreign]])
    with pytest.raises(ValueError):
        Matrix(ring, 2, 2, (ring.one,) * 3)
    with pytest.raises(ValueError):
        Matrix(ring, -1, 0, ())
    with pytest.raises(ValueError):
        Matrix.from_rows(ring, [[ring.one], []])
    with pytest.raises(ValueError):
        from_payload_grid(ring, [[ring._one()], []])
    assert Matrix(ring, 1, 1, (ring.one,)) != Matrix(ring, 1, 1, (ring.zero,))
    assert Matrix(ring, 0, 2, ()) != Matrix(ring, 2, 0, ())
    assert Matrix(ring, 0, 0, ()) != Matrix(IntegerModRing(7), 0, 0, ())


def test_certificate_round_trips_past_the_int_str_digit_limit(default_int_str_limit):
    # D = diag(1, ab) has 4401 digits; each row mixes short and long entries,
    # so the row codecs' int()/str() fast paths fall back for the whole row
    a, b = 10**2200 + 1, 10**2200 + 3
    source = Matrix.from_rows(Z, [[a, 2], [0, b]])
    cert = smith_normal_form(Z, source)
    assert cert.D.entry(1, 1).payload == a * b
    text = format_certificate(cert)
    lines = text.splitlines()
    assert lines[4:8] == ["D", "2 2", "1 0", "0 " + _format_int(a * b)]
    back = parse_certificate(Z, text)
    assert back == cert
    assert verify_certificate(Z, source, back)
    assert parse_matrix(Z, format_matrix(source)) == source
    # a tampered long entry still parses and fails the product clause
    lines[7] = lines[7][:-1] + str((int(lines[7][-1]) + 1) % 10)
    tampered = parse_certificate(Z, "\n".join(lines) + "\n")
    assert tampered.D != cert.D
    assert check_certificate(Z, source, tampered) == "product"


def test_long_coefficients_parse_through_the_row_fallback(default_int_str_limit):
    ring = PolynomialRing(5)
    ones = "1" * 5000
    repunit = (10**5000 - 1) // 9
    m = parse_matrix(ring, f"1 2\n{ones},3 2\n")
    assert m.payload_grid() == [[(repunit % 5, 3), (2,)]]
