"""Exact matrices over the supported rings, plus the text wire formats.

A Matrix keeps its entries as one payload grid: a list of rows, each a
list of canonical payloads, which the matrix owns and never mutates.  The
reducer, the verifier and the text formats read and write that grid
directly; RingElements are built only when .entries, entry, row or
diagonal is read, and then cached.  The public constructor
Matrix(ring, rows, cols, entries) checks that every entry belongs to the
ring; from_payload_grid is the internal constructor from canonical
payloads, which checks only the shape and boxes nothing.

Matrix text format: a `<rows> <cols>` header line, then one line per row of
whitespace-separated element literals.  A reduction certificate is three
such matrices under `P`, `D`, `Q` header lines.  Each row is read and
written whole by the ring's row codec (Ring._parse_row, Ring._format_row).
"""

from __future__ import annotations

from .rings import (
    Ring,
    RingElement,
    RingParseError,
    _excerpt,
    _frozen_delattr,
    _frozen_setattr,
    _int_excerpt,
    _parse_int,
    value_class,
)


class Matrix:
    """An immutable rows x cols matrix over ring, equal and hashed by its
    ring, shape and payloads.

    The entry cache is filled on first read; two threads filling it at once
    build equal tuples, so sharing a matrix across threads stays safe.
    """

    def __init__(self, ring: Ring, rows: int, cols: int, entries: tuple[RingElement, ...]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        for e in entries:
            ring._check(e)
        grid = [[e.payload for e in entries[i * cols : (i + 1) * cols]] for i in range(rows)]
        self._init(ring, rows, cols, grid, entries)

    def _init(self, ring: Ring, rows: int, cols: int, grid: list, entries) -> None:
        # entries is the cache behind .entries, None until it is read
        for name, value in (
            ("ring", ring), ("rows", rows), ("cols", cols), ("_grid", grid), ("_entries", entries)
        ):
            object.__setattr__(self, name, value)

    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr

    def __eq__(self, other):
        if other.__class__ is not Matrix:
            return NotImplemented
        return (self.ring, self.rows, self.cols, self._grid) == (
            other.ring, other.rows, other.cols, other._grid
        )

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, tuple(map(tuple, self._grid))))

    def __repr__(self):
        return (
            f"Matrix(ring={self.ring!r}, rows={self.rows!r}, cols={self.cols!r},"
            f" entries={self.entries!r})"
        )

    @property
    def entries(self) -> tuple[RingElement, ...]:
        """The entries in row-major order, boxed on first read."""
        entries = self._entries
        if entries is None:
            ring = self.ring
            entries = tuple(RingElement(ring, x) for row in self._grid for x in row)
            object.__setattr__(self, "_entries", entries)
        return entries

    @classmethod
    def from_rows(cls, ring: Ring, rows: list) -> "Matrix":
        return from_payload_grid(ring, [[ring._canonical(v) for v in row] for row in rows])

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Matrix":
        one, zero = ring._one(), ring._zero()
        grid = [[one if i == j else zero for j in range(n)] for i in range(n)]
        return from_payload_grid(ring, grid, n)

    def entry(self, i: int, j: int) -> RingElement:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[RingElement, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def payload_grid(self) -> list[list]:
        """The payloads as fresh row lists, which the caller may mutate."""
        return [list(row) for row in self._grid]

    def transpose(self) -> "Matrix":
        grid = self._grid
        return from_payload_grid(
            self.ring, [[row[j] for row in grid] for j in range(self.cols)], self.rows
        )

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ring != other.ring:
            raise ValueError("rings differ")
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        ring = self.ring
        if self.cols:
            grid = ring._matmul(self._grid, other._grid)
        else:
            # other has no rows, so its grid cannot say how wide it is
            grid = [[ring._zero()] * other.cols for _ in range(self.rows)]
        return from_payload_grid(ring, grid, other.cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def diagonal(self) -> tuple[RingElement, ...]:
        return tuple(self.entry(i, i) for i in range(min(self.rows, self.cols)))

    def __str__(self) -> str:
        return format_matrix(self)


@value_class
class ReductionCertificate:
    """Invertible P, Q and diagonal D with P*A*Q = D and a divisibility chain."""

    P: Matrix
    D: Matrix
    Q: Matrix


def from_payload_grid(ring: Ring, grid: list[list], cols: int | None = None) -> Matrix:
    """The matrix whose rows are the lists of grid, canonical payloads of
    ring, neither checked nor boxed.  The matrix takes the row lists over, so
    the caller passes lists it will not touch again.  cols gives the width of
    a grid without rows; by default it is the length of the first row."""
    if cols is None:
        cols = len(grid[0]) if grid else 0
    if any(len(row) != cols for row in grid):
        raise ValueError("ragged rows")
    m = Matrix.__new__(Matrix)
    m._init(ring, len(grid), cols, grid, None)
    return m


def format_matrix(m: Matrix) -> str:
    format_row = m.ring._format_row
    return "\n".join([f"{m.rows} {m.cols}", *map(format_row, m._grid)]) + "\n"


def parse_matrix(ring: Ring, text: str) -> Matrix:
    lines = [line for line in text.splitlines()]
    return _parse_matrix_lines(ring, lines, 0, len(text))[0]


def _parse_matrix_lines(
    ring: Ring, lines: list[str], start: int, limit: int
) -> tuple[Matrix, int]:
    """The matrix whose header is the first nonblank line from start, and the
    index of the line after it; limit is the length of the whole text."""
    idx = start
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx >= len(lines):
        raise RingParseError("missing matrix header line", idx + 1)
    header = lines[idx].split()
    # str.isdigit alone also accepts non-ASCII digits such as "²"
    if len(header) != 2 or not all(tok.isascii() and tok.isdigit() for tok in header):
        raise RingParseError(f"bad matrix header {_excerpt(lines[idx])} on line {idx + 1}")
    rows, cols = _parse_int(header[0]), _parse_int(header[1])
    # a nonempty matrix spends a line per row and a character per entry, so
    # only an empty one can claim more; its identity P or Q would be N x N
    for dim in (rows, cols):
        if dim > limit:
            raise RingParseError(
                f"matrix dimension {_int_excerpt(dim)} on line {idx + 1} exceeds"
                f" the {limit} characters of its text"
            )
    idx += 1
    if not cols:
        # a zero-width row is written as a blank line, which reads as no line
        return from_payload_grid(ring, [[] for _ in range(rows)], 0), idx
    parse_row = ring._parse_row
    grid = []
    for r in range(rows):
        while idx < len(lines) and not lines[idx].strip():
            idx += 1
        if idx >= len(lines):
            raise RingParseError(f"missing matrix row {r + 1}", idx + 1)
        tokens = lines[idx].split()
        if len(tokens) != cols:
            raise RingParseError(
                f"row {r + 1} has {len(tokens)} entries, expected {_int_excerpt(cols)}"
                f" (line {idx + 1})"
            )
        grid.append(parse_row(tokens))
        idx += 1
    return from_payload_grid(ring, grid, cols), idx


def format_certificate(cert: ReductionCertificate) -> str:
    return (
        "P\n"
        + format_matrix(cert.P)
        + "D\n"
        + format_matrix(cert.D)
        + "Q\n"
        + format_matrix(cert.Q)
    )


def parse_certificate(ring: Ring, text: str) -> ReductionCertificate:
    lines = text.splitlines()
    blocks: dict[str, Matrix] = {}
    idx = 0
    for name in ("P", "D", "Q"):
        while idx < len(lines) and (
            not lines[idx].strip() or lines[idx].lstrip().startswith("#")
        ):
            idx += 1
        if idx >= len(lines) or lines[idx].strip() != name:
            raise RingParseError(f"expected block header {name!r} on line {idx + 1}")
        idx += 1
        blocks[name], idx = _parse_matrix_lines(ring, lines, idx, len(text))
    return ReductionCertificate(blocks["P"], blocks["D"], blocks["Q"])
