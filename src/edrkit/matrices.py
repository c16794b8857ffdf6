"""Exact matrices over the supported rings, plus the text wire formats.

Matrix text format: a `<rows> <cols>` header line, then one line per row of
whitespace-separated element literals.  A reduction certificate is three
such matrices under `P`, `D`, `Q` header lines.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import Ring, RingElement, RingParseError, _excerpt, _int_excerpt, _parse_int


@dataclass(frozen=True)
class Matrix:
    ring: Ring
    rows: int
    cols: int
    entries: tuple[RingElement, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        for e in self.entries:
            self.ring._check(e)

    @classmethod
    def from_rows(cls, ring: Ring, rows: list) -> "Matrix":
        height = len(rows)
        width = len(rows[0]) if rows else 0
        entries = []
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged rows")
            entries.extend(ring.element(v) for v in row)
        return cls(ring, height, width, tuple(entries))

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Matrix":
        one, zero = ring.one, ring.zero
        return cls(
            ring, n, n, tuple(one if i == j else zero for i in range(n) for j in range(n))
        )

    def entry(self, i: int, j: int) -> RingElement:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[RingElement, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def payload_grid(self) -> list[list]:
        return [
            [self.entries[i * self.cols + j].payload for j in range(self.cols)]
            for i in range(self.rows)
        ]

    def transpose(self) -> "Matrix":
        return Matrix(
            self.ring,
            self.cols,
            self.rows,
            tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ring != other.ring:
            raise ValueError("rings differ")
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        ring = self.ring
        if self.cols:
            grid = ring._matmul(self.payload_grid(), other.payload_grid())
        else:
            # other has no rows, so its grid cannot say how wide it is
            grid = [[ring._zero()] * other.cols for _ in range(self.rows)]
        return Matrix(
            ring, self.rows, other.cols, tuple(RingElement(ring, x) for row in grid for x in row)
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def diagonal(self) -> tuple[RingElement, ...]:
        return tuple(self.entry(i, i) for i in range(min(self.rows, self.cols)))

    def __str__(self) -> str:
        return format_matrix(self)


@dataclass(frozen=True)
class ReductionCertificate:
    """Invertible P, Q and diagonal D with P*A*Q = D and a divisibility chain."""

    P: Matrix
    D: Matrix
    Q: Matrix


def from_payload_grid(ring: Ring, grid: list[list]) -> Matrix:
    rows = len(grid)
    cols = len(grid[0]) if rows else 0
    return Matrix(
        ring,
        rows,
        cols,
        tuple(RingElement(ring, grid[i][j]) for i in range(rows) for j in range(cols)),
    )


def format_matrix(m: Matrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    for i in range(m.rows):
        lines.append(" ".join(m.ring.format_element(e) for e in m.row(i)))
    return "\n".join(lines) + "\n"


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
    entries = []
    # a zero-width row is written as a blank line, which reads as no line
    for r in range(rows if cols else 0):
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
        entries.extend(ring.parse_element(tok) for tok in tokens)
        idx += 1
    return Matrix(ring, rows, cols, tuple(entries)), idx


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
